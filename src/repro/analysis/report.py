"""Plain-text result tables and CDF summaries.

The evaluation harnesses print the same series the paper plots; this module
provides the rendering so benchmarks, examples, and the CLI share one
format.  Keeping it text-based (no plotting dependency) suits headless CI
and diffs well.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.stats import series_stats


def format_value(value) -> str:
    """Render one cell: floats at 3 significant digits, all else via str."""
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def render_table(
    title: str, header: Sequence[str], rows: Iterable[Sequence]
) -> str:
    """Render an aligned fixed-width table under a title line."""
    materialized = [list(row) for row in rows]
    if any(len(row) != len(header) for row in materialized):
        raise ValueError("every row must match the header width")
    widths = [
        max(
            len(str(header[column])),
            max(
                (len(format_value(row[column])) for row in materialized),
                default=0,
            ),
        )
        for column in range(len(header))
    ]
    lines = [f"=== {title} ==="]
    lines.append(
        "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    )
    for row in materialized:
        lines.append(
            "  ".join(format_value(v).ljust(w) for v, w in zip(row, widths))
        )
    return "\n".join(lines)


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print :func:`render_table` output preceded by a blank line."""
    print("\n" + render_table(title, header, rows))


def cdf_points(
    samples: Sequence[float], quantiles: Sequence[float] = (10, 25, 50, 75, 90, 99)
) -> list[tuple[float, float]]:
    """(quantile, value) pairs summarizing a sample set's CDF."""
    return list(zip(quantiles, series_stats(samples, quantiles, who="cdf_points")[1:]))


def summarize_series(samples: Sequence[float]) -> dict[str, float]:
    """Mean/median/p90/p99/min/max of a series, as a plain dict."""
    mean, p50, p90, p99 = series_stats(samples, (50, 90, 99), who="summarize_series")
    return {
        "mean": mean,
        "p50": p50,
        "p90": p90,
        "p99": p99,
        "min": float(min(samples)),
        "max": float(max(samples)),
    }


__all__ = [
    "cdf_points",
    "format_value",
    "print_table",
    "render_table",
    "summarize_series",
]
