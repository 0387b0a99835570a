"""Plain-text result tables.

The evaluation harnesses print the same series the paper plots; this module
provides the rendering so benchmarks, examples, and the CLI share one
format.  Keeping it text-based (no plotting dependency) suits headless CI
and diffs well.
"""

from __future__ import annotations

from typing import Iterable, Sequence


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


__all__ = [
    "format_value",
    "print_table",
    "render_table",
]
