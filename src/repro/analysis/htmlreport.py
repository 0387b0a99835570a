"""Self-contained HTML reports: inline-SVG charts, zero dependencies.

``conga-repro report`` renders a sweep (or a whole recovery-matrix
scenario) into **one** HTML file with no network fetches, no JavaScript,
and no plotting libraries — every chart is a hand-built inline SVG, so the
artifact opens identically in a browser, a CI artifact viewer, or an
email attachment years from now.

Three chart primitives cover everything the evaluation needs:

* :func:`svg_line_chart` — multi-series line charts with shaded x-spans
  (fault windows), used for goodput/reroute/drop timelines;
* :func:`svg_cdf_chart` — empirical CDFs (FCT distributions per scheme);
* :func:`svg_heatmap` — ports × time utilization heatmaps from a
  :class:`~repro.obs.timeline.Timeline`.

Number formatting reuses :func:`repro.analysis.report.format_value` so
HTML tables and the text tables benchmarks print stay consistent.
"""

from __future__ import annotations

import html
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.analysis.degradation import fault_cell, recovery_matrix
from repro.analysis.report import format_value
from repro.faults.events import fault_window
from repro.units import to_milliseconds

if TYPE_CHECKING:
    from repro.apps.spec import PointResult
    from repro.obs.timeline import Timeline

#: Matplotlib-tab10-ish palette; schemes get stable colors by first use.
PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

#: Shading for degraded (fault-window) spans on time charts.
FAULT_FILL = "#d62728"
FAULT_OPACITY = "0.12"

_CSS = """
body { font: 14px/1.5 -apple-system, "Segoe UI", Roboto, sans-serif;
       color: #1a1a2e; margin: 2em auto; max-width: 72em; padding: 0 1em; }
h1 { font-size: 1.6em; border-bottom: 2px solid #1a1a2e; }
h2 { font-size: 1.2em; margin-top: 2em; }
h3 { font-size: 1.0em; color: #444; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.7em; text-align: right; }
th { background: #f0f2f5; }
td:first-child, th:first-child { text-align: left; }
figure { margin: 1em 0; }
figcaption { font-size: 0.85em; color: #555; }
.meta { color: #666; font-size: 0.85em; }
svg { background: #fff; }
.failed { color: #b00; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value))


def scheme_color(scheme: str, order: Sequence[str]) -> str:
    """Stable palette color for ``scheme`` given the report's scheme order."""
    try:
        index = list(order).index(scheme)
    except ValueError:
        index = len(order)
    return PALETTE[index % len(PALETTE)]


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    """``count`` evenly spaced tick values covering ``[lo, hi]``."""
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count)]


def _fmt_tick(value: float) -> str:
    return f"{value:.3g}"


def svg_line_chart(
    curves: Sequence[tuple[str, Sequence[float], Sequence[float], str]],
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    width: int = 640,
    height: int = 260,
    shaded: Sequence[tuple[float, float]] = (),
    y_min: float | None = 0.0,
) -> str:
    """A multi-series SVG line chart.

    ``curves`` is ``(label, xs, ys, color)`` per series; ``shaded`` lists
    x-spans (data coordinates) drawn as translucent fault-window bands
    behind the curves.  ``y_min=None`` autoscales the y floor; the default
    pins it at 0 (utilization/goodput charts read wrong otherwise).
    """
    left, right, top, bottom = 58, 14, 26, 40
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs_all = [x for _, xs, _, _ in curves for x in xs]
    ys_all = [y for _, _, ys, _ in curves for y in ys]
    if not xs_all:
        return (
            f'<svg width="{width}" height="{height}" '
            'xmlns="http://www.w3.org/2000/svg">'
            f'<text x="{width / 2}" y="{height / 2}" text-anchor="middle" '
            f'fill="#888">{_esc(title)}: no data</text></svg>'
        )
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo = min(ys_all) if y_min is None else min(y_min, min(ys_all))
    y_hi = max(ys_all)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg width="{width}" height="{height}" '
        'xmlns="http://www.w3.org/2000/svg" '
        'font-family="sans-serif" font-size="11">'
    ]
    if title:
        parts.append(
            f'<text x="{left}" y="15" font-size="12" font-weight="bold">'
            f"{_esc(title)}</text>"
        )
    for x0, x1 in shaded:
        a, b = max(x0, x_lo), min(x1, x_hi)
        if b <= a:
            continue
        parts.append(
            f'<rect x="{px(a):.1f}" y="{top}" '
            f'width="{px(b) - px(a):.1f}" height="{plot_h}" '
            f'fill="{FAULT_FILL}" opacity="{FAULT_OPACITY}"/>'
        )
    # Axes + ticks.
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#999"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
            f'y2="{top + plot_h + 4}" stroke="#999"/>'
            f'<text x="{x:.1f}" y="{top + plot_h + 16}" '
            f'text-anchor="middle">{_fmt_tick(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" '
            'stroke="#999"/>'
            f'<text x="{left - 7}" y="{y + 3:.1f}" '
            f'text-anchor="end">{_fmt_tick(tick)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{left + plot_w / 2}" y="{height - 6}" '
            f'text-anchor="middle">{_esc(x_label)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="14" y="{top + plot_h / 2}" text-anchor="middle" '
            f'transform="rotate(-90 14 {top + plot_h / 2})">'
            f"{_esc(y_label)}</text>"
        )
    # Curves.
    for label, xs, ys, color in curves:
        if not xs:
            continue
        points = " ".join(
            f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="1.6"/>'
        )
    # Legend (top-right, inside the plot).
    for i, (label, _, _, color) in enumerate(curves):
        y = top + 8 + 14 * i
        parts.append(
            f'<rect x="{left + plot_w - 104}" y="{y - 8}" width="10" '
            f'height="10" fill="{color}"/>'
            f'<text x="{left + plot_w - 90}" y="{y + 1}">{_esc(label)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def svg_cdf_chart(
    samples_by_label: Sequence[tuple[str, Sequence[float], str]],
    *,
    title: str = "",
    x_label: str = "",
    width: int = 640,
    height: int = 260,
    max_points: int = 256,
) -> str:
    """Empirical CDF chart: one stepped curve per (label, samples, color).

    Curves are decimated to at most ``max_points`` vertices (uniform index
    stride — deterministic), keeping worst-case report size bounded.
    """
    curves = []
    for label, samples, color in samples_by_label:
        values = sorted(samples)
        n = len(values)
        if n == 0:
            continue
        stride = max(1, n // max_points)
        xs = [values[i] for i in range(0, n, stride)]
        ys = [(i + 1) / n for i in range(0, n, stride)]
        if xs[-1] != values[-1]:
            xs.append(values[-1])
            ys.append(1.0)
        curves.append((label, xs, ys, color))
    return svg_line_chart(
        curves,
        title=title,
        x_label=x_label,
        y_label="fraction of flows",
        width=width,
        height=height,
    )


def _heat_color(value: float) -> str:
    """White → amber → dark red colormap over [0, 1] (clamped)."""
    v = 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)
    if v < 0.5:
        t = v / 0.5
        r, g, b = 255, int(250 - 80 * t), int(245 - 185 * t)
    else:
        t = (v - 0.5) / 0.5
        r, g, b = int(255 - 130 * t), int(170 - 150 * t), int(60 - 47 * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_heatmap(
    row_labels: Sequence[str],
    col_values: Sequence[float],
    matrix: Sequence[Sequence[float]],
    *,
    title: str = "",
    x_label: str = "",
    width: int = 720,
    shaded: Sequence[tuple[float, float]] = (),
) -> str:
    """Rows × columns heatmap (e.g. port utilization over time).

    ``matrix[r][c]`` is the value (expected roughly in [0, 1]) of row
    ``r`` at column position ``col_values[c]``; cells are laid out at the
    actual column coordinates, so decimated (non-uniform) time axes render
    correctly.  ``shaded`` x-spans are outlined above the cells.
    """
    row_h = 13
    left, right, top, bottom = 86, 14, 26, 34
    rows = len(row_labels)
    cols = len(col_values)
    height = top + rows * row_h + bottom
    plot_w = width - left - right
    if cols == 0 or rows == 0:
        return (
            f'<svg width="{width}" height="{height}" '
            'xmlns="http://www.w3.org/2000/svg">'
            f'<text x="{width / 2}" y="{height / 2}" text-anchor="middle" '
            f'fill="#888">{_esc(title)}: no data</text></svg>'
        )
    x_lo, x_hi = min(col_values), max(col_values)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    # Cell edges midway between successive sample positions.
    edges = [px(x_lo)]
    for c in range(1, cols):
        edges.append((px(col_values[c - 1]) + px(col_values[c])) / 2)
    edges.append(px(x_hi))

    parts = [
        f'<svg width="{width}" height="{height}" '
        'xmlns="http://www.w3.org/2000/svg" '
        'font-family="sans-serif" font-size="10">'
    ]
    if title:
        parts.append(
            f'<text x="{left}" y="15" font-size="12" font-weight="bold">'
            f"{_esc(title)}</text>"
        )
    for r, label in enumerate(row_labels):
        y = top + r * row_h
        parts.append(
            f'<text x="{left - 4}" y="{y + row_h - 3}" '
            f'text-anchor="end">{_esc(label)}</text>'
        )
        row = matrix[r]
        for c in range(cols):
            x0, x1 = edges[c], edges[c + 1]
            parts.append(
                f'<rect x="{x0:.1f}" y="{y}" width="{max(x1 - x0, 0.5):.1f}" '
                f'height="{row_h - 1}" fill="{_heat_color(row[c])}"/>'
            )
    for x0, x1 in shaded:
        a, b = max(x0, x_lo), min(x1, x_hi)
        if b <= a:
            continue
        parts.append(
            f'<rect x="{px(a):.1f}" y="{top - 2}" '
            f'width="{px(b) - px(a):.1f}" height="{rows * row_h + 2}" '
            f'fill="none" stroke="{FAULT_FILL}" stroke-width="1.5" '
            'stroke-dasharray="4 3"/>'
        )
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<text x="{x:.1f}" y="{top + rows * row_h + 14}" '
            f'text-anchor="middle">{_fmt_tick(tick)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{left + plot_w / 2}" y="{height - 5}" '
            f'text-anchor="middle" font-size="11">{_esc(x_label)}</text>'
        )
    # Color scale legend.
    for i in range(10):
        parts.append(
            f'<rect x="{width - 130 + i * 10}" y="6" width="10" height="8" '
            f'fill="{_heat_color(i / 9)}"/>'
        )
    parts.append(
        f'<text x="{width - 134}" y="13" text-anchor="end">0</text>'
        f'<text x="{width - 26}" y="13">1</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def html_table(
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    caption: str = "",
) -> str:
    """An HTML table using the shared text-report number formatting."""
    parts = ["<table>"]
    if caption:
        parts.append(f"<caption>{_esc(caption)}</caption>")
    parts.append(
        "<tr>" + "".join(f"<th>{_esc(h)}</th>" for h in header) + "</tr>"
    )
    for row in rows:
        parts.append(
            "<tr>"
            + "".join(f"<td>{_esc(format_value(v))}</td>" for v in row)
            + "</tr>"
        )
    parts.append("</table>")
    return "".join(parts)


def html_document(
    title: str,
    sections: Sequence[tuple[str, str]],
    *,
    subtitle: str = "",
) -> str:
    """Assemble the final single-file document (inline CSS, no scripts)."""
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    if subtitle:
        parts.append(f'<p class="meta">{_esc(subtitle)}</p>')
    for heading, body in sections:
        if heading:
            parts.append(f"<h2>{_esc(heading)}</h2>")
        parts.append(body)
    parts.append("</body></html>")
    return "\n".join(parts)


# -- result-driven section builders -----------------------------------------


def _completions(points: Iterable["PointResult"]) -> list[tuple[int, int]]:
    return [
        (r.start_time + r.fct, r.size)
        for p in points
        for r in p.records
    ]


def _fault_spans(
    points: Sequence["PointResult"], end_time: int
) -> list[tuple[float, float]]:
    """Distinct fault windows (ms) across the points' fault schedules."""
    spans = set()
    for point in points:
        window = fault_window(point.spec.faults)
        if window is None:
            continue
        start, end = window
        spans.add(
            (to_milliseconds(start),
             to_milliseconds(end if end is not None else end_time))
        )
    return sorted(spans)


def goodput_curves(
    points_by_scheme: dict[str, list["PointResult"]],
    *,
    bins: int = 80,
) -> tuple[list[tuple[str, list[float], list[float], str]], int]:
    """Per-scheme mean binned goodput (Gbps) over sim time (ms).

    Each scheme's curve is its points' completion-binned goodput averaged
    across seeds, so replicate noise smooths out while the drain-and-
    recover shape around a fault window stays visible.
    """
    schemes = list(points_by_scheme)
    end_time = max(
        (p.end_time for pts in points_by_scheme.values() for p in pts),
        default=0,
    )
    curves = []
    if end_time <= 0:
        return curves, 0
    bin_width = max(1, end_time // bins)
    for scheme in schemes:
        points = points_by_scheme[scheme]
        if not points:
            continue
        totals = [0] * bins
        for when, size in _completions(points):
            index = min(int(when // bin_width), bins - 1)
            totals[index] += size
        xs = [to_milliseconds((i + 1) * bin_width) for i in range(bins)]
        ys = [
            total * 8.0 / (bin_width * len(points)) for total in totals
        ]  # bytes/bin -> Gbps (bytes*8 / ns == Gbps)
        curves.append((scheme, xs, ys, scheme_color(scheme, schemes)))
    return curves, end_time


def fct_cdf_section(
    points_by_scheme: dict[str, list["PointResult"]],
    *,
    title: str = "FCT CDF (normalized)",
) -> str:
    """Empirical normalized-FCT CDFs, one curve per scheme."""
    schemes = list(points_by_scheme)
    series = []
    for scheme in schemes:
        samples = [
            r.normalized_fct
            for p in points_by_scheme[scheme]
            for r in p.records
        ]
        series.append((scheme, samples, scheme_color(scheme, schemes)))
    chart = svg_cdf_chart(
        series, title=title, x_label="FCT / ideal FCT"
    )
    return f"<figure>{chart}</figure>"


def goodput_section(
    points_by_scheme: dict[str, list["PointResult"]],
    *,
    title: str = "Goodput over time",
) -> str:
    """Mean goodput-over-time chart with fault windows shaded."""
    curves, end_time = goodput_curves(points_by_scheme)
    all_points = [p for pts in points_by_scheme.values() for p in pts]
    shaded = _fault_spans(all_points, end_time)
    chart = svg_line_chart(
        curves,
        title=title,
        x_label="sim time (ms)",
        y_label="goodput (Gbps)",
        shaded=shaded,
    )
    caption = ""
    if shaded:
        caption = (
            "<figcaption>Shaded bands mark degraded (fault) windows."
            "</figcaption>"
        )
    return f"<figure>{chart}{caption}</figure>"


def summary_table_section(points: Sequence["PointResult"]) -> str:
    """The sweep summary table (mirrors the CLI's text table)."""
    rows = []
    for p in points:
        summary = p.summary
        rows.append(
            (
                p.scheme,
                p.load,
                p.spec.seed,
                summary.mean_normalized if summary else float("nan"),
                summary.p99_normalized if summary else float("nan"),
                f"{p.completed}/{p.arrivals}",
                p.fabric_drops,
                p.timeouts,
                "cache" if p.from_cache else "run",
            )
        )
    return html_table(
        ["scheme", "load", "seed", "mean FCT", "p99 FCT", "done",
         "drops", "RTOs", "source"],
        rows,
    )


def timeline_sections(
    point: "PointResult", *, label: str = ""
) -> list[tuple[str, str]]:
    """Heatmap + rate charts for one point's :class:`Timeline`.

    Returns ``(heading, html)`` sections; empty when the point carries no
    timeline (the collector was off).
    """
    timeline = point.timeline
    if timeline is None or not timeline.times:
        return []
    name = label or point.spec.label()
    times_ms = [to_milliseconds(t) for t in timeline.times]
    shaded = _timeline_fault_spans(timeline, point.end_time)
    matrix = [
        timeline.utilization[port] for port in timeline.port_names
    ]
    heat = svg_heatmap(
        timeline.port_names,
        times_ms,
        matrix,
        title="fabric port utilization",
        x_label="sim time (ms)",
        shaded=shaded,
    )
    rate_curves = [
        ("flowlet decisions", times_ms,
         list(timeline.flowlet_decisions), PALETTE[0]),
        ("fault reroutes", times_ms,
         list(timeline.fault_reroutes), PALETTE[1]),
        ("RTO timeouts", times_ms, list(timeline.timeouts), PALETTE[4]),
        ("drops", times_ms, list(timeline.drops), PALETTE[5]),
    ]
    rates = svg_line_chart(
        rate_curves,
        title="reroute / loss activity per interval",
        x_label="sim time (ms)",
        y_label="events / interval",
        shaded=shaded,
    )
    interval = timeline.interval
    goodput = svg_line_chart(
        [
            (
                "goodput",
                times_ms,
                [g * 8.0 / interval for g in timeline.goodput_bytes],
                PALETTE[2],
            )
        ],
        title="goodput per interval",
        x_label="sim time (ms)",
        y_label="Gbps",
        shaded=shaded,
    )
    meta = (
        f'<p class="meta">timeline: {timeline.samples} samples @ '
        f"{to_milliseconds(interval):g} ms, digest "
        f"{timeline.digest()[:12]}</p>"
    )
    body = f"{meta}<figure>{heat}</figure><figure>{rates}</figure>" \
           f"<figure>{goodput}</figure>"
    return [(f"Timeline — {name}", body)]


def _timeline_fault_spans(
    timeline: "Timeline", end_time: int
) -> list[tuple[float, float]]:
    """Degraded spans (ms) from a timeline's applied-fault log."""
    spans: list[tuple[float, float]] = []
    open_at: int | None = None
    for when, _, restores in timeline.fault_events:
        if restores:
            if open_at is not None:
                spans.append(
                    (to_milliseconds(open_at), to_milliseconds(when))
                )
                open_at = None
        elif open_at is None:
            open_at = when
    if open_at is not None:
        spans.append((to_milliseconds(open_at), to_milliseconds(end_time)))
    return spans


def group_by_scheme(
    points: Iterable["PointResult"],
) -> dict[str, list["PointResult"]]:
    """Points grouped by scheme, preserving first-seen scheme order."""
    groups: dict[str, list[PointResult]] = {}
    for point in points:
        groups.setdefault(point.scheme, []).append(point)
    return groups


def sweep_report(
    points: Sequence["PointResult"],
    *,
    title: str,
    subtitle: str = "",
    failures: Sequence[object] = (),
    timelines: bool = True,
) -> str:
    """The standard sweep page: summary table, FCT CDFs, goodput curves.

    When points carry timelines (and ``timelines`` is true), one timeline
    section is rendered per scheme (the first point of each), keeping the
    file bounded on big sweeps.
    """
    groups = group_by_scheme(points)
    sections: list[tuple[str, str]] = [
        ("Summary", summary_table_section(points)),
        ("Flow completion times", fct_cdf_section(groups)),
        ("Goodput", goodput_section(groups)),
    ]
    if failures:
        rows = [
            (f.spec.label(), f.kind, f.attempts, _esc(f.error)[:120])
            for f in failures
        ]
        sections.append(
            (
                "Failures",
                html_table(["point", "kind", "attempts", "error"], rows),
            )
        )
    if timelines:
        for scheme, group in groups.items():
            sections.extend(
                timeline_sections(group[0], label=group[0].spec.label())
            )
    return html_document(title, sections, subtitle=subtitle)


def recovery_report(
    *,
    title: str,
    points: Sequence["PointResult"],
    subtitle: str = "",
    timelines: bool = True,
) -> str:
    """The recovery-matrix page (``caft_recovery.yaml`` as one report).

    ``points`` is one sweep over a ``faults`` axis: its fault-free points
    are the healthy baseline, and every other fault schedule is a cell,
    named by :func:`~repro.analysis.degradation.fault_cell`.  Every cell
    gets a scored table (in-window goodput vs the same scheme+seed's
    *healthy* goodput over the identical window — the normalization the
    recovery-matrix claims use) and a goodput timeline with the fault
    window shaded.
    """
    baseline = [p for p in points if not p.spec.faults]
    sections: list[tuple[str, str]] = [
        (
            "Healthy baseline",
            summary_table_section(baseline)
            + fct_cdf_section(
                group_by_scheme(baseline), title="baseline FCT CDF"
            ),
        )
    ]
    for faults, schemes in recovery_matrix(points).items():
        tier, kind, density = fault_cell(faults)
        cell_name = f"{tier}-{kind} ×{density}"
        rows = [
            (scheme, *(
                sum(values) / len(values) if values else float("nan")
                for values in (stats["retained"], stats["fct"], stats["timeouts"])
            ))
            for scheme, stats in schemes.items()
        ]
        table = html_table(
            ["scheme", "goodput retained", "mean FCT (norm)",
             "RTO timeouts"],
            rows,
            caption="goodput scored against the healthy baseline over "
                    "the same window",
        )
        groups = group_by_scheme(p for p in points if p.spec.faults == faults)
        body = table + goodput_section(
            groups, title=f"goodput — {cell_name}"
        )
        if timelines:
            for scheme, group in groups.items():
                for heading, html_body in timeline_sections(
                    group[0], label=f"{cell_name} {scheme}"
                ):
                    body += f"<h3>{_esc(heading)}</h3>{html_body}"
        sections.append((f"Cell: {cell_name}", body))
    return html_document(title, sections, subtitle=subtitle)


__all__ = [
    "PALETTE",
    "fct_cdf_section",
    "goodput_curves",
    "goodput_section",
    "group_by_scheme",
    "html_document",
    "html_table",
    "recovery_report",
    "scheme_color",
    "summary_table_section",
    "svg_cdf_chart",
    "svg_heatmap",
    "svg_line_chart",
    "sweep_report",
    "timeline_sections",
]
