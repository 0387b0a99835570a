"""Evaluation metrics: FCT statistics and the imbalance and queue views."""

from importlib import import_module

from repro.analysis.fct import (
    FctSummary,
    LARGE_FLOW_BYTES,
    SMALL_FLOW_BYTES,
    relative_to,
)
from repro.analysis.monitors import ImbalanceSeries, QueueSeries
from repro.analysis.stats import EmptySeriesError

#: Siblings imported on first access: no run reads the window analysis or renderers.
_DEFERRED = {
    "degradation": ("DegradationSummary", "window_goodput"),
    "htmlreport": (
        "html_document",
        "recovery_report",
        "svg_heatmap",
        "svg_line_chart",
        "sweep_report",
        "timeline_sections",
    ),
    "report": ("cdf_points", "print_table", "render_table", "summarize_series"),
}


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "DegradationSummary",
    "EmptySeriesError",
    "FctSummary",
    "ImbalanceSeries",
    "LARGE_FLOW_BYTES",
    "QueueSeries",
    "SMALL_FLOW_BYTES",
    "cdf_points",
    "html_document",
    "print_table",
    "recovery_report",
    "relative_to",
    "render_table",
    "summarize_series",
    "svg_heatmap",
    "svg_line_chart",
    "sweep_report",
    "timeline_sections",
    "window_goodput",
]
