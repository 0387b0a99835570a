"""repro.obs — the observability plane: tracing, metrics, run manifests.

Three cooperating pieces, all reporting-only (nothing here ever feeds back
into simulation behaviour — golden digests are bit-identical with the
plane off and on):

* **Structured tracing** (:mod:`repro.obs.events`, :mod:`repro.obs.trace`)
  — typed frozen events recording *why* the simulation did what it did
  (flowlet uplink decisions with both compared congestion metrics, DRE
  reads, Congestion-To-Leaf updates/aging, TCP state transitions, drops,
  faults), collected by a per-simulator :class:`Tracer` with category
  filters and a bounded ring buffer, exportable as NDJSON or Chrome
  ``trace_event`` JSON.  Disabled (the default) it costs one ``is None``
  check per potential event — pinned by the frame budget in
  ``tests/test_frame_budget.py`` (no ``repro.obs`` frame in an untraced run).
* **Metrics report** (:mod:`repro.obs.metrics`) — counters, gauges, and
  decimated-histogram summaries under stable dotted names (``kernel.*``,
  ``port.*``, ``tcp.*``, ``sweep.*``): a picklable :class:`MetricsReport`
  of plain dicts on every :class:`~repro.apps.spec.PointResult`.
* **Run manifests** (:mod:`repro.obs.manifest`) — a provenance JSON
  (spec hash, seed, faults, git SHA, version, wall/sim time, metrics
  summary) written next to every result-cache entry.

Import discipline: this package depends only on the standard library and
:mod:`repro.core.series`, so every instrumented module — including
:mod:`repro.sim.kernel` — can import it without cycles.
"""

from importlib import import_module

from repro.obs.config import ObsSpec
from repro.obs.events import (
    CongaTableAged,
    CongaTableUpdated,
    DreSampled,
    FaultApplied,
    FaultRestored,
    FlowletRerouted,
    PacketDropped,
    RtoFired,
    TcpStateChanged,
    TraceEvent,
    event_payload,
)
from repro.obs.metrics import HistogramSummary, MetricsReport, collect_run_metrics
from repro.obs.trace import CATEGORIES, DEFAULT_TRACE_LIMIT, TraceLog, Tracer

#: Siblings imported on first access: ``manifest`` drags ``subprocess``, and the
#: timeline collector is an opt-in plane.
_DEFERRED = {
    "manifest": (
        "MANIFEST_SUFFIX",
        "build_manifest",
        "git_sha",
        "manifest_path",
        "write_manifest",
    ),
    "timeline": (
        "DEFAULT_TIMELINE_INTERVAL",
        "DEFAULT_TIMELINE_LIMIT",
        "Timeline",
        "TimelineCollector",
        "TimelineSpec",
    ),
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
    "CATEGORIES",
    "DEFAULT_TIMELINE_INTERVAL",
    "DEFAULT_TIMELINE_LIMIT",
    "DEFAULT_TRACE_LIMIT",
    "CongaTableAged",
    "CongaTableUpdated",
    "DreSampled",
    "FaultApplied",
    "FaultRestored",
    "FlowletRerouted",
    "HistogramSummary",
    "MANIFEST_SUFFIX",
    "MetricsReport",
    "ObsSpec",
    "PacketDropped",
    "RtoFired",
    "TcpStateChanged",
    "Timeline",
    "TimelineCollector",
    "TimelineSpec",
    "TraceEvent",
    "TraceLog",
    "Tracer",
    "build_manifest",
    "collect_run_metrics",
    "event_payload",
    "git_sha",
    "manifest_path",
    "write_manifest",
]
