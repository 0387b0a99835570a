"""Metrics report: counters, gauges and histogram summaries under dotted names.

Simulation components keep plain attributes; at snapshot time
:func:`collect_run_metrics` reads them into the three name-sorted dicts of a
picklable :class:`MetricsReport` — kernel perf counters (``kernel.*``),
per-port throughput/queue totals (``port.*``), TCP loss recovery
(``tcp.*``), flowlet/feedback activity (``flowlet.*``, ``feedback.*``) —
attached to every :class:`~repro.apps.spec.PointResult`.  The sweep
dispatcher fills a report of its own (``sweep.*``) on every
``SweepResult``.

Design constraints:

* **Off the hot path.**  No per-event or per-packet code writes a metric;
  each name is filled once per run (or once per sweep).
* **Deterministic.**  Metrics are reporting-only and never feed back into
  the simulation; reports sort names so they compare stably.
* **Bounded.**  A histogram is summarized from the same
  :class:`~repro.core.series.DecimatedSeries` the queue monitors use, so
  unbounded observation streams keep constant memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.series import DecimatedSeries

if TYPE_CHECKING:
    from repro.apps.experiment import ExperimentResult


@dataclass(frozen=True)
class HistogramSummary:
    """Picklable summary statistics of one bounded sample series."""

    count: int
    minimum: float
    maximum: float
    mean: float
    p50: float
    p90: float
    p99: float

    @staticmethod
    def of(series: DecimatedSeries) -> "HistogramSummary":
        """Summarize ``series``' retained samples; ``count`` is all it was offered."""
        # Imported here: the repro.analysis package imports transport and
        # net, which import repro.obs — and with it this module.
        from repro.analysis.stats import series_stats

        values = [float(value) for value in series]
        if not values:
            return HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        mean, p50, p90, p99 = series_stats(values, (50, 90, 99), who="HistogramSummary")
        return HistogramSummary(
            series.offered, min(values), max(values), mean, p50, p90, p99
        )


@dataclass(frozen=True)
class MetricsReport:
    """A run's (or a sweep's) metrics as plain data — what crosses processes.

    Names are sorted within each kind, so two reports over the same run
    compare (and serialize) identically.
    """

    counters: dict[str, int | float]
    gauges: dict[str, float]
    histograms: dict[str, HistogramSummary]

    def names(self) -> list[str]:
        """Every metric name in the report, sorted."""
        return sorted([*self.counters, *self.gauges, *self.histograms])

    def value(self, name: str) -> int | float:
        """The scalar value of a counter or gauge by name."""
        if name in self.counters:
            return self.counters[name]
        if name in self.gauges:
            return self.gauges[name]
        raise KeyError(f"no counter or gauge named {name!r}")

    def scalars(self) -> dict[str, int | float]:
        """Counters and gauges merged into one sorted name→value dict."""
        merged: dict[str, int | float] = {}
        for name in sorted([*self.counters, *self.gauges]):
            merged[name] = self.counters.get(name, self.gauges.get(name, 0))
        return merged

    def resolve_select(self, select: str | Iterable[str]) -> list[str]:
        """Resolve a selection of names and dotted prefixes to metric names.

        ``select`` is a comma-separated string (or iterable) of tokens;
        each token matches exactly or as a name prefix, so whole families
        select naturally (``lb.caft.``, ``kernel.``) — the same semantics
        as the lint CLI's ``resolve_select``.  Matches are deduplicated
        preserving selection order; tokens matching nothing raise with the
        known names listed, so a typo never silently selects nothing.
        """
        if isinstance(select, str):
            tokens = select.split(",")
        else:
            tokens = list(select)
        tokens = [token.strip() for token in tokens]
        tokens = [token for token in tokens if token]
        names = self.names()
        resolved: list[str] = []
        seen: set[str] = set()
        unknown: list[str] = []
        for token in tokens:
            matched = [
                name
                for name in names
                if name == token or name.startswith(token)
            ]
            if not matched:
                unknown.append(token)
                continue
            for name in matched:
                if name not in seen:
                    seen.add(name)
                    resolved.append(name)
        if unknown:
            raise KeyError(
                f"unknown metric selection {', '.join(sorted(unknown))!s}; "
                f"known names: {', '.join(names)}"
            )
        return resolved

    def lines(self, select: str = "") -> list[str]:
        """Human-readable aligned report lines, optionally name-filtered.

        ``select`` accepts comma-separated exact names or dotted-prefix
        families (see :meth:`resolve_select`); empty selects everything.
        """
        if select:
            wanted = set(self.resolve_select(select))
        else:
            wanted = set(self.names())
        rows: list[tuple[str, str]] = []
        for name in sorted(self.counters):
            if name in wanted:
                value = self.counters[name]
                rows.append((name, f"{value:g}" if isinstance(value, float) else str(value)))
        for name in sorted(self.gauges):
            if name in wanted:
                rows.append((name, f"{self.gauges[name]:g}"))
        for name in sorted(self.histograms):
            if name in wanted:
                h = self.histograms[name]
                rows.append(
                    (
                        name,
                        f"n={h.count} mean={h.mean:g} p50={h.p50:g} "
                        f"p90={h.p90:g} p99={h.p99:g} max={h.maximum:g}",
                    )
                )
        width = max((len(name) for name, _ in rows), default=0)
        return [f"{name:<{width}}  {value}" for name, value in rows]


def collect_run_metrics(live: "ExperimentResult") -> MetricsReport:
    """Absorb a finished run's scattered counters into one report.

    Kernel perf counters, fabric-port totals, overlay/feedback activity,
    flowlet churn, TCP loss recovery, and tracer accounting, each read from
    the attribute its owner keeps.  Runs once at snapshot time — nothing
    here touches a hot path.
    """
    sim = live.sim
    ports = list(live.fabric.fabric_ports())
    stats = [port.queue.stats for port in ports]
    teps = [leaf.tep for leaf in live.fabric.leaves if leaf.tep is not None]
    counters: dict[str, int | float] = {
        "kernel.events_executed": sim.events_executed,
        "kernel.timer_rearms": sim.timer_rearms,
        "kernel.heap_compactions": sim.heap_compactions,
        "kernel.wall_seconds": sim.wall_seconds,
        "port.tx_packets": sum(p.tx_packets for p in ports),
        "port.tx_bytes": sum(p.tx_bytes for p in ports),
        "port.rx_packets": sum(p.rx_packets for p in ports),
        "port.rx_bytes": sum(p.rx_bytes for p in ports),
        "port.lost_packets": sum(p.lost_packets for p in ports),
        "port.queue_dropped_packets": sum(q.dropped_packets for q in stats),
        "port.queue_dropped_bytes": sum(q.dropped_bytes for q in stats),
        "port.queue_ecn_marked": sum(q.ecn_marked for q in stats),
        "flows.arrivals": live.arrivals,
        "flows.completed": live.completed,
        "tcp.retransmissions": live.retransmissions,
        "tcp.timeouts": live.timeouts,
        "feedback.sent": sum(t.feedback_sent for t in teps),
        "feedback.received": sum(t.feedback_received for t in teps),
        "feedback.lost": sum(t.feedback_lost for t in teps),
        "overlay.encapsulated": sum(t.encapsulated for t in teps),
        "overlay.decapsulated": sum(t.decapsulated for t in teps),
    }
    gauges = {"port.max_queue_bytes": float(max((q.max_bytes for q in stats), default=0))}
    histograms = {
        "port.queue_max_bytes": HistogramSummary.of(
            DecimatedSeries(values=(q.max_bytes for q in stats))
        )
    }

    selectors = [leaf.selector for leaf in live.fabric.leaves]
    tables = [getattr(s, "flowlets", None) for s in selectors]
    tables = [t for t in tables if t is not None]
    if tables:
        counters["flowlet.created"] = sum(t.new_flowlets for t in tables)
        counters["flowlet.expired"] = sum(t.expired_flowlets for t in tables)
        counters["flowlet.decisions"] = sum(getattr(s, "decisions", 0) for s in selectors)

    reroutes = sum(
        getattr(s, "fault_reroutes", 0) for s in live.fabric.selectors()
    )
    if reroutes:
        # Leaf- plus pod-spine-level decisions where fault awareness (not
        # congestion) steered the flowlet; only caft runs produce these.
        counters["lb.caft.fault_reroutes"] = reroutes

    imbalance = live.imbalance_series
    if imbalance is not None:
        counters["monitor.imbalance.samples"] = len(imbalance.samples)
        if imbalance.samples:  # a short run may never see a loaded window
            gauges["monitor.imbalance.mean_percent"] = imbalance.mean_percent()
            gauges["monitor.imbalance.p95_percent"] = imbalance.percentile(95.0)

    tracer = sim.tracer
    if tracer is not None:
        counters["trace.emitted"] = tracer.emitted
        counters["trace.retained"] = len(tracer)
        counters["trace.dropped"] = tracer.dropped

    if live.timeline is not None:
        counters["timeline.samples"] = live.timeline.samples
        counters["timeline.retained"] = len(live.timeline)
        counters["timeline.ports"] = len(live.timeline.port_names)

    return MetricsReport(
        counters=dict(sorted(counters.items())),
        gauges=dict(sorted(gauges.items())),
        histograms=histograms,
    )


__all__ = [
    "HistogramSummary",
    "MetricsReport",
    "collect_run_metrics",
]
