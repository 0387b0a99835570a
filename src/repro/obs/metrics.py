"""Metrics registry: counters, gauges, histograms under stable dotted names.

Simulation components keep plain attributes; at snapshot time
:func:`collect_run_metrics` reads them into a registry — kernel perf
counters (``kernel.*``), per-port throughput/queue totals (``port.*``), TCP
loss recovery (``tcp.*``), flowlet/feedback activity (``flowlet.*``,
``feedback.*``) — and freezes it into a picklable :class:`MetricsReport`
attached to every :class:`~repro.apps.spec.PointResult`.  The sweep runner
counts into a registry of its own (``sweep.*``).

Design constraints:

* **Off the hot path.**  No per-event or per-packet code touches a
  registry; a :class:`Counter` is a named mutable cell written once per
  run (or once per sweep point).
* **Deterministic.**  Metrics are reporting-only and never feed back into
  the simulation; snapshots sort names so reports compare stably.
* **Bounded.**  :class:`Histogram` is backed by the same
  :class:`~repro.core.series.DecimatedSeries` the queue monitors use, so
  unbounded observation streams keep constant memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Union

from repro.core.series import DEFAULT_SERIES_LIMIT, DecimatedSeries

if TYPE_CHECKING:
    from repro.apps.experiment import ExperimentResult


class Counter:
    """A monotonically-increasing (by convention) named value cell."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (callers on hot paths mutate ``value`` directly)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named last-write-wins value cell."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A named bounded sample distribution (decimated, deterministic)."""

    __slots__ = ("name", "series")

    def __init__(self, name: str, limit: int = DEFAULT_SERIES_LIMIT) -> None:
        self.name = name
        self.series: DecimatedSeries[float] = DecimatedSeries(limit)

    def observe(self, value: float) -> None:
        """Offer one sample (retained iff it lands on the decimation stride)."""
        self.series.append(float(value))

    @property
    def count(self) -> int:
        """Total samples offered (including decimated-away ones)."""
        return self.series.offered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count})"


Metric = Union[Counter, Gauge, Histogram]


@dataclass(frozen=True)
class HistogramSummary:
    """Picklable summary statistics of one histogram."""

    count: int
    minimum: float
    maximum: float
    mean: float
    p50: float
    p90: float
    p99: float

    @staticmethod
    def of(histogram: Histogram) -> "HistogramSummary":
        """Summarize ``histogram``'s retained samples."""
        # Imported here: the repro.analysis package imports transport and
        # net, which import repro.obs — and with it this module.
        from repro.analysis.stats import series_stats

        values = list(histogram.series)
        if not values:
            return HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        mean, p50, p90, p99 = series_stats(values, (50, 90, 99), who=histogram.name)
        return HistogramSummary(
            histogram.count, min(values), max(values), mean, p50, p90, p99
        )


@dataclass(frozen=True)
class MetricsReport:
    """A frozen snapshot of a registry — what crosses process boundaries.

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


class MetricsRegistry:
    """Create-or-get store of named metrics.

    Re-requesting an existing name returns the same object (so components
    can cache cells); requesting it as a different kind raises.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, name: str, kind: type, *args: object) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        metric = self._get_or_create(name, Counter)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        metric = self._get_or_create(name, Gauge)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, limit: int = DEFAULT_SERIES_LIMIT) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        metric = self._get_or_create(name, Histogram, limit)
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Metric | None:
        """The metric named ``name``, or None."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """Every registered name, sorted."""
        return sorted(self._metrics)

    def snapshot(self) -> MetricsReport:
        """Freeze the registry into a picklable :class:`MetricsReport`."""
        counters: dict[str, int | float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, HistogramSummary] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = HistogramSummary.of(metric)
        return MetricsReport(counters=counters, gauges=gauges, histograms=histograms)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


def _sum_into(registry: MetricsRegistry, name: str, values: Iterable[int]) -> None:
    registry.counter(name).value = sum(values)


def collect_run_metrics(live: "ExperimentResult") -> MetricsReport:
    """Absorb a finished run's scattered counters into one report.

    Kernel perf counters, fabric-port totals, overlay/feedback activity,
    flowlet churn, TCP loss recovery, and tracer accounting, each read from
    the attribute its owner keeps.  Runs once at snapshot time — nothing
    here touches a hot path.
    """
    registry = MetricsRegistry()
    sim = live.sim
    registry.counter("kernel.events_executed").value = sim.events_executed
    registry.counter("kernel.timer_rearms").value = sim.timer_rearms
    registry.counter("kernel.heap_compactions").value = sim.heap_compactions
    registry.counter("kernel.wall_seconds").value = sim.wall_seconds
    ports = list(live.fabric.fabric_ports())
    _sum_into(registry, "port.tx_packets", (p.tx_packets for p in ports))
    _sum_into(registry, "port.tx_bytes", (p.tx_bytes for p in ports))
    _sum_into(registry, "port.rx_packets", (p.rx_packets for p in ports))
    _sum_into(registry, "port.rx_bytes", (p.rx_bytes for p in ports))
    _sum_into(registry, "port.lost_packets", (p.lost_packets for p in ports))
    _sum_into(
        registry,
        "port.queue_dropped_packets",
        (p.queue.stats.dropped_packets for p in ports),
    )
    _sum_into(
        registry,
        "port.queue_dropped_bytes",
        (p.queue.stats.dropped_bytes for p in ports),
    )
    _sum_into(
        registry,
        "port.queue_ecn_marked",
        (p.queue.stats.ecn_marked for p in ports),
    )
    occupancy = registry.histogram("port.queue_max_bytes")
    for port in ports:
        occupancy.observe(port.queue.stats.max_bytes)
    registry.gauge("port.max_queue_bytes").set(
        max((p.queue.stats.max_bytes for p in ports), default=0)
    )

    registry.counter("flows.arrivals").value = live.arrivals
    registry.counter("flows.completed").value = live.completed
    registry.counter("tcp.retransmissions").value = live.retransmissions
    registry.counter("tcp.timeouts").value = live.timeouts

    teps = [leaf.tep for leaf in live.fabric.leaves if leaf.tep is not None]
    _sum_into(registry, "feedback.sent", (t.feedback_sent for t in teps))
    _sum_into(registry, "feedback.received", (t.feedback_received for t in teps))
    _sum_into(registry, "feedback.lost", (t.feedback_lost for t in teps))
    _sum_into(registry, "overlay.encapsulated", (t.encapsulated for t in teps))
    _sum_into(registry, "overlay.decapsulated", (t.decapsulated for t in teps))

    selectors = [leaf.selector for leaf in live.fabric.leaves]
    tables = [getattr(s, "flowlets", None) for s in selectors]
    tables = [t for t in tables if t is not None]
    if tables:
        _sum_into(registry, "flowlet.created", (t.new_flowlets for t in tables))
        _sum_into(registry, "flowlet.expired", (t.expired_flowlets for t in tables))
        _sum_into(
            registry,
            "flowlet.decisions",
            (getattr(s, "decisions", 0) for s in selectors),
        )

    reroutes = sum(
        getattr(s, "fault_reroutes", 0) for s in live.fabric.selectors()
    )
    if reroutes:
        # Leaf- plus pod-spine-level decisions where fault awareness (not
        # congestion) steered the flowlet; only caft runs produce these.
        registry.counter("lb.caft.fault_reroutes").value = reroutes

    if live.imbalance is not None:
        imbalance = live.imbalance.snapshot()
        registry.counter("monitor.imbalance.samples").value = len(imbalance.samples)
        if imbalance.samples:  # a short run may never see a loaded window
            registry.gauge("monitor.imbalance.mean_percent").set(imbalance.mean_percent())
            registry.gauge("monitor.imbalance.p95_percent").set(imbalance.percentile(95.0))

    tracer = sim.tracer
    if tracer is not None:
        registry.counter("trace.emitted").value = tracer.emitted
        registry.counter("trace.retained").value = len(tracer)
        registry.counter("trace.dropped").value = tracer.dropped

    if live.timeline is not None:
        registry.counter("timeline.samples").value = live.timeline.samples
        registry.counter("timeline.retained").value = len(live.timeline)
        registry.counter("timeline.ports").value = len(live.timeline.port_names)

    return registry.snapshot()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSummary",
    "MetricsRegistry",
    "MetricsReport",
    "collect_run_metrics",
]
