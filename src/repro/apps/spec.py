"""Declarative experiment specifications: the one description of a point.

A point used to be described twice: by this spec and by a keyword-argument
runner whose callable monitor hook could not cross a process boundary or be
hashed for caching.  The runner is gone; a point is a value and
:meth:`ExperimentSpec.run_live` is the one body that executes it:

* :class:`ExperimentSpec` — a frozen, fully picklable description of one
  experiment point.  Schemes and workloads are referenced by registry
  *name*, topology by :class:`LeafSpineConfig` / ``MultiPodConfig``, and
  monitors by declarative :class:`QueueMonitorSpec` /
  :class:`ImbalanceMonitorSpec` values, and traffic by a
  :mod:`repro.apps.traffic` description.  ``spec.run_live()`` executes the
  point and keeps the simulator and fabric; ``spec.run()`` strips that to a
  :class:`PointResult`; ``spec.content_hash()`` is a stable content address
  used by the :mod:`repro.runner` result cache.
* :class:`PointResult` — everything a benchmark needs from one run, with no
  live ``Simulator``/``Fabric`` attached, so it pickles cleanly back from a
  worker process and into the on-disk cache.

Because every random draw in a run comes from a named per-``Simulator``
stream and all flow hashing is process-stable, ``spec.run()`` is a pure
function of the spec: the same spec yields bit-identical results whether it
runs inline, on one worker, or on sixteen.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass, replace
from importlib import import_module
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator, get_args

from repro.apps.traffic import IncastTraffic, PoissonTraffic, Traffic
from repro.core.params import HASH_NEUTRAL_DEFAULT
from repro.obs.config import ObsSpec
from repro.transport.tcp import TcpParams
from repro.units import milliseconds, seconds
from repro.workloads import WORKLOADS

if TYPE_CHECKING:
    from repro.analysis.degradation import DegradationSummary
    from repro.analysis.fct import FctSummary
    from repro.analysis.monitors import ImbalanceSeries, QueueSeries
    from repro.apps.experiment import ExperimentResult
    from repro.faults.events import FaultEvent
    from repro.net.port import Port
    from repro.obs.metrics import MetricsReport
    from repro.obs.timeline import Timeline, TimelineCollector, TimelineSpec
    from repro.obs.trace import TraceLog
    from repro.switch.fabric import Fabric
    from repro.topology.leafspine import LeafSpineConfig
    from repro.topology.multipod import MultiPodConfig
    from repro.transport.tcp import FlowRecord

#: What a run executes and a description never needs (DESIGN.md "Import
#: layering", moves 4 and 5): the selectors and through them the kernel and
#: congestion state (a scheme's name is description; its registry entry
#: imports them only when called); the topology builder and the nodes and
#: switches it imports when it builds; the FCT summary, the monitor views and
#: the metrics collector; the seeded streams.
_ENGINE = (
    "repro.apps.experiment",
    "repro.lb",
    "repro.topology.leafspine",
    "repro.net.node",
    "repro.switch.leaf",
    "repro.switch.spine",
    "repro.analysis.fct",
    "repro.analysis.monitors",
    "repro.obs.metrics",
    "repro.sim.pcg64",
)


def load_engine() -> None:
    """Import the modules a run executes; a no-op once they are loaded.

    Building, hashing, pickling or dispatching a spec loads no engine
    module.  :meth:`ExperimentSpec.run` calls this before it starts its
    clock, so ``wall_seconds`` times the run and not a cold import, and a
    forking backend calls it before ``fork`` so its workers start warm.
    """
    for name in _ENGINE:
        import_module(name)


class UnknownWorkloadError(ValueError):
    """Raised when a workload name is not in ``repro.workloads.WORKLOADS``."""


def get_workload(name: str):
    """Look up a workload distribution by registry name."""
    dist = WORKLOADS.get(name)
    if dist is None:
        known = ", ".join(sorted(WORKLOADS))
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; available workloads: {known}"
        )
    return dist


#: Dotted location of a refused value, e.g. ("failed_links", "0", "2").
_KeyPath = tuple[str, ...]


class _Refused(ValueError):
    """A refused value and its key path below whoever catches this."""

    def __init__(self, message: str, path: _KeyPath) -> None:
        super().__init__(message)
        self.path = path


def _at(path: _KeyPath, parse: Callable[[Any], Any], value: Any) -> Any:
    """``parse(value)``, with any refusal located under ``path``."""
    try:
        return parse(value)
    except _Refused as exc:
        raise _Refused(str(exc), path + exc.path) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise _Refused(str(exc), path) from exc


def _named_indices(
    spec: "ExperimentSpec",
) -> Iterator[tuple[str, int | None, _KeyPath, str]]:
    """Every (kind, index, field path, message suffix) a spec names.

    A ``None`` index names the tier without a member of it (a random core
    failure set) or an unset optional field.
    """
    for i, host in enumerate(spec.clients or ()):
        yield "client host", host, ("clients", str(i)), ""
    for i, link in enumerate(spec.failed_links):
        for j, kind in enumerate(("leaf", "spine", "parallel link")):
            yield kind, link[j], ("failed_links", str(i), str(j)), ""
    if spec.queue_monitor is not None:
        yield "leaf", spec.queue_monitor.leaf, ("queue_monitor", "leaf"), ""
        yield "spine", spec.queue_monitor.spine, ("queue_monitor", "spine"), ""
    if spec.imbalance_monitor is not None:
        yield "leaf", spec.imbalance_monitor.leaf, ("imbalance_monitor", "leaf"), ""
    if spec.faults:
        from repro.faults.events import FeedbackLoss, RandomLinkDowns, SwitchBlackout
    for i, event in enumerate(spec.faults):
        where, suffix = ("faults", str(i)), f" in fault {event!r}"
        if isinstance(event, RandomLinkDowns):
            if event.tier == "core":
                yield "core", None, where, suffix
        elif isinstance(event, SwitchBlackout):
            yield event.kind, event.switch, where, suffix
        elif isinstance(event, FeedbackLoss):
            yield "leaf", event.leaf, where, suffix
        else:  # the Link* family: leaf↔spine or (when .core is set) spine↔core
            if event.core is not None:
                yield "core", event.core, where, suffix
            else:
                yield "leaf", event.leaf, where, suffix
            yield "spine", event.spine, where, suffix
            yield "parallel link", event.which, where, suffix


def _leaf_spine_pairs(
    spec: "ExperimentSpec",
) -> Iterator[tuple[int, int, _KeyPath, str]]:
    """Every (leaf, spine, field path, message suffix) pair a spec names.

    The path locates the spine: on a multipod fabric it is the spine that
    can lie outside the leaf's pod.
    """
    for i, (leaf, spine, _which) in enumerate(spec.failed_links):
        yield leaf, spine, ("failed_links", str(i), "1"), ""
    monitor = spec.queue_monitor
    if monitor is not None and monitor.leaf is not None and monitor.spine is not None:
        yield monitor.leaf, monitor.spine, ("queue_monitor", "spine"), ""
    if spec.faults:
        from repro.faults.events import LinkDegrade, LinkDown, LinkLoss, LinkUp
    for i, event in enumerate(spec.faults):
        if isinstance(event, (LinkDown, LinkUp, LinkDegrade, LinkLoss)) and event.core is None:
            yield event.leaf, event.spine, ("faults", str(i)), f" in fault {event!r}"


def _check_targets(spec: "ExperimentSpec") -> None:
    """Refuse, at construction, every fabric member the spec's topology lacks.

    Also a core-tier target on 2 tiers, an incast ``fan_in`` without enough
    hosts and a ``random_downs`` count its tier cannot lose.
    """
    from repro.topology.leafspine import LeafSpineConfig, scaled_testbed

    config = spec.config if spec.config is not None else scaled_testbed()
    if isinstance(config, LeafSpineConfig):
        leaves, spines, cores = config.num_leaves, config.num_spines, 0
        uplinks = config.uplinks_per_leaf
    else:  # a MultiPodConfig: a leaf's uplinks reach its own pod's spines
        leaves = config.num_pods * config.leaves_per_pod
        spines = config.num_pods * config.spines_per_pod
        cores = config.num_cores
        uplinks = config.spines_per_pod * config.links_per_pair
    limits = {
        "client host": leaves * config.hosts_per_leaf,
        "leaf": leaves,
        "spine": spines,
        "core": cores,
        "parallel link": config.links_per_pair,
    }
    traffic = spec.traffic
    if isinstance(traffic, IncastTraffic) and traffic.fan_in >= limits["client host"]:
        raise _Refused(
            f"fan_in {traffic.fan_in} needs more hosts besides the client than "
            f"this topology's {limits['client host'] - 1}",
            ("traffic", "incast", "fan_in"),
        )
    for kind, index, where, suffix in _named_indices(spec):
        if kind == "core" and cores == 0:
            raise _Refused(
                "core-tier fault targets need a multipod topology "
                f"(this scenario compiles a 2-tier fabric){suffix}",
                where,
            )
        if index is not None and not 0 <= index < limits[kind]:
            raise _Refused(
                f"{kind} {index} out of range for this topology "
                f"(0..{limits[kind] - 1}){suffix}",
                where,
            )
    if cores:  # a leaf's uplinks reach its own pod's spines only
        per_pod = config.spines_per_pod
        for leaf, spine, where, suffix in _leaf_spine_pairs(spec):
            first = leaf // config.leaves_per_pod * per_pod
            if not first <= spine < first + per_pod:
                raise _Refused(
                    f"spine {spine} is not in leaf {leaf}'s pod on this topology "
                    f"(its spines are {first}..{first + per_pod - 1}){suffix}",
                    where,
                )
    if not spec.faults:
        return
    from repro.faults.events import RandomLinkDowns

    # fail_random_links keeps one up link on each near-side switch (a
    # leaf's spine uplinks, a pod spine's core uplinks).  Links a fault
    # earlier in the schedule takes down are the run's to refuse.
    down = Counter(leaf for leaf, _spine, _which in set(spec.failed_links))
    spare = {
        "leaf": sum(max(0, uplinks - down[leaf] - 1) for leaf in range(leaves)),
        "core": spines * (cores * config.links_per_pair - 1),
    }
    for i, event in enumerate(spec.faults):
        if isinstance(event, RandomLinkDowns) and event.count > spare[event.tier]:
            raise _Refused(
                f"count {event.count} exceeds the {spare[event.tier]} "
                f"{event.tier}-tier links this topology can fail without "
                f"disconnecting a switch from its uplink tier in fault {event!r}",
                ("faults", str(i)),
            )


@dataclass(frozen=True)
class QueueMonitorSpec:
    """Declarative port selection for queue-occupancy sampling.

    A value, so it hashes and pickles with the spec.  ``tier`` picks which
    side of the fabric links to sample:

    * ``"spine"`` — spine→leaf downlink ports (Fig. 11c's hotspot view),
      optionally restricted to one ``spine`` and/or the ports facing one
      ``leaf``;
    * ``"leaf"`` — leaf→spine uplink ports, optionally restricted to one
      ``leaf`` and/or the ports facing one ``spine``;
    * ``"fabric"`` — every fabric port in both directions (Fig. 16); it
      takes no ``leaf`` or ``spine``.

    ``direction`` is implied by the tier (spine ports point down, leaf
    uplinks point up, the fabric tier samples both) and is filled in from
    it when omitted; a caller may still spell it out for readability, e.g.
    ``QueueMonitorSpec(tier="spine", direction="down", spine=1, leaf=1)``,
    and a direction that contradicts the tier is refused.
    Failed ports are excluded, matching how the figures monitor surviving
    hotspot links.  An index names a member of its tier (negative ones do
    not wrap).
    """

    tier: str = "spine"
    direction: str | None = None
    leaf: int | None = None
    spine: int | None = None
    interval: int = field(default_factory=lambda: milliseconds(1))

    _DIRECTIONS = {"spine": "down", "leaf": "up", "fabric": "both"}

    def __post_init__(self) -> None:
        expected = self._DIRECTIONS.get(self.tier)
        if expected is None:
            raise ValueError(
                f"tier must be one of {sorted(self._DIRECTIONS)}, got {self.tier!r}"
            )
        if self.direction is None:
            object.__setattr__(self, "direction", expected)
        elif self.direction != expected:
            raise ValueError(
                f"tier {self.tier!r} samples {expected!r} ports, "
                f"not {self.direction!r}"
            )
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.tier == "fabric" and (self.leaf, self.spine) != (None, None):
            raise ValueError("tier 'fabric' samples every port; it takes no leaf or spine")

    def resolve(self, fabric: "Fabric") -> list["Port"]:
        """Materialize the selected ports on a built fabric."""
        leaf = None if self.leaf is None else fabric._switch("leaf", self.leaf)
        spine = None if self.spine is None else fabric._switch("spine", self.spine)
        ports: list[Port] = []
        if self.tier == "fabric":
            ports = [port for port in fabric.fabric_ports() if port.up]
        elif self.tier == "spine":
            for switch in fabric.spines if spine is None else [spine]:
                facing = switch.ports if leaf is None else switch.egress_ports(self.leaf)
                core_facing = switch.core_uplinks()
                ports.extend(
                    port for port in facing if port.up and port not in core_facing
                )
        else:  # leaf uplinks
            for switch in fabric.leaves if leaf is None else [leaf]:
                ports.extend(
                    port
                    for port, above in zip(switch.uplinks, switch.uplink_spine)
                    if port.up and (spine is None or above is spine)
                )
        if not ports:
            raise ValueError(f"{self!r} selected no live ports on this fabric")
        return ports

    @property
    def sampler(self) -> "TimelineSpec":
        """The timeline this monitor's :class:`QueueSeries` is cut from."""
        return _sampler(self.interval)


@dataclass(frozen=True)
class ImbalanceMonitorSpec:
    """Declarative Fig.-12-style throughput-imbalance monitor on one leaf.

    ``interval`` of ``None`` keeps the scaled-run default (1 ms windows
    instead of the paper's 10 ms, as scaled-down runs are much shorter
    than the testbed's).
    """

    leaf: int = 0
    interval: int | None = None

    def __post_init__(self) -> None:
        if self.interval is not None and self.interval <= 0:
            raise ValueError("interval must be positive")

    def resolve(self, fabric: "Fabric") -> list["Port"]:
        """The monitored leaf's uplinks, failed ones included."""
        ports = list(fabric._switch("leaf", self.leaf).uplinks)
        if len(ports) < 2:
            raise ValueError("imbalance needs at least two ports")
        return ports

    @property
    def sampler(self) -> "TimelineSpec":
        """The timeline this monitor's :class:`ImbalanceSeries` is cut from."""
        return _sampler(self.interval or milliseconds(1))


def _sampler(interval: int) -> "TimelineSpec":
    """A monitor's timeline: its cadence, ``DEFAULT_SERIES_LIMIT`` samples kept."""
    from repro.core.series import DEFAULT_SERIES_LIMIT
    from repro.obs.timeline import TimelineSpec

    return TimelineSpec(interval=interval, limit=DEFAULT_SERIES_LIMIT)


def _canonical(value):
    """Reduce a spec value to plain JSON-able data, stably."""
    if is_dataclass(value) and not isinstance(value, type):
        payload = {
            f.name: _canonical(getattr(value, f.name))
            for f in fields(value)
            if not (
                f.metadata.get("hash_neutral_default")
                and getattr(value, f.name) == f.default
            )
        }
        payload["__type__"] = type(value).__name__
        return payload
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for content hashing"
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """A frozen, serializable description of one (scheme, workload, load) point.

    Every field is a value — names, numbers, tuples, frozen dataclasses —
    so a spec can be pickled to a worker process, compared for equality,
    and content-hashed for the result cache.  ``clients`` and
    ``failed_links`` accept any iterable and are normalized to tuples.
    """

    scheme: str
    workload: str
    load: float
    seed: int = 1
    num_flows: int = 400
    size_scale: float = 0.1
    clients: tuple[int, ...] | None = None
    config: LeafSpineConfig | MultiPodConfig | None = None
    tcp_params: TcpParams = field(default_factory=TcpParams)
    failed_links: tuple[tuple[int, int, int], ...] = ()
    #: Scheduled fault events (see :mod:`repro.faults`) — part of the spec,
    #: so fault scenarios sweep, cache, and hash like everything else.
    faults: tuple[FaultEvent, ...] = ()
    queue_monitor: QueueMonitorSpec | None = None
    imbalance_monitor: ImbalanceMonitorSpec | None = None
    deadline: int = field(default_factory=lambda: seconds(20))
    #: Observability knob (see :mod:`repro.obs`).  ``None`` — the default —
    #: disables tracing and is *content-hash-neutral*: a spec without
    #: ``obs`` hashes identically to one predating the field, so existing
    #: caches stay valid and tracing can never change what gets computed.
    obs: ObsSpec | None = field(default=None, metadata=HASH_NEUTRAL_DEFAULT)
    #: How the hosts generate flows (see :mod:`repro.apps.traffic`).  The
    #: default — Poisson arrivals over ``workload`` — is content-hash-neutral
    #: like ``obs``: a spec carrying it hashes as if the field did not exist.
    traffic: Traffic = field(default=PoissonTraffic(), metadata=HASH_NEUTRAL_DEFAULT)

    def __post_init__(self) -> None:
        for name in ("load", "size_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.num_flows < 1:
            raise ValueError(f"need at least one flow, got {self.num_flows}")
        if self.clients is not None:
            object.__setattr__(self, "clients", tuple(self.clients))
            if not self.clients:
                raise _Refused(
                    "clients must name at least one host (omit it for every host)",
                    ("clients",),
                )
        object.__setattr__(
            self,
            "failed_links",
            tuple(tuple(link) for link in self.failed_links),
        )
        object.__setattr__(self, "faults", tuple(self.faults))
        if not isinstance(self.traffic, get_args(Traffic)):
            raise TypeError(
                f"traffic must be a repro.apps.traffic description, got {self.traffic!r}"
            )
        if self.faults:
            from repro.faults.events import FaultEvent

            for event in self.faults:
                if not isinstance(event, FaultEvent):
                    raise TypeError(
                        f"faults must be FaultEvent values, got {event!r}; "
                        "parse CLI strings with repro.faults.parse_fault first"
                    )
        named = (
            self.clients, self.failed_links, self.faults,
            self.queue_monitor, self.imbalance_monitor,
        )
        if any(named) or isinstance(self.traffic, IncastTraffic):
            _check_targets(self)

    # -- identity -----------------------------------------------------------

    def content_hash(self) -> str:
        """Stable content address of this spec + the package version.

        Identical specs hash identically across processes and sessions;
        any field change — or a new ``repro`` release, which may change
        simulation behaviour — changes the hash, which is what keys the
        :mod:`repro.runner` on-disk cache.
        """
        from repro import __version__

        payload = _canonical(self)
        if "obs" in payload:
            # trace_path never participates: it is an output sink, not an
            # input (see ObsSpec docstring).
            payload["obs"].pop("trace_path")
        payload["__repro_version__"] = __version__
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def label(self) -> str:
        """Short human-readable point label for progress lines and tables.

        Incast and HDFS traffic read no workload or load, so their points
        are labelled by the traffic description instead.
        """
        if not isinstance(self.traffic, PoissonTraffic):
            return f"{self.scheme} {self.traffic!r} seed={self.seed}"
        return (
            f"{self.scheme} {self.workload} load={self.load:g} seed={self.seed}"
        )

    def with_(self, **changes) -> "ExperimentSpec":
        """A copy with the given fields replaced (sweep-building helper)."""
        return replace(self, **changes)

    # -- execution ----------------------------------------------------------

    def run_live(self) -> ExperimentResult:
        """Execute and return the live result (simulator, fabric, views).

        The one body that runs a point: build the fabric (marking at the
        scheme's ECN threshold when the topology sets none), finalize it,
        run the scheme's ``post_setup``, fail ``failed_links``, construct
        the fault injector, resolve the monitored ports, attach the traffic
        and one timeline collector per distinct sampler (the ``obs``
        timeline's and the monitors'), run, cut the monitor views from the
        collectors' timelines, and always close the tracer.  Not picklable;
        use :meth:`run` for anything that crosses a process boundary.
        """
        from repro.analysis.monitors import ImbalanceSeries, QueueSeries
        from repro.apps.experiment import ExperimentResult, get_scheme
        from repro.sim import Simulator
        from repro.topology.leafspine import LeafSpineConfig, build_leaf_spine, scaled_testbed

        scheme = get_scheme(self.scheme)
        workload = get_workload(self.workload)
        config = self.config if self.config is not None else scaled_testbed()
        if config.ecn_threshold_bytes is None and scheme.ecn_threshold_bytes is not None:
            config = replace(config, ecn_threshold_bytes=scheme.ecn_threshold_bytes)
        sim = Simulator(seed=self.seed)
        if self.obs is not None:
            # Attach before any component is built so construction-time events
            # (e.g. time-0 fault applications) are captured too.
            sim.tracer = self.obs.make_tracer()
        monitors = (self.imbalance_monitor, self.queue_monitor)
        samplers = [m.sampler for m in monitors if m is not None]
        timeline = self.obs.timeline if self.obs is not None else None
        if timeline is not None:
            samplers.append(timeline)
        collectors: dict[TimelineSpec, TimelineCollector] = {}
        injector = None
        try:
            if isinstance(config, LeafSpineConfig):
                fabric = build_leaf_spine(sim, config)
            else:
                from repro.topology.multipod import build_multipod

                fabric = build_multipod(sim, config)
            fabric.finalize(scheme.make_selector())
            if scheme.post_setup is not None:
                scheme.post_setup(sim, fabric)
            for leaf_id, spine_id, which in self.failed_links:
                fabric.fail_link(leaf_id, spine_id, which)
            # Construct the injector before monitors resolve: time-0 faults are
            # initial conditions, and monitor specs (which exclude down ports)
            # must resolve against the already-degraded fabric.  With an empty
            # schedule nothing is constructed, keeping fault-free runs
            # event-for-event identical to the pre-fault-plane kernel stream.
            if self.faults:
                from repro.faults.injector import FaultInjector

                injector = FaultInjector(sim, fabric, self.faults)
            imbalance_ports, queue_ports = (
                None if m is None else [port.name for port in m.resolve(fabric)]
                for m in monitors
            )
            traffic = self.traffic.attach(sim, fabric, self, scheme, workload)
            traffic.stats.on_drained = sim.stop
            traffic.start()
            if samplers:
                # Constructed after traffic so goodput/RTO series can read its
                # ledger; sampling is strictly read-only (see repro.obs.timeline),
                # so flow records stay bit-identical with a collector on or
                # off.
                from repro.obs.timeline import TimelineCollector

                for sampler in dict.fromkeys(samplers):
                    collectors[sampler] = TimelineCollector(
                        sim, fabric, sampler, stats=traffic.stats, injector=injector
                    )
                    collectors[sampler].start()
            sim.run(until=self.deadline)
        finally:
            # Also when construction or a callback raised: the stream handle
            # opened above must not outlive the run.
            for collector in collectors.values():
                collector.stop()
            if sim.tracer is not None:
                # Flush/close the optional NDJSON stream sink; the in-memory
                # ring stays readable for snapshotting.
                sim.tracer.close()
        timelines = {sampler: c.snapshot() for sampler, c in collectors.items()}
        imbalance_series = queue_series = None
        if imbalance_ports is not None:
            imbalance_series = ImbalanceSeries.from_timeline(
                timelines[self.imbalance_monitor.sampler], imbalance_ports
            )
        if queue_ports is not None:
            queue_series = QueueSeries.from_timeline(
                timelines[self.queue_monitor.sampler], queue_ports
            )
        return ExperimentResult(
            scheme=scheme.name,
            workload=workload.name,
            load=self.load,
            records=traffic.stats.records,
            arrivals=traffic.stats.arrivals,
            completed=traffic.stats.completed,
            sim=sim,
            fabric=fabric,
            imbalance_series=imbalance_series,
            queue_series=queue_series,
            injector=injector,
            retransmissions=traffic.stats.retransmissions,
            timeouts=traffic.stats.timeouts,
            timeline=timelines.get(timeline),
        )

    def run(self) -> "PointResult":
        """Execute this point and return a picklable :class:`PointResult`."""
        load_engine()
        started = perf_counter()  # repro-lint: ignore[D101] -- wall_seconds is reporting only
        live = self.run_live()
        wall = perf_counter() - started  # repro-lint: ignore[D101] -- reporting only
        return PointResult.from_live(self, live, wall_seconds=wall)


@dataclass(frozen=True)
class PointResult:
    """Everything a benchmark needs from one run — and nothing live.

    Unlike :class:`ExperimentResult` this carries no ``Simulator`` or
    ``Fabric``, so it crosses the worker pipe and lives in the on-disk
    cache.  Monitor outputs come as frozen timeline views; fabric-side
    aggregates that benchmarks read (drops, peak queue depth) are captured
    as scalars before the fabric is dropped.
    """

    spec: ExperimentSpec
    summary: FctSummary | None
    records: tuple[FlowRecord, ...]
    arrivals: int
    completed: int
    fabric_drops: int
    fabric_max_queue_bytes: int
    end_time: int
    events_executed: int
    wall_seconds: float
    queue_series: QueueSeries | None = None
    imbalance_series: ImbalanceSeries | None = None
    retransmissions: int = 0
    timeouts: int = 0
    #: Peak per-tier capacity asymmetry the run's fault schedule produced,
    #: as sorted (tier, fraction) pairs from
    #: :meth:`repro.faults.FaultInjector.tier_asymmetry`; empty for
    #: fault-free runs.
    tier_asymmetry: tuple[tuple[str, float], ...] = ()
    from_cache: bool = False
    #: Frozen metrics snapshot of the run (kernel/port/tcp/... counters
    #: under dotted names); always populated for fresh runs.
    metrics: MetricsReport | None = None
    #: Trace snapshot when the spec carried an :class:`ObsSpec`; None for
    #: untraced runs.
    trace: TraceLog | None = None
    #: Sim-time telemetry snapshot when the spec's ``ObsSpec`` carried a
    #: :class:`~repro.obs.timeline.TimelineSpec`; None otherwise.
    timeline: Timeline | None = None

    @staticmethod
    def from_live(
        spec: ExperimentSpec,
        live: ExperimentResult,
        *,
        wall_seconds: float,
    ) -> "PointResult":
        """Strip a live :class:`ExperimentResult` down to picklable values."""
        from repro.analysis.fct import FctSummary
        from repro.obs.metrics import collect_run_metrics

        max_queue = max(
            (p.queue.stats.max_bytes for p in live.fabric.fabric_ports()),
            default=0,
        )
        return PointResult(
            spec=spec,
            summary=FctSummary.from_records(live.records) if live.records else None,
            records=tuple(live.records),
            arrivals=live.arrivals,
            completed=live.completed,
            fabric_drops=live.fabric.total_fabric_drops(),
            fabric_max_queue_bytes=max_queue,
            end_time=live.sim.now,
            events_executed=live.sim.events_executed,
            wall_seconds=wall_seconds,
            queue_series=live.queue_series,
            imbalance_series=live.imbalance_series,
            retransmissions=live.retransmissions,
            timeouts=live.timeouts,
            tier_asymmetry=(
                live.injector.tier_asymmetry()
                if live.injector is not None
                else ()
            ),
            metrics=collect_run_metrics(live),
            trace=(
                live.sim.tracer.snapshot() if live.sim.tracer is not None else None
            ),
            timeline=live.timeline,
        )

    @property
    def scheme(self) -> str:
        """Scheme name (mirrors :class:`ExperimentResult`)."""
        return self.spec.scheme

    @property
    def workload(self) -> str:
        """Workload name (mirrors :class:`ExperimentResult`)."""
        return self.spec.workload

    @property
    def load(self) -> float:
        """Offered load (mirrors :class:`ExperimentResult`)."""
        return self.spec.load

    @property
    def unfinished(self) -> int:
        """Flows that arrived but did not finish before the deadline."""
        return self.arrivals - self.completed

    @property
    def events_per_sec(self) -> float:
        """Simulator event throughput of this point's execution."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_executed / self.wall_seconds

    def degradation(
        self,
        *,
        bin_width: int | None = None,
        recovery_fraction: float = 0.9,
    ) -> DegradationSummary:
        """Degradation metrics across this point's fault window.

        Brackets the degraded interval with
        :func:`repro.faults.fault_window` over the spec's fault schedule
        and summarizes goodput before/during/after plus post-restore
        recovery time (see :class:`repro.analysis.DegradationSummary`).
        Raises when the spec has no degrading faults — there is no window
        to analyze.
        """
        from repro.analysis.degradation import DegradationSummary
        from repro.faults.events import fault_window

        window = fault_window(self.spec.faults)
        if window is None:
            raise ValueError(
                f"spec {self.spec.label()!r} has no degrading faults"
            )
        start, end = window
        kwargs = {} if bin_width is None else {"bin_width": bin_width}
        return DegradationSummary.from_records(
            self.records,
            window_start=start,
            window_end=end,
            end_time=self.end_time,
            retransmissions=self.retransmissions,
            timeouts=self.timeouts,
            tier_asymmetry=self.tier_asymmetry,
            recovery_fraction=recovery_fraction,
            **kwargs,
        )


__all__ = [
    "ExperimentSpec",
    "ImbalanceMonitorSpec",
    "PointResult",
    "QueueMonitorSpec",
    "UnknownWorkloadError",
    "get_workload",
    "load_engine",
]
