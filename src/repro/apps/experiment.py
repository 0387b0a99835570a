"""High-level experiment harness used by examples and benchmarks.

Ties everything together: build a fabric, pick a scheme (which sets both the
fabric's uplink selector and the end-host transport), drive it with the
paper's workloads, and collect the evaluation's metrics.  The scheme
definitions mirror §5's comparison set:

* ``ecmp`` — static hashing, plain TCP;
* ``conga`` — CONGA with the default 500 µs flowlet timeout, plain TCP;
* ``conga-flow`` — CONGA with a 13 ms timeout (one decision per flow);
* ``caft`` — CONGA extended with liveness/residual-rate path weighting and
  accelerated stale-feedback re-probing (3-tier fault tolerance; pod
  spines also swap blind inter-pod ECMP for the weighted flowlet choice);
* ``mptcp`` — ECMP in the fabric, MPTCP with 8 subflows at the hosts;
* ``local`` — the local-congestion-aware strawman of §2.4;
* ``spray`` — per-packet round-robin spraying;
* ``dctcp`` — ECMP in the fabric, DCTCP at the hosts (pair with a config
  that sets ``ecn_threshold_bytes``, or the ECN-proportional backoff never
  engages and it degenerates to plain Reno).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.analysis.fct import FctSummary
from repro.analysis.monitors import QueueMonitor, ThroughputImbalanceMonitor
from repro.apps.traffic import (
    CrossRackTraffic,
    FlowFactory,
    dctcp_flow_factory,
    mptcp_flow_factory,
    tcp_flow_factory,
)
from repro.lb import (
    CaftSelector,
    CentralizedScheduler,
    CentralizedSelector,
    CongaFlowSelector,
    CongaSelector,
    EcmpSelector,
    LocalAwareSelector,
    PacketSpraySelector,
)
from repro.lb.caft import enable_fault_awareness
from repro.lb.base import SelectorFactory
from repro.obs.config import ObsSpec
from repro.sim import Simulator
from repro.switch.fabric import Fabric
from repro.topology.leafspine import LeafSpineConfig, build_leaf_spine, scaled_testbed
from repro.transport.tcp import FlowRecord, TcpParams
from repro.workloads.distributions import FlowSizeDistribution
from repro.units import milliseconds, seconds

if TYPE_CHECKING:
    from repro.faults.events import FaultEvent
    from repro.faults.injector import FaultInjector
    from repro.obs.timeline import Timeline
    from repro.topology.multipod import MultiPodConfig


@dataclass(frozen=True)
class SchemeSpec:
    """A named (fabric selector, host transport) combination.

    ``post_setup`` (optional) is invoked with (sim, fabric) after the
    fabric is finalized — used by schemes that need a control-plane agent,
    like the Hedera-style centralized scheduler.
    """

    name: str
    make_selector: Callable[[], SelectorFactory]
    make_flow_factory: Callable[[TcpParams], FlowFactory]
    post_setup: Callable[[Simulator, Fabric], object] | None = None


class UnknownSchemeError(ValueError):
    """Raised when a scheme name is not in the registry."""


#: The scheme registry.  Read through :func:`get_scheme` and write through
#: :func:`register_scheme`; the dict itself is kept public for backwards
#: compatibility with code that enumerates or mutates it directly.
SCHEMES: dict[str, SchemeSpec] = {}


def register_scheme(spec: SchemeSpec, *, replace: bool = False) -> SchemeSpec:
    """Add ``spec`` to the scheme registry under ``spec.name``.

    Registering a name that already exists raises unless ``replace=True``
    (benchmarks that re-register parameterized variants pass it).  Returns
    the spec so registration can be used inline.
    """
    if not replace and spec.name in SCHEMES:
        raise ValueError(
            f"scheme {spec.name!r} is already registered; "
            "pass replace=True to overwrite it"
        )
    SCHEMES[spec.name] = spec  # repro-lint: ignore[S203] -- the sanctioned write point
    return spec


def get_scheme(name: str) -> SchemeSpec:
    """Look up a registered scheme, with a helpful unknown-name error."""
    spec = SCHEMES.get(name)
    if spec is None:
        known = ", ".join(sorted(SCHEMES))
        raise UnknownSchemeError(
            f"unknown scheme {name!r}; registered schemes: {known}. "
            "Add new schemes with repro.apps.register_scheme(SchemeSpec(...))."
        )
    return spec


for _spec in (
    SchemeSpec("ecmp", EcmpSelector.factory, tcp_flow_factory),
    SchemeSpec("conga", CongaSelector.factory, tcp_flow_factory),
    SchemeSpec("conga-flow", CongaFlowSelector.factory, tcp_flow_factory),
    SchemeSpec(
        "caft",
        CaftSelector.factory,
        tcp_flow_factory,
        post_setup=enable_fault_awareness,
    ),
    SchemeSpec("mptcp", EcmpSelector.factory, mptcp_flow_factory),
    SchemeSpec("local", LocalAwareSelector.factory, tcp_flow_factory),
    SchemeSpec("spray", PacketSpraySelector.factory, tcp_flow_factory),
    SchemeSpec("dctcp", EcmpSelector.factory, dctcp_flow_factory),
    SchemeSpec(
        "hedera",
        lambda: CentralizedSelector,
        tcp_flow_factory,
        post_setup=lambda sim, fabric: CentralizedScheduler(sim, fabric),
    ),
):
    register_scheme(_spec)
del _spec


@dataclass
class ExperimentResult:
    """Everything a benchmark needs from one run."""

    scheme: str
    workload: str
    load: float
    records: list[FlowRecord]
    arrivals: int
    completed: int
    sim: Simulator
    fabric: Fabric
    imbalance: ThroughputImbalanceMonitor | None = None
    queues: QueueMonitor | None = None
    #: The fault injector driving this run's fault schedule (None when the
    #: spec had no faults); ``injector.applied`` logs what fired and when.
    injector: FaultInjector | None = None
    #: Sender-side loss-recovery totals over completed flows — the
    #: degradation counters the fault-plane analysis reports.
    retransmissions: int = 0
    timeouts: int = 0
    #: Frozen sim-time telemetry snapshot when the run's ``ObsSpec``
    #: carried a :class:`~repro.obs.timeline.TimelineSpec`; None otherwise.
    timeline: Timeline | None = None
    _summary: FctSummary | None = field(default=None, repr=False)

    @property
    def summary(self) -> FctSummary:
        """Lazily computed FCT summary over completed flows."""
        if self._summary is None:
            self._summary = FctSummary.from_records(self.records)
        return self._summary

    @property
    def unfinished(self) -> int:
        """Flows that arrived but did not finish before the deadline.

        A large value at high load is itself a result: it is how the
        paper's "network becomes unstable" regime (Fig. 11, ECMP past 50%
        load with a failed link) shows up.
        """
        return self.arrivals - self.completed


def execute_experiment(
    spec: SchemeSpec,
    workload: FlowSizeDistribution,
    load: float,
    *,
    config: LeafSpineConfig | MultiPodConfig | None = None,
    seed: int = 1,
    num_flows: int = 400,
    size_scale: float = 0.1,
    clients: list[int] | None = None,
    tcp_params: TcpParams = TcpParams(),
    failed_links: list[tuple[int, int, int]] | None = None,
    faults: tuple[FaultEvent, ...] = (),
    monitor_imbalance_leaf: int | None = None,
    imbalance_interval: int | None = None,
    monitor_queue_ports: Callable[[Fabric], list] | None = None,
    queue_interval: int | None = None,
    deadline: int = seconds(20),
    obs: ObsSpec | None = None,
) -> ExperimentResult:
    """Run one experiment point against a resolved :class:`SchemeSpec`.

    This is the single execution path under the declarative
    :class:`repro.apps.spec.ExperimentSpec` API; call it directly when a
    test needs live ``Simulator``/``Fabric`` access or callable monitor
    hooks that the picklable spec cannot carry.

    ``config`` selects the fabric: a :class:`LeafSpineConfig` builds the
    2-tier testbed, a :class:`~repro.topology.multipod.MultiPodConfig` the
    3-tier pods-plus-core fabric of §7 (where core-tier fault targets and
    the ``caft`` scheme's pod-spine weighting become meaningful).
    ``failed_links`` is a list of (leaf_id, spine_id, which) tuples failed
    before traffic starts — e.g. ``[(1, 1, 0)]`` reproduces Figure 7(b).
    ``faults`` is a schedule of :class:`repro.faults.FaultEvent` values: a
    :class:`~repro.faults.FaultInjector` applies time-0 events here as
    initial conditions (equivalent to ``failed_links`` for ``LinkDown``)
    and schedules the rest on the kernel, so degradation can arrive and
    clear mid-run.  ``monitor_imbalance_leaf`` attaches a Fig.-12-style
    monitor to that leaf's uplinks.  ``monitor_queue_ports`` selects ports
    for occupancy sampling (Fig. 11c / Fig. 16).
    """
    if config is None:
        config = scaled_testbed()
    sim = Simulator(seed=seed)
    if obs is not None:
        # Attach before any component is built so construction-time events
        # (e.g. time-0 fault applications) are captured too.
        sim.tracer = obs.make_tracer()
    imbalance = queues = timeline = injector = None
    try:
        if isinstance(config, LeafSpineConfig):
            fabric: Fabric = build_leaf_spine(sim, config)
        else:
            from repro.topology.multipod import build_multipod

            fabric = build_multipod(sim, config)
        fabric.finalize(spec.make_selector())
        if spec.post_setup is not None:
            spec.post_setup(sim, fabric)
        for leaf_id, spine_id, which in failed_links or []:
            fabric.fail_link(leaf_id, spine_id, which)
        # Construct the injector before monitors attach: time-0 faults are
        # initial conditions, and declarative monitor specs (which exclude down
        # ports) must resolve against the already-degraded fabric.  With an
        # empty schedule nothing is constructed, keeping fault-free runs
        # event-for-event identical to the pre-fault-plane kernel stream.
        if faults:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(sim, fabric, faults)

        if monitor_imbalance_leaf is not None:
            # Scaled-down runs are much shorter than the testbed's, so sample
            # every 1 ms by default instead of the paper's 10 ms windows.
            interval = imbalance_interval or milliseconds(1)
            imbalance = ThroughputImbalanceMonitor(
                sim, list(fabric.leaves[monitor_imbalance_leaf].uplinks), interval
            )
            imbalance.start()
        if monitor_queue_ports is not None:
            queues = QueueMonitor(
                sim, monitor_queue_ports(fabric), queue_interval or milliseconds(1)
            )
            queues.start()

        traffic = CrossRackTraffic(
            sim,
            fabric,
            workload,
            load,
            flow_factory=spec.make_flow_factory(tcp_params),
            num_flows=num_flows,
            size_scale=size_scale,
            clients=clients,
            on_all_done=sim.stop,
        )
        traffic.start()
        if obs is not None and obs.timeline is not None:
            # Constructed after traffic so goodput/RTO series can read its
            # stats; sampling is strictly read-only (see repro.obs.timeline),
            # so flow records stay bit-identical with the collector on or off.
            # start() above only scheduled arrivals: no port has transmitted,
            # so the collector may still require the congestion plane.
            from repro.obs.timeline import TimelineCollector

            timeline = TimelineCollector(
                sim, fabric, obs.timeline, traffic=traffic, injector=injector
            )
            timeline.start()
        sim.run(until=deadline)
    finally:
        # Also when construction or a callback raised: the stream handle
        # opened above must not outlive the run.
        for monitor in (imbalance, queues, timeline):
            if monitor is not None:
                monitor.stop()
        if sim.tracer is not None:
            # Flush/close the optional NDJSON stream sink; the in-memory
            # ring stays readable for snapshotting.
            sim.tracer.close()
    return ExperimentResult(
        scheme=spec.name,
        workload=workload.name,
        load=load,
        records=traffic.stats.records,
        arrivals=traffic.stats.arrivals,
        completed=traffic.stats.completed,
        sim=sim,
        fabric=fabric,
        imbalance=imbalance,
        queues=queues,
        injector=injector,
        retransmissions=traffic.stats.retransmissions,
        timeouts=traffic.stats.timeouts,
        timeline=timeline.snapshot() if timeline is not None else None,
    )


def compare_schemes(
    schemes: list[str],
    workload: FlowSizeDistribution,
    load: float,
    **kwargs,
) -> dict[str, ExperimentResult]:
    """Run several schemes on the identical scenario (same seed/workload)."""
    return {
        scheme: execute_experiment(get_scheme(scheme), workload, load, **kwargs)
        for scheme in schemes
    }


__all__ = [
    "ExperimentResult",
    "SCHEMES",
    "SchemeSpec",
    "UnknownSchemeError",
    "compare_schemes",
    "execute_experiment",
    "get_scheme",
    "register_scheme",
]
