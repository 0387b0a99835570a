"""The congestion plane runs only when something reads it.

DESIGN.md "Congestion plane on demand": DRE hooks, CE stamping and the
leaf-to-leaf feedback loop are switched on by their readers through
``Fabric.require_congestion_plane()`` and stay off under schemes whose
selector declares ``reads_congestion = False``.  Three things are pinned:

* **nobody reads it** — for every registered oblivious scheme the flow
  records, the kernel's event count and every port's packet count are the
  same with the plane forced on and left off, faults included;
* **whoever reads it gets it** — every reader switches it on, and one that
  arrives after unmeasured traffic is refused instead of fed zeros; an
  observer (a timeline, and so a queue or imbalance monitor) is no reader:
  it samples DREs only when the plane already runs;
* **off is visible** — feedback counters read 0, a ``FeedbackLoss`` fault
  is logged and does nothing, reports render.
"""

import dataclasses

import pytest

from repro.analysis import sweep_report
from repro.analysis.fct import records_digest
from repro.apps import (
    SCHEMES,
    ExperimentSpec,
    ImbalanceMonitorSpec,
    ObsSpec,
    QueueMonitorSpec,
    TrafficStats,
    get_scheme,
    register_scheme,
)
from repro.faults import FeedbackLoss, LinkDegrade
from repro.lb import CongaSelector, EcmpSelector
from repro.lb.caft import CaftCoreSelector
from repro.obs import TimelineCollector, TimelineSpec
from repro.sim import Simulator
from repro.switch import CongestionPlaneError
from repro.topology import build_leaf_spine, scaled_testbed
from repro.topology.multipod import MultiPodConfig, build_multipod
from repro.transport import UdpSink, UdpSource
from repro.units import gbps, megabytes, microseconds

OBLIVIOUS = ("dctcp", "ecmp", "hedera", "mptcp", "spray")
READERS = ("caft", "conga", "conga-flow", "local")

TOPOLOGIES = {"leafspine": scaled_testbed, "multipod": MultiPodConfig}

#: A brownout on a leaf uplink and a lossy feedback channel over the busy
#: middle of the run: the two faults that touch DREs and TEPs.
FAULTS = (
    LinkDegrade(time=microseconds(200), leaf=1, spine=1, fraction=0.25),
    FeedbackLoss(time=microseconds(200), probability=0.5, duration=microseconds(400)),
    LinkDegrade(time=microseconds(700), leaf=1, spine=1, fraction=1.0),
)

#: Every observer a spec can ask for, each on its own collector.
MONITORED = {
    "queue_monitor": QueueMonitorSpec(
        tier="fabric", direction="both", interval=microseconds(20)
    ),
    "imbalance_monitor": ImbalanceMonitorSpec(interval=microseconds(50)),
    "obs": ObsSpec(categories=(), timeline=TimelineSpec(interval=microseconds(30))),
}


def _hooked(fabric) -> list[bool]:
    return [port.dre.measure in port.on_transmit for port in fabric.fabric_ports()]


def _all_ports(fabric):
    nodes = [
        *fabric.leaves, *fabric.spines, *getattr(fabric, "cores", ()),
        *fabric.hosts.values(),
    ]
    return [port for node in nodes for port in node.ports]


def _run(scheme: str, *, force_plane: bool = False, **kwargs):
    if force_plane:
        spec = get_scheme(scheme)

        def post_setup(sim, fabric, inner=spec.post_setup):
            fabric.require_congestion_plane()
            if inner is not None:
                inner(sim, fabric)

        scheme = f"{scheme}+plane"
        register_scheme(
            dataclasses.replace(spec, name=scheme, post_setup=post_setup), replace=True
        )
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("num_flows", 40)
    kwargs.setdefault("size_scale", 0.03)
    return ExperimentSpec(scheme, "enterprise", 0.6, **kwargs).run_live()


def _udp_burst(sim, fabric):
    """Cross-leaf UDP, run until fabric ports have transmitted."""
    dst = max(fabric.hosts)
    UdpSink(fabric.host(dst), flow_id=1)
    UdpSource(sim, fabric.host(0), dst, megabytes(1), gbps(5), flow_id=1).start()
    sim.run(until=microseconds(200))
    assert any(port.tx_packets for port in fabric.fabric_ports())


def _ecmp_fabric(seed=1):
    sim = Simulator(seed=seed)
    fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
    fabric.finalize(EcmpSelector.factory())
    return sim, fabric


class TestWhoSwitchesItOn:
    def test_every_builtin_scheme_is_classified(self):
        # (Other test modules register process-local schemes of their own.)
        assert set(OBLIVIOUS + READERS) <= set(SCHEMES)
        assert not set(OBLIVIOUS) & set(READERS)

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("scheme", OBLIVIOUS + READERS)
    def test_plane_follows_the_scheme(self, scheme, topology):
        live = _run(scheme, config=TOPOLOGIES[topology](), num_flows=5)
        fabric = live.fabric
        reads = scheme in READERS
        assert fabric.congestion_plane is reads
        # Every fabric port keeps its DRE object; only the hook is demand-driven.
        assert _hooked(fabric) == [reads] * len(list(fabric.fabric_ports()))
        assert all(leaf.tep.feedback_loop is reads for leaf in fabric.leaves)
        assert all(leaf.tep.encapsulated > 0 for leaf in fabric.leaves)
        fed_back = sum(leaf.tep.feedback_sent for leaf in fabric.leaves)
        assert (fed_back > 0) is reads

    def test_requiring_twice_hooks_once(self):
        _sim, fabric = _ecmp_fabric()
        fabric.require_congestion_plane()
        fabric.require_congestion_plane()
        assert all(port.on_transmit == [port.dre.measure] for port in fabric.fabric_ports())

    def test_one_reading_leaf_switches_on_the_whole_fabric(self):
        sim = Simulator(seed=19)
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
        fabric.leaves[1].finalize(EcmpSelector.factory())
        assert not fabric.congestion_plane
        fabric.leaves[0].finalize(CongaSelector.factory())
        assert all(_hooked(fabric))
        assert all(leaf.tep.feedback_loop for leaf in fabric.leaves)

    def test_dre_or_table_tracer_is_a_reader(self):
        for categories, reads in ((("dre",), True), (("table",), True), (("tcp", "drop"), False)):
            live = _run("ecmp", num_flows=5, obs=ObsSpec(categories=categories))
            assert live.fabric.congestion_plane is reads

    def test_fault_aware_pod_spines_are_readers(self):
        sim = Simulator(seed=1)
        fabric = build_multipod(sim, MultiPodConfig())
        fabric.finalize(EcmpSelector.factory())
        CaftCoreSelector(fabric.spines[0])
        assert fabric.congestion_plane


class TestNobodyReadsIt:
    """Plane forced on vs left off: the proof the skipped work was unread."""

    @pytest.mark.parametrize(
        "extra", [{}, {"faults": FAULTS}, MONITORED], ids=["fault-free", "faulted", "monitored"]
    )
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("scheme", OBLIVIOUS)
    def test_records_events_and_packets_identical(self, scheme, topology, extra):
        faults = extra.get("faults", ())
        outcomes = []
        for force_plane in (True, False):
            live = _run(
                scheme, force_plane=force_plane, config=TOPOLOGIES[topology](), **extra
            )
            fabric = live.fabric
            assert fabric.congestion_plane is force_plane
            assert live.completed == live.arrivals == 40
            # The run outlasts the schedule (no injector without faults).
            assert len(live.injector.applied if faults else ()) == len(faults)
            feedback = [
                sum(getattr(leaf.tep, f"feedback_{kind}") for leaf in fabric.leaves)
                for kind in ("sent", "received", "lost")
            ]
            assert (feedback[0] > 0) is force_plane
            if not force_plane:
                assert feedback == [0, 0, 0]
            if live.timeline is not None:
                # Monitors and the timeline observe the plane, never start it.
                assert bool(live.timeline.dre) is force_plane
                assert all(live.queue_series.samples.values()) and live.imbalance_series.samples
            outcomes.append((
                records_digest(live.records),
                live.sim.events_executed,
                [port.tx_packets for port in _all_ports(fabric)],
                live.queue_series,
                live.imbalance_series,
            ))
        assert outcomes[0] == outcomes[1]

    def test_reader_declaring_no_reads_is_caught_not_fed_zeros(self):
        class Sneaky(EcmpSelector):
            """Inherits ``reads_congestion = False`` and reads a DRE anyway."""

            def choose_uplink(self, packet, dst_leaf, candidates):
                return min(candidates, key=self.leaf.local_metric)

        register_scheme(
            dataclasses.replace(get_scheme("ecmp"), name="sneaky", make_selector=lambda: Sneaky),
            replace=True,
        )
        with pytest.raises(AssertionError, match="reads_congestion"):
            _run("sneaky", num_flows=5)
        sim, fabric = _ecmp_fabric()
        for read in ("to_leaf_table", "from_leaf_table"):
            with pytest.raises(AssertionError, match="reads_congestion"):
                getattr(fabric.leaves[0], read)


class TestLateReadersAreRefused:
    def test_require_after_unmeasured_traffic_raises(self):
        sim, fabric = _ecmp_fabric()
        _udp_burst(sim, fabric)
        with pytest.raises(CongestionPlaneError, match="already transmitted"):
            fabric.require_congestion_plane()
        assert not fabric.congestion_plane and not any(_hooked(fabric))

    def test_require_after_measured_traffic_is_a_no_op(self):
        sim, fabric = _ecmp_fabric()
        fabric.require_congestion_plane()
        _udp_burst(sim, fabric)
        fabric.require_congestion_plane()

    @pytest.mark.parametrize("after_traffic", [False, True], ids=["before", "after"])
    def test_a_collector_leaves_a_plane_off_fabric_off(self, after_traffic):
        sim, fabric = _ecmp_fabric()
        if after_traffic:
            _udp_burst(sim, fabric)
        collector = TimelineCollector(sim, fabric, TimelineSpec(), stats=TrafficStats())
        collector.start()
        if not after_traffic:
            _udp_burst(sim, fabric)
        sim.run(until=microseconds(400))
        assert not fabric.congestion_plane and not any(_hooked(fabric))
        timeline = collector.snapshot()
        assert timeline.samples > 0 and timeline.dre == {}

    def test_a_collector_samples_a_running_plane(self):
        sim, fabric = _ecmp_fabric()
        fabric.require_congestion_plane()
        collector = TimelineCollector(sim, fabric, TimelineSpec(), stats=TrafficStats())
        collector.start()
        _udp_burst(sim, fabric)
        dre = collector.snapshot().dre
        assert list(dre) == [port.name for port in fabric.fabric_ports()]
        assert max(max(series) for series in dre.values()) > 0

    def test_explicit_feedback_requires_the_plane(self):
        sim, fabric = _ecmp_fabric()
        fabric.leaves[1].enable_explicit_feedback(microseconds(100))
        assert fabric.congestion_plane
        _udp_burst(sim, fabric)
        sim.run(until=microseconds(600))
        # One-way UDP: only explicit feedback can have carried CE back.
        assert fabric.leaves[1].explicit_feedback_sent > 0
        assert fabric.leaves[0].tep.feedback_received > 0

        sim, fabric = _ecmp_fabric()
        _udp_burst(sim, fabric)
        with pytest.raises(CongestionPlaneError):
            fabric.leaves[1].enable_explicit_feedback(microseconds(100))
        assert fabric.leaves[1]._feedback_timer is None


class TestOffIsVisible:
    def test_feedback_loss_is_logged_and_does_nothing(self):
        fault = FeedbackLoss(time=microseconds(100), probability=0.5)
        live = _run("ecmp", faults=(fault,))
        assert [event for _when, event in live.injector.applied] == [fault]
        assert sum(leaf.tep.feedback_lost for leaf in live.fabric.leaves) == 0
        # The fault's stream exists and is untouched: its next draw is the
        # first draw of the same stream in a fresh simulator.
        for leaf in live.fabric.leaves:
            stream = f"feedback-loss:leaf{leaf.leaf_id}"
            assert live.sim.rng(stream).random() == Simulator(seed=7).rng(stream).random()

    def test_metrics_and_reports_render_zero_feedback(self):
        point = ExperimentSpec(
            "ecmp", "enterprise", load=0.6, seed=7, num_flows=20, size_scale=0.03,
            obs=ObsSpec(categories=("tcp",)),
        ).run()
        counters = point.metrics.counters
        assert [counters[f"feedback.{kind}"] for kind in ("sent", "received", "lost")] == [0, 0, 0]
        assert counters["overlay.encapsulated"] == counters["overlay.decapsulated"] > 0
        lines = point.metrics.lines("feedback")
        assert [line.split() for line in lines] == [
            ["feedback.lost", "0"], ["feedback.received", "0"], ["feedback.sent", "0"],
        ]
        html = sweep_report([point], title="oblivious", subtitle="plane off")
        assert html.startswith("<!DOCTYPE html>") and "<svg" in html
