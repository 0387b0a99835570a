"""Tests for the fault-injection plane (repro.faults).

Covers the event algebra (frozen values, CLI parsing, fault windows), the
injector's application semantics against a live fabric, the §3.3 metric
aging behaviour that FeedbackLoss exists to exercise, and the
analysis-side degradation metrics.
"""

import pickle

import pytest

from repro.analysis import DegradationSummary
from repro.analysis.fct import records_digest
from repro.apps import ExperimentSpec
from repro.core.params import CongaParams
from repro.core.tables import CongestionToLeafTable
from repro.faults import (
    FaultInjector,
    FeedbackLoss,
    LinkDegrade,
    LinkDown,
    LinkLoss,
    LinkUp,
    RandomLinkDowns,
    SwitchBlackout,
    fault_window,
    parse_fault,
)
from repro.lb import EcmpSelector
from repro.sim import Simulator
from repro.topology import build_leaf_spine, scaled_testbed
from repro.transport.tcp import FlowRecord
from repro.units import microseconds, milliseconds


def _fabric(seed=1, **overrides):
    sim = Simulator(seed=seed)
    fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=4, **overrides))
    fabric.finalize(EcmpSelector.factory())
    return sim, fabric


# ---------------------------------------------------------------------------
# Event algebra


def test_events_are_frozen_hashable_picklable():
    events = (
        LinkDown(time=0, leaf=1, spine=1),
        LinkUp(time=5, leaf=1, spine=1),
        LinkDegrade(time=0, fraction=0.25),
        LinkLoss(time=0, probability=0.5),
        FeedbackLoss(time=0, leaf=1, probability=0.5, duration=10),
        SwitchBlackout(time=0, kind="spine", switch=1, duration=10),
        RandomLinkDowns(time=0, count=9),
    )
    assert len(set(events)) == len(events)  # hashable, all distinct
    assert pickle.loads(pickle.dumps(events)) == events
    with pytest.raises(Exception):
        events[0].leaf = 3  # frozen


def test_event_validation():
    with pytest.raises(ValueError):
        LinkDown(time=-1)
    with pytest.raises(ValueError):
        LinkDegrade(time=0, fraction=0.0)
    with pytest.raises(ValueError):
        LinkDegrade(time=0, fraction=1.5)
    with pytest.raises(ValueError):
        LinkLoss(time=0, probability=1.5)
    with pytest.raises(ValueError):
        FeedbackLoss(time=0, duration=0)
    with pytest.raises(ValueError):
        SwitchBlackout(time=0, kind="router")
    with pytest.raises(ValueError):
        RandomLinkDowns(time=0, count=0)
    with pytest.raises(ValueError):
        RandomLinkDowns(time=0, count=1, tier="aggregation")


def test_parse_fault_round_trips():
    assert parse_fault("link_down@0.1s:l0-s1") == LinkDown(
        time=100_000_000, leaf=0, spine=1, which=0
    )
    assert parse_fault("link_up@1500us:l1-s1.1") == LinkUp(
        time=1_500_000, leaf=1, spine=1, which=1
    )
    assert parse_fault("link_degrade@1ms:l1-s0=0.25") == LinkDegrade(
        time=1_000_000, leaf=1, spine=0, fraction=0.25
    )
    assert parse_fault("link_loss@0:l1-s1~0.01") == LinkLoss(
        time=0, leaf=1, spine=1, probability=0.01
    )
    assert parse_fault("feedback_loss@0.5ms:leaf1~0.5+2ms") == FeedbackLoss(
        time=500_000, leaf=1, probability=0.5, duration=2_000_000
    )
    assert parse_fault("feedback_loss@0") == FeedbackLoss(
        time=0, leaf=None, probability=1.0, duration=None
    )
    assert parse_fault("blackout@1ms:spine1+500us") == SwitchBlackout(
        time=1_000_000, kind="spine", switch=1, duration=500_000
    )
    assert parse_fault("random_downs@0=9") == RandomLinkDowns(time=0, count=9)


def test_parse_fault_errors():
    for bad in (
        "link_down",  # no @time
        "link_down@1ms",  # no target
        "link_down@1ms:spine1",  # wrong target shape
        "link_down@oops:l0-s1",  # bad time
        "link_degrade@1ms:l0-s1",  # missing =fraction
        "link_loss@1ms:l0-s1",  # missing ~prob
        "feedback_loss@0:spine1",  # feedback loss targets a leaf
        "blackout@1ms:l0-s1",  # blackout targets a switch
        "random_downs@0",  # missing =count
        "meteor_strike@0",  # unknown kind
    ):
        with pytest.raises(ValueError):
            parse_fault(bad)


def test_fault_window():
    down = LinkDown(time=100, leaf=1, spine=1)
    up = LinkUp(time=900, leaf=1, spine=1)
    assert fault_window((down, up)) == (100, 900)
    assert fault_window((down,)) == (100, None)
    assert fault_window((up,)) is None  # nothing degrades
    assert fault_window(()) is None
    # Duration-bearing events close their own window.
    assert fault_window((SwitchBlackout(time=50, duration=200),)) == (50, 250)
    assert fault_window((FeedbackLoss(time=10, duration=40),)) == (10, 50)


# ---------------------------------------------------------------------------
# Injector semantics against a live fabric


def test_time_zero_faults_apply_at_construction():
    sim, fabric = _fabric()
    injector = FaultInjector(sim, fabric, (LinkDown(time=0, leaf=1, spine=1),))
    port = fabric.uplink_ports(1, 1)[0]
    assert not port.up  # applied synchronously, before any event runs
    assert injector.applied == [(0, LinkDown(time=0, leaf=1, spine=1))]


def test_scheduled_down_then_up():
    sim, fabric = _fabric()
    down = LinkDown(time=1000, leaf=0, spine=1)
    up = LinkUp(time=5000, leaf=0, spine=1)
    injector = FaultInjector(sim, fabric, (down, up))
    port = fabric.uplink_ports(0, 1)[0]
    assert port.up  # nothing applied yet
    sim.run(until=2000)
    assert not port.up
    sim.run(until=6000)
    assert port.up
    assert injector.applied == [(1000, down), (5000, up)]


def test_link_degrade_scales_both_directions_and_dre():
    sim, fabric = _fabric()
    port = fabric.uplink_ports(0, 0)[0]
    peer = port.peer
    nominal, peer_nominal = port.rate_bps, peer.rate_bps
    FaultInjector(
        sim, fabric, (LinkDegrade(time=0, leaf=0, spine=0, fraction=0.25),)
    )
    assert port.rate_bps == round(nominal * 0.25)
    assert peer.rate_bps == round(peer_nominal * 0.25)
    assert port.dre is not None and port.dre.link_rate_bps == port.rate_bps
    assert peer.dre is not None and peer.dre.link_rate_bps == peer.rate_bps
    # fraction=1.0 is the restore.
    port.degrade(1.0)
    assert port.rate_bps == nominal
    assert peer.rate_bps == peer_nominal
    assert port.dre.link_rate_bps == nominal


def test_switch_blackout_and_timed_restore():
    sim, fabric = _fabric()
    FaultInjector(
        sim,
        fabric,
        (SwitchBlackout(time=1000, kind="spine", switch=1, duration=4000),),
    )
    ports = fabric.switch_ports("spine", 1)
    assert ports and all(p.up for p in ports)
    sim.run(until=2000)
    assert all(not p.up for p in ports)
    sim.run(until=6000)
    assert all(p.up for p in ports)


def test_random_downs_event_is_seed_deterministic():
    downed = []
    for _ in range(2):
        sim, fabric = _fabric(seed=3, num_leaves=4, num_spines=3)
        FaultInjector(sim, fabric, (RandomLinkDowns(time=0, count=4),))
        downed.append(
            tuple(
                port.name
                for leaf in fabric.leaves
                for port in leaf.uplinks
                if not port.up
            )
        )
        # No leaf is ever fully disconnected.
        for leaf in fabric.leaves:
            assert any(p.up for p in leaf.uplinks)
    assert downed[0] == downed[1]
    assert len(downed[0]) == 4


def test_injector_rejects_non_events_and_bad_links():
    sim, fabric = _fabric()
    with pytest.raises(TypeError):
        FaultInjector(sim, fabric, ("link_down@0:l0-s0",))
    with pytest.raises(ValueError):
        FaultInjector(sim, fabric, (LinkDown(time=0, leaf=0, spine=0, which=9),))


@pytest.mark.parametrize(
    "event",
    [
        LinkDown(time=0, spine=0, core=0),
        LinkUp(time=0, spine=0, core=0),
        LinkDegrade(time=0, spine=0, core=0),
        LinkLoss(time=0, spine=0, core=0),
        RandomLinkDowns(time=0, count=1, tier="core"),
        SwitchBlackout(time=0, kind="core"),
    ],
    ids=lambda event: type(event).__name__,
)
def test_core_tier_faults_need_a_multi_pod_fabric(event):
    sim, fabric = _fabric()
    with pytest.raises(ValueError, match="multi-pod"):
        FaultInjector(sim, fabric, (event,))
    assert all(port.up for port in fabric.fabric_ports())


# ---------------------------------------------------------------------------
# Grey failures: seeded per-packet loss


def test_link_loss_drops_packets_deterministically():
    spec = ExperimentSpec(
        "ecmp",
        "enterprise",
        0.6,
        seed=11,
        num_flows=40,
        size_scale=0.05,
        faults=(LinkLoss(time=0, leaf=0, spine=0, probability=0.05),),
    )
    first = spec.run_live()
    second = spec.run_live()
    lost_first = sum(
        p.lost_packets + p.peer.lost_packets
        for leaf in first.fabric.leaves
        for p in leaf.uplinks
    )
    assert lost_first > 0  # the grey failure actually bit
    assert first.completed == second.completed
    assert records_digest(list(first.records)) == records_digest(
        list(second.records)
    )


# ---------------------------------------------------------------------------
# §3.3 metric aging under feedback loss


def test_metric_aging_decay_schedule():
    """Hand-computed §3.3 decay: fresh → linear ramp → zero → re-probe.

    With ``metric_age_time`` T, a metric of value 8 reads 8 up to age T,
    then decays linearly over one further period: 6 at 1.25T, 4 at 1.5T,
    2 at 1.75T, and 0 from 2T on — the optimistic reset that makes CONGA
    re-probe a path it has heard nothing about.
    """
    sim = Simulator(seed=1)
    params = CongaParams(metric_age_time=milliseconds(10))
    table = CongestionToLeafTable(sim, num_uplinks=4, params=params)
    table.update(dst_leaf=1, lbtag=2, metric=8)
    t = milliseconds(10)

    schedule = [
        (milliseconds(5), 8),  # younger than T: face value
        (t, 8),  # exactly T: still face value
        (t + t // 4, 6),  # 1.25T: int(8 * 0.75)
        (t + t // 2, 4),  # 1.5T:  int(8 * 0.5)
        (t + 3 * t // 4, 2),  # 1.75T: int(8 * 0.25)
        (2 * t, 0),  # 2T and beyond: fully aged out
        (3 * t, 0),
    ]
    for when, expected in schedule:
        sim.run(until=when)
        assert table.metric(1, 2) == expected, f"age {when}ns"
    # A refresh restarts the clock at full value.
    table.update(dst_leaf=1, lbtag=2, metric=5)
    assert table.metric(1, 2) == 5


def test_feedback_loss_starves_tables_but_traffic_flows():
    """FeedbackLoss severs the reverse channel; forwarding must survive.

    With probability-1 stripping from t=0, no (FB_LBTag, FB_Metric) pair
    ever reaches a Congestion-To-Leaf table, the stripped counter grows,
    and CONGA — seeing only aged-to-zero (optimistic) metrics — keeps
    spreading flowlets over multiple uplinks rather than wedging onto one.
    """
    spec = ExperimentSpec(
        "conga",
        "enterprise",
        0.6,
        seed=7,
        num_flows=60,
        size_scale=0.05,
        faults=(FeedbackLoss(time=0, probability=1.0),),
    )
    live = spec.run_live()
    teps = [leaf.tep for leaf in live.fabric.leaves]
    assert sum(tep.feedback_lost for tep in teps) > 0
    assert sum(tep.feedback_received for tep in teps) == 0
    assert live.completed == live.arrivals
    used = [
        p
        for leaf in live.fabric.leaves
        for p in leaf.uplinks
        if p.tx_packets > 0
    ]
    assert len(used) >= 4  # still re-probing across paths, not wedged


def test_feedback_loss_duration_restores_channel():
    spec = ExperimentSpec(
        "conga",
        "enterprise",
        0.6,
        seed=7,
        num_flows=60,
        size_scale=0.05,
        faults=(
            FeedbackLoss(time=0, probability=1.0, duration=microseconds(200)),
        ),
    )
    live = spec.run_live()
    teps = [leaf.tep for leaf in live.fabric.leaves]
    assert sum(tep.feedback_lost for tep in teps) > 0
    assert sum(tep.feedback_received for tep in teps) > 0  # after the clear


# ---------------------------------------------------------------------------
# Degradation metrics


def _record(flow_id, start, fct, size):
    return FlowRecord(
        flow_id=flow_id,
        src=0,
        dst=1,
        size=size,
        start_time=start,
        fct=fct,
        ideal_fct=max(1, fct // 2),
    )


def test_degradation_summary_hand_computed():
    # One flow of 1000 B completes in each 1 ms phase: before [0, 1ms),
    # during [1ms, 2ms), after [2ms, 3ms).  The during-phase completes only
    # half the bytes, so goodput_retained is exactly 0.5.
    records = [
        _record(1, 0, milliseconds(1) // 2, 1000),  # completes at 0.5 ms
        _record(2, milliseconds(1), milliseconds(1) // 2, 500),  # at 1.5 ms
        _record(3, milliseconds(2), milliseconds(1) // 2, 1000),  # at 2.5 ms
    ]
    summary = DegradationSummary.from_records(
        records,
        window_start=milliseconds(1),
        window_end=milliseconds(2),
        end_time=milliseconds(3),
        retransmissions=4,
        timeouts=1,
    )
    bits_per_ms = 1000 * 8 * 1000  # 1000 B per 1 ms, in bits/sec
    assert summary.goodput_before_bps == pytest.approx(bits_per_ms)
    assert summary.goodput_during_bps == pytest.approx(bits_per_ms / 2)
    assert summary.goodput_after_bps == pytest.approx(bits_per_ms)
    assert summary.goodput_retained == pytest.approx(0.5)
    # The first post-window 1 ms bin already reaches 90% of the pre-fault
    # goodput, so recovery is one bin.
    assert summary.recovery_time == milliseconds(1)
    assert summary.retransmissions == 4
    assert summary.timeouts == 1


def test_degradation_open_window_and_no_recovery():
    records = [_record(1, 0, milliseconds(1) // 2, 1000)]
    summary = DegradationSummary.from_records(
        records,
        window_start=milliseconds(1),
        window_end=None,
        end_time=milliseconds(3),
    )
    assert summary.goodput_after_bps == 0.0
    assert summary.recovery_time is None
    # During-phase had no completions at all.
    assert summary.goodput_during_bps == 0.0
    assert summary.goodput_retained == pytest.approx(0.0)


def test_point_result_degradation_requires_fault_window():
    spec = ExperimentSpec(
        "ecmp", "enterprise", 0.6, seed=1, num_flows=10, size_scale=0.02
    )
    point = spec.run()
    with pytest.raises(ValueError):
        point.degradation()


# ---------------------------------------------------------------------------
# Spec integration


def test_spec_rejects_raw_fault_strings():
    with pytest.raises(TypeError):
        ExperimentSpec(
            "ecmp", "enterprise", 0.6, faults=("link_down@0:l0-s0",)
        )


def test_faults_change_content_hash():
    base = ExperimentSpec("ecmp", "enterprise", 0.6)
    faulted = base.with_(faults=(LinkDown(time=0, leaf=1, spine=1),))
    assert base.content_hash() != faulted.content_hash()
    # Same fault tuple → same hash (cacheable).
    again = base.with_(faults=(LinkDown(time=0, leaf=1, spine=1),))
    assert faulted.content_hash() == again.content_hash()
