"""Tests for the explicit-feedback option (§3.3's design alternative)."""

import pytest

from repro.lb import CongaSelector
from repro.sim import Simulator
from repro.topology import build_leaf_spine, scaled_testbed
from repro.transport import UdpSink, UdpSource
from repro.units import gbps, megabytes, microseconds, milliseconds, seconds


def _one_way_scenario(explicit: bool, seed=3):
    """UDP flows leaf0 -> leaf1 only: no reverse traffic to piggyback on."""
    sim = Simulator(seed=seed)
    fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=4))
    fabric.finalize(CongaSelector.factory())
    if explicit:
        for leaf in fabric.leaves:
            leaf.enable_explicit_feedback(microseconds(500))
    sinks = []
    for i in range(4):
        sinks.append(UdpSink(fabric.host(4 + i), flow_id=100 + i))
        UdpSource(
            sim, fabric.host(i), 4 + i, megabytes(2), gbps(5), flow_id=100 + i
        ).start()
    sim.run(until=milliseconds(3))  # mid-transfer
    return sim, fabric


class TestExplicitFeedback:
    def test_piggyback_only_starves_one_way_senders(self):
        _sim, fabric = _one_way_scenario(explicit=False)
        leaf0 = fabric.leaves[0]
        # No reverse traffic ever existed, so leaf0 learned nothing.
        assert leaf0.tep.feedback_received == 0
        assert all(m == 0 for m in leaf0.to_leaf_table.metrics_toward(1))

    def test_explicit_feedback_fills_tables(self):
        _sim, fabric = _one_way_scenario(explicit=True)
        leaf0 = fabric.leaves[0]
        leaf1 = fabric.leaves[1]
        assert leaf1.explicit_feedback_sent > 0
        assert leaf0.tep.feedback_received > 0
        # The loaded uplinks' remote metrics are now visible at the sender.
        assert any(m > 0 for m in leaf0.to_leaf_table.metrics_toward(1))

    def test_control_packets_not_delivered_to_hosts(self):
        _sim, fabric = _one_way_scenario(explicit=True)
        for host in fabric.hosts.values():
            assert host.undelivered_packets == 0

    def test_no_feedback_packets_when_nothing_owed(self):
        sim = Simulator(seed=1)
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
        fabric.finalize(CongaSelector.factory())
        for leaf in fabric.leaves:
            leaf.enable_explicit_feedback(microseconds(500))
        sim.run(until=milliseconds(5))  # idle fabric
        assert all(leaf.explicit_feedback_sent == 0 for leaf in fabric.leaves)

    def test_disable_stops_generation(self):
        sim, fabric = _one_way_scenario(explicit=True)
        before = fabric.leaves[1].explicit_feedback_sent
        for leaf in fabric.leaves:
            leaf.disable_explicit_feedback()
        sim.run(until=sim.now + milliseconds(2))
        assert fabric.leaves[1].explicit_feedback_sent == before

    def test_state_exists_before_enabling(self):
        sim = Simulator()
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
        fabric.finalize(CongaSelector.factory())
        leaf = fabric.leaves[0]
        assert leaf.explicit_feedback_sent == 0
        leaf.disable_explicit_feedback()  # never enabled: a no-op

    def test_reenabling_keeps_the_count_and_leaks_no_timer(self):
        sim, fabric = _one_way_scenario(explicit=True)
        leaf = fabric.leaves[1]
        before = leaf.explicit_feedback_sent
        assert before > 0
        leaf.enable_explicit_feedback(microseconds(500))
        assert leaf.explicit_feedback_sent == before
        # One disable must silence the leaf: a timer leaked by the second
        # enable would keep emitting control packets.
        leaf.disable_explicit_feedback()
        sim.run(until=sim.now + milliseconds(2))
        assert leaf.explicit_feedback_sent == before

    def test_validation(self):
        sim = Simulator()
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
        fabric.finalize(CongaSelector.factory())
        with pytest.raises(ValueError):
            fabric.leaves[0].enable_explicit_feedback(0)

    def test_feedback_volume_is_modest(self):
        """Control traffic stays tiny relative to data (why 3.3 says a
        handful of packets suffice per leaf pair)."""
        _sim, fabric = _one_way_scenario(explicit=True)
        control_bytes = fabric.leaves[1].explicit_feedback_sent * 64
        data_bytes = sum(
            port.tx_bytes for port in fabric.leaves[0].uplinks
        )
        assert control_bytes < data_bytes / 100
