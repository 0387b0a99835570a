"""Tests for uplink selectors: ECMP, spraying, weighted, CONGA, local-only."""

import pytest

from repro.core import DEFAULT_PARAMS, CongaParams
from repro.lb import (
    CaftSelector,
    CongaFlowSelector,
    CongaSelector,
    EcmpSelector,
    LocalAwareSelector,
    PacketSpraySelector,
    WeightedRandomSelector,
    ecmp_hash,
)
from repro.net import Packet
from repro.sim import Simulator
from repro.topology import build_leaf_spine, scaled_testbed
from repro.units import microseconds, milliseconds


def _leaf(selector_factory, seed=1):
    sim = Simulator(seed=seed)
    fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
    fabric.finalize(selector_factory)
    return sim, fabric, fabric.leaves[0]


def _packet(sport=100, dport=200, src=0, dst=2):
    return Packet(src=src, dst=dst, size=1500, sport=sport, dport=dport, flow_id=1)


class TestEcmpHash:
    def test_deterministic(self):
        tup = (1, 2, 3, 4, "tcp")
        assert ecmp_hash(tup) == ecmp_hash(tup)

    def test_salt_decorrelates(self):
        tup = (1, 2, 3, 4, "tcp")
        values = {ecmp_hash(tup, salt=s) % 16 for s in range(64)}
        assert len(values) > 1


class TestEcmpSelector:
    def test_same_flow_always_same_uplink(self):
        _sim, _fabric, leaf = _leaf(EcmpSelector.factory())
        packet = _packet()
        choices = {
            leaf.selector.choose_uplink(packet, 1, [0, 1, 2, 3]) for _ in range(20)
        }
        assert len(choices) == 1

    def test_different_flows_spread(self):
        _sim, _fabric, leaf = _leaf(EcmpSelector.factory())
        choices = {
            leaf.selector.choose_uplink(_packet(sport=s), 1, [0, 1, 2, 3])
            for s in range(200)
        }
        assert choices == {0, 1, 2, 3}

    def test_respects_candidates(self):
        _sim, _fabric, leaf = _leaf(EcmpSelector.factory())
        for s in range(50):
            choice = leaf.selector.choose_uplink(_packet(sport=s), 1, [1, 3])
            assert choice in (1, 3)


class TestPacketSpray:
    def test_round_robin(self):
        _sim, _fabric, leaf = _leaf(PacketSpraySelector.factory())
        packet = _packet()
        picks = [
            leaf.selector.choose_uplink(packet, 1, [0, 1, 2, 3]) for _ in range(8)
        ]
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]


class TestWeightedRandom:
    def test_distribution_follows_weights(self):
        _sim, _fabric, leaf = _leaf(WeightedRandomSelector.factory([3, 1, 0, 0]))
        counts = [0, 0, 0, 0]
        for s in range(2000):
            counts[leaf.selector.choose_uplink(_packet(sport=s), 1, [0, 1, 2, 3])] += 1
        assert counts[2] == 0 and counts[3] == 0
        assert counts[0] / counts[1] == pytest.approx(3.0, rel=0.25)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            _leaf(WeightedRandomSelector.factory([1, 2]))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            _leaf(WeightedRandomSelector.factory([0, 0, 0, 0]))


class TestCongaSelector:
    def test_picks_min_of_max_local_remote(self):
        _sim, _fabric, leaf = _leaf(CongaSelector.factory())
        selector = leaf.selector
        # Remote metrics: uplink 0 bad, others good.
        leaf.to_leaf_table.update(1, 0, 7)
        leaf.to_leaf_table.update(1, 1, 1)
        leaf.to_leaf_table.update(1, 2, 5)
        leaf.to_leaf_table.update(1, 3, 4)
        choice = selector.choose_uplink(_packet(), 1, [0, 1, 2, 3])
        assert choice == 1

    def test_local_congestion_considered(self):
        _sim, _fabric, leaf = _leaf(CongaSelector.factory())
        # Saturate uplink 1's DRE locally; remote all zero.
        leaf.uplink_dres[1].on_transmit(10_000_000)
        packet = _packet()
        choice = leaf.selector.choose_uplink(packet, 1, [1, 2])
        assert choice == 2

    def test_path_metric_is_max(self):
        _sim, _fabric, leaf = _leaf(CongaSelector.factory())
        leaf.to_leaf_table.update(1, 0, 3)
        leaf.uplink_dres[0].on_transmit(10_000_000)  # local saturated
        assert leaf.selector.path_scores(1, [0]) == ([7], [3], [7])

    def test_flowlet_stickiness(self):
        _sim, _fabric, leaf = _leaf(CongaSelector.factory())
        packet = _packet()
        first = leaf.selector.choose_uplink(packet, 1, [0, 1, 2, 3])
        # Make the chosen uplink look terrible; the active flowlet must stick.
        leaf.to_leaf_table.update(1, first, 7)
        again = leaf.selector.choose_uplink(packet, 1, [0, 1, 2, 3])
        assert again == first

    def test_new_flowlet_can_move(self):
        sim, _fabric, leaf = _leaf(CongaSelector.factory())
        packet = _packet()
        first = leaf.selector.choose_uplink(packet, 1, [0, 1, 2, 3])
        leaf.to_leaf_table.update(1, first, 7)
        sim.run(until=milliseconds(5))  # flowlet gap >> T_fl
        # Refresh the metric so it has not aged away by decision time.
        leaf.to_leaf_table.update(1, first, 7)
        moved = leaf.selector.choose_uplink(packet, 1, [0, 1, 2, 3])
        assert moved != first

    def test_tie_prefers_previous_port(self):
        """3.5: a flow only moves if a strictly better uplink exists."""
        sim, _fabric, leaf = _leaf(CongaSelector.factory())
        packet = _packet()
        first = leaf.selector.choose_uplink(packet, 1, [0, 1, 2, 3])
        sim.run(until=milliseconds(5))  # expire the flowlet; all metrics 0
        assert leaf.selector.choose_uplink(packet, 1, [0, 1, 2, 3]) == first

    def test_flowlet_expired_port_down_reroutes(self):
        sim, fabric, leaf = _leaf(CongaSelector.factory())
        packet = _packet()
        first = leaf.selector.choose_uplink(packet, 1, [0, 1, 2, 3])
        leaf.uplinks[first].fail()
        candidates = [i for i in range(4) if i != first]
        choice = leaf.selector.choose_uplink(packet, 1, candidates)
        assert choice != first

    def test_decision_counter(self):
        _sim, _fabric, leaf = _leaf(CongaSelector.factory())
        leaf.selector.choose_uplink(_packet(sport=1), 1, [0, 1])
        leaf.selector.choose_uplink(_packet(sport=2), 1, [0, 1])
        leaf.selector.choose_uplink(_packet(sport=1), 1, [0, 1])  # cached
        assert leaf.selector.decisions == 2


class TestPathScore:
    """§3.5 scores a path by the max, §7 by the sum: one combiner, from the params."""

    LOCAL, REMOTE = [3, 0], [3, 5]

    @pytest.mark.parametrize("selector", [CongaSelector, CaftSelector])
    @pytest.mark.parametrize("metric, scores, choice", [("max", [3, 5], 0), ("sum", [6, 5], 1)])
    def test_max_and_sum_pick_different_uplinks(self, selector, metric, scores, choice):
        _sim, _fabric, leaf = _leaf(selector.factory(CongaParams(path_metric=metric)))
        leaf.local_metric = self.LOCAL.__getitem__
        for uplink, remote in enumerate(self.REMOTE):
            leaf.to_leaf_table.update(1, uplink, remote)
        assert leaf.selector.path_scores(1, [0, 1]) == (self.LOCAL, self.REMOTE, scores)
        assert leaf.selector.choose_uplink(_packet(), 1, [0, 1]) == choice

    def test_the_leaf_params_pick_the_combiner(self):
        sim = Simulator(seed=1)
        config = scaled_testbed(hosts_per_leaf=2, params=CongaParams(path_metric="sum"))
        fabric = build_leaf_spine(sim, config)
        fabric.finalize(CongaSelector.factory())
        leaf = fabric.leaves[0]
        leaf.to_leaf_table.update(1, 0, 3)
        leaf.uplink_dres[0].on_transmit(10_000_000)  # local saturated
        assert leaf.selector.path_scores(1, [0]) == ([7], [3], [10])

    def test_an_unknown_metric_is_refused(self):
        with pytest.raises(ValueError, match="path_metric"):
            CongaParams(path_metric="avg")


class TestCongaFlowSelector:
    def test_uses_13ms_timeout(self):
        _sim, _fabric, leaf = _leaf(CongaFlowSelector.factory())
        assert leaf.selector.params.flowlet_timeout == milliseconds(13)

    def test_sticks_across_large_gaps(self):
        sim, _fabric, leaf = _leaf(CongaFlowSelector.factory())
        packet = _packet()
        first = leaf.selector.choose_uplink(packet, 1, [0, 1, 2, 3])
        leaf.to_leaf_table.update(1, first, 7)
        sim.run(until=milliseconds(10))  # >> 500us but < 13ms
        assert leaf.selector.choose_uplink(packet, 1, [0, 1, 2, 3]) == first


class TestLocalAwareSelector:
    def test_ignores_remote_metrics(self):
        _sim, _fabric, leaf = _leaf(LocalAwareSelector.factory())
        # Remote says uplink 0 is terrible; local scheme cannot see it.
        leaf.to_leaf_table.update(1, 0, 7)
        for u in (1, 2, 3):
            leaf.uplink_dres[u].on_transmit(10_000_000)
        choice = leaf.selector.choose_uplink(_packet(), 1, [0, 1, 2, 3])
        assert choice == 0

    def test_prefers_locally_idle(self):
        _sim, _fabric, leaf = _leaf(LocalAwareSelector.factory())
        leaf.uplink_dres[0].on_transmit(10_000_000)
        choice = leaf.selector.choose_uplink(_packet(), 1, [0, 1])
        assert choice == 1
