"""Tests for CONGA core machinery: DRE, flowlet table, congestion tables."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CONGA_FLOW_PARAMS,
    CongaParams,
    CongestionFromLeafTable,
    CongestionToLeafTable,
    DEFAULT_PARAMS,
    DRE,
    FlowletTable,
)
from repro.sim import Simulator
from repro.units import gbps, microseconds, milliseconds


class TestCongaParams:
    def test_defaults_match_paper(self):
        assert DEFAULT_PARAMS.quantization_bits == 3
        assert DEFAULT_PARAMS.dre_time_constant == microseconds(160)
        assert DEFAULT_PARAMS.flowlet_timeout == microseconds(500)
        assert DEFAULT_PARAMS.flowlet_table_size == 65_536

    def test_conga_flow_timeout(self):
        assert CONGA_FLOW_PARAMS.flowlet_timeout == milliseconds(13)

    def test_alpha(self):
        params = CongaParams(dre_period=microseconds(20), dre_time_constant=microseconds(160))
        assert params.alpha == pytest.approx(0.125)

    def test_metric_levels(self):
        assert DEFAULT_PARAMS.metric_levels == 8
        assert DEFAULT_PARAMS.max_metric == 7
        assert CongaParams(quantization_bits=6).max_metric == 63

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quantization_bits": 0},
            {"quantization_bits": 9},
            {"dre_period": 0},
            {"dre_period": microseconds(200), "dre_time_constant": microseconds(100)},
            {"flowlet_timeout": 0},
            {"flowlet_table_size": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CongaParams(**kwargs)


class TestDRE:
    def test_starts_idle(self):
        dre = DRE(Simulator(), gbps(10))
        assert dre.register == 0
        assert dre.metric() == 0
        assert dre.utilization() == 0

    def test_increment(self):
        dre = DRE(Simulator(), gbps(10))
        dre.on_transmit(1500)
        assert dre.register == 1500

    def test_decay_matches_closed_form(self):
        sim = Simulator()
        params = DEFAULT_PARAMS
        dre = DRE(sim, gbps(10), params)
        dre.on_transmit(100_000)
        periods = 5
        sim.run(until=params.dre_period * periods)
        expected = 100_000 * (1 - params.alpha) ** periods
        assert dre.register == pytest.approx(expected)

    def test_steady_state_tracks_rate(self):
        """X converges to R * tau for constant-rate traffic (paper 3.2)."""
        sim = Simulator()
        params = DEFAULT_PARAMS
        rate = gbps(10)
        dre = DRE(sim, rate, params)
        # Offer exactly 50% utilization: one 1250-byte packet per microsecond.
        for t in range(0, 2_000):
            sim.schedule_at(t * 1000, lambda: dre.on_transmit(625))
        sim.run()
        assert dre.utilization() == pytest.approx(0.5, rel=0.1)

    def test_metric_quantization(self):
        sim = Simulator()
        dre = DRE(sim, gbps(10), DEFAULT_PARAMS)
        # Fill to ~100% of C*tau: 10 Gbps * 160 us = 200 KB.
        dre.on_transmit(200_000)
        assert dre.metric() == 7  # saturates at max
        dre.reset()
        dre.on_transmit(100_000)  # 50% -> level 4 of 8
        assert dre.metric() == 4

    def test_metric_clamped_at_max(self):
        dre = DRE(Simulator(), gbps(10))
        dre.on_transmit(10_000_000)
        assert dre.metric() == DEFAULT_PARAMS.max_metric

    def test_decays_to_zero(self):
        sim = Simulator()
        dre = DRE(sim, gbps(10))
        dre.on_transmit(200_000)
        sim.run(until=milliseconds(10))
        assert dre.metric() == 0

    def test_reset(self):
        sim = Simulator()
        dre = DRE(sim, gbps(10))
        dre.on_transmit(5000)
        dre.reset()
        assert dre.register == 0

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            DRE(Simulator(), 0)

    def test_faster_link_reads_lower_utilization(self):
        sim = Simulator()
        slow = DRE(sim, gbps(10))
        fast = DRE(sim, gbps(40))
        slow.on_transmit(100_000)
        fast.on_transmit(100_000)
        assert slow.utilization() == pytest.approx(4 * fast.utilization())

    def test_decay_table_is_bit_identical_to_direct_pow(self):
        """The precomputed decay table must match ``(1-alpha)**k`` exactly.

        The lazy decay switched from a per-call float pow to a table lookup
        for small elapsed tick counts; any numeric drift between the two
        paths would silently change CONGA's congestion metrics, so equality
        here must be exact, not approximate.
        """
        from repro.core.dre import _DECAY_TABLE_SIZE

        params = DEFAULT_PARAMS
        dre = DRE(Simulator(), gbps(10), params)
        base = 1.0 - params.alpha
        for k in range(_DECAY_TABLE_SIZE):
            assert dre._decay_table[k] == base**k  # bit-exact, no approx

    def test_decay_identical_for_table_and_fallback_elapsed(self):
        """Registers decayed via table vs direct pow agree bit for bit."""
        from repro.core.dre import _DECAY_TABLE_SIZE

        params = DEFAULT_PARAMS
        for elapsed in (1, 7, _DECAY_TABLE_SIZE - 1, _DECAY_TABLE_SIZE + 3):
            sim = Simulator()
            dre = DRE(sim, gbps(10), params)
            dre.on_transmit(123_457)
            sim.run(until=params.dre_period * elapsed)
            expected = 123_457 * (1.0 - params.alpha) ** elapsed
            assert dre.register == expected  # exact float equality


class TestFlowletTable:
    def _table(self, sim, timeout=microseconds(500)):
        return FlowletTable(sim, CongaParams(flowlet_timeout=timeout))

    def test_first_packet_starts_flowlet(self):
        sim = Simulator()
        table = self._table(sim)
        entry = table.lookup(("f",))
        assert not entry.valid
        table.install(entry, 3)
        assert table.new_flowlets == 1

    def test_active_flowlet_reuses_port(self):
        sim = Simulator()
        table = self._table(sim)
        entry = table.lookup(("f",))
        table.install(entry, 3)
        sim.run(until=microseconds(100))
        entry = table.lookup(("f",))
        assert entry.valid and entry.port == 3

    def test_gap_below_timeout_never_expires(self):
        sim = Simulator()
        table = self._table(sim, timeout=microseconds(500))
        entry = table.lookup(("f",))
        table.install(entry, 1)
        for _ in range(20):
            sim.run(until=sim.now + microseconds(400))  # gaps < T_fl
            assert table.lookup(("f",)).valid

    def test_gap_above_twice_timeout_always_expires(self):
        sim = Simulator()
        table = self._table(sim, timeout=microseconds(500))
        entry = table.lookup(("f",))
        table.install(entry, 1)
        sim.run(until=sim.now + microseconds(1001))
        entry = table.lookup(("f",))
        assert not entry.valid
        assert table.expired_flowlets == 1

    def test_expired_entry_remembers_previous_port(self):
        """3.5: ties prefer the port the last flowlet used."""
        sim = Simulator()
        table = self._table(sim)
        entry = table.lookup(("f",))
        table.install(entry, 5)
        sim.run(until=milliseconds(10))
        entry = table.lookup(("f",))
        assert not entry.valid
        assert entry.port == 5

    def test_detection_window_semantics(self):
        """Gaps are detected between T_fl and 2*T_fl (age-bit scanning)."""
        timeout = microseconds(500)
        # A gap crossing two scan boundaries expires; within one does not.
        sim = Simulator()
        table = self._table(sim, timeout=microseconds(500))
        # Install just before a boundary: expires soon after the next one.
        sim.run(until=microseconds(499))
        entry = table.lookup(("f",))
        table.install(entry, 1)
        sim.run(until=microseconds(1001))  # gap of 502 us, crosses 500 & 1000
        assert not table.lookup(("f",)).valid

    def test_hash_collisions_share_entry(self):
        sim = Simulator()
        params = CongaParams(flowlet_table_size=1)
        table = FlowletTable(sim, params)
        entry = table.lookup(("flow-a",))
        table.install(entry, 2)
        other = table.lookup(("flow-b",))
        assert other is entry  # collision: same slot
        assert other.valid and other.port == 2

    @given(
        gaps=st.lists(
            st.integers(min_value=1, max_value=2_000_000), min_size=1, max_size=30
        )
    )
    @settings(deadline=None)
    def test_expiry_invariant(self, gaps):
        """An entry is valid iff the gap spans fewer than 2 scan boundaries."""
        timeout = microseconds(500)
        sim = Simulator()
        table = self._table(sim, timeout=timeout)
        entry = table.lookup(("f",))
        table.install(entry, 1)
        last_touch = sim.now
        for gap in gaps:
            sim.run(until=sim.now + gap)
            entry = table.lookup(("f",))
            boundaries = sim.now // timeout - last_touch // timeout
            assert entry.valid == (boundaries < 2)
            if not entry.valid:
                table.install(entry, 1)
            last_touch = sim.now


class TestCongestionToLeafTable:
    def test_unknown_paths_read_zero(self):
        table = CongestionToLeafTable(Simulator(), num_uplinks=4)
        assert table.metric(dst_leaf=9, lbtag=2) == 0

    def test_update_and_read(self):
        table = CongestionToLeafTable(Simulator(), num_uplinks=4)
        table.update(1, 2, 5)
        assert table.metric(1, 2) == 5
        assert table.metric(1, 3) == 0

    def test_metrics_toward(self):
        table = CongestionToLeafTable(Simulator(), num_uplinks=3)
        table.update(1, 0, 2)
        table.update(1, 2, 7)
        assert table.metrics_toward(1) == [2, 0, 7]

    def test_aging_decays_gradually_to_zero(self):
        sim = Simulator()
        table = CongestionToLeafTable(sim, num_uplinks=2)
        table.update(0, 0, 6)
        age = DEFAULT_PARAMS.metric_age_time
        sim.run(until=age)  # still fresh at exactly the age time
        assert table.metric(0, 0) == 6
        sim.run(until=age + age // 2)  # halfway through the decay ramp
        assert table.metric(0, 0) == 3
        sim.run(until=2 * age + 1)
        assert table.metric(0, 0) == 0

    def test_refresh_resets_age(self):
        sim = Simulator()
        table = CongestionToLeafTable(sim, num_uplinks=2)
        table.update(0, 0, 6)
        sim.run(until=DEFAULT_PARAMS.metric_age_time - 1000)
        table.update(0, 0, 6)
        sim.run(until=sim.now + DEFAULT_PARAMS.metric_age_time // 2)
        assert table.metric(0, 0) == 6

    def test_rejects_bad_lbtag(self):
        table = CongestionToLeafTable(Simulator(), num_uplinks=2)
        with pytest.raises(ValueError):
            table.update(0, 2, 1)

    def test_rejects_zero_uplinks(self):
        with pytest.raises(ValueError):
            CongestionToLeafTable(Simulator(), num_uplinks=0)


class TestCongestionFromLeafTable:
    def test_empty_returns_none(self):
        table = CongestionFromLeafTable(num_lbtags=4)
        assert table.select_feedback(0) is None

    def test_records_and_feeds_back(self):
        table = CongestionFromLeafTable(num_lbtags=4)
        table.record(0, 1, 5)
        assert table.select_feedback(0) == (1, 5)

    def test_round_robin_over_lbtags(self):
        table = CongestionFromLeafTable(num_lbtags=3)
        for tag in range(3):
            table.record(0, tag, tag + 1)
        picks = [table.select_feedback(0)[0] for _ in range(6)]
        assert sorted(picks[:3]) == [0, 1, 2]
        assert sorted(picks[3:]) == [0, 1, 2]

    def test_changed_metrics_have_priority(self):
        table = CongestionFromLeafTable(num_lbtags=3)
        for tag in range(3):
            table.record(0, tag, 1)
        for _ in range(3):
            table.select_feedback(0)  # clear all changed bits
        table.record(0, 2, 7)  # only tag 2 changed
        assert table.select_feedback(0) == (2, 7)

    def test_unchanged_value_does_not_set_changed(self):
        table = CongestionFromLeafTable(num_lbtags=2)
        table.record(0, 0, 4)
        table.select_feedback(0)
        table.record(0, 0, 4)  # same value: not "changed"
        table.record(0, 1, 9)
        assert table.select_feedback(0) == (1, 9)

    def test_per_source_leaf_isolation(self):
        table = CongestionFromLeafTable(num_lbtags=2)
        table.record(0, 0, 3)
        table.record(1, 1, 6)
        assert table.select_feedback(0) == (0, 3)
        assert table.select_feedback(1) == (1, 6)

    def test_rejects_bad_lbtag(self):
        table = CongestionFromLeafTable(num_lbtags=2)
        with pytest.raises(ValueError):
            table.record(0, 5, 1)
