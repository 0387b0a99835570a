"""Tests for MPTCP: subflows, coupled congestion control, data scheduling."""

import pytest

from repro.lb import EcmpSelector
from repro.sim import Simulator, run_until_idle
from repro.topology import build_leaf_spine, scaled_testbed
from repro.transport import MptcpConnection, TcpParams
from repro.transport.mptcp import LinkedIncreasesCC
from repro.units import megabytes, microseconds


def _fabric(seed=1, hosts_per_leaf=2, **cfg):
    sim = Simulator(seed=seed)
    fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=hosts_per_leaf, **cfg))
    fabric.finalize(EcmpSelector.factory())
    return sim, fabric


class TestBasics:
    def test_transfer_completes(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(sim, fabric.host(0), fabric.host(2), megabytes(1))
        conn.start()
        run_until_idle(sim)
        assert conn.finished
        assert conn.fct > 0

    def test_all_bytes_delivered_exactly_once(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(sim, fabric.host(0), fabric.host(2), megabytes(2))
        conn.start()
        run_until_idle(sim)
        delivered = sum(r.rcv_nxt for r in conn.receivers)
        assert delivered == megabytes(2)
        assigned = sum(f.source.assigned for f in conn.subflows)
        assert assigned == megabytes(2)
        assert conn.pool_remaining == 0

    def test_uses_multiple_subflows(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(sim, fabric.host(0), fabric.host(2), megabytes(4))
        conn.start()
        run_until_idle(sim)
        active = [f for f in conn.subflows if f.source.assigned > 0]
        assert len(active) == 8

    def test_subflows_have_distinct_five_tuples(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(sim, fabric.host(0), fabric.host(2), megabytes(1))
        tuples = {(f.src, f.dst, f.sport, f.dport) for f in conn.subflows}
        assert len(tuples) == 8

    def test_subflows_spread_over_fabric_paths(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(sim, fabric.host(0), fabric.host(2), megabytes(8))
        conn.start()
        run_until_idle(sim)
        used = [p for p in fabric.leaves[0].uplinks if p.tx_packets > 100]
        assert len(used) >= 2  # ECMP hashed the 8 subflows over >= 2 uplinks

    def test_tiny_flow_single_subflow(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(sim, fabric.host(0), fabric.host(2), 500)
        conn.start()
        run_until_idle(sim)
        assert conn.finished
        carriers = [f for f in conn.subflows if f.source.assigned > 0]
        assert len(carriers) == 1

    def test_configurable_subflow_count(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(
            sim, fabric.host(0), fabric.host(2), megabytes(1), num_subflows=2
        )
        assert len(conn.subflows) == 2
        conn.start()
        run_until_idle(sim)
        assert conn.finished

    def test_validation(self):
        sim, fabric = _fabric()
        with pytest.raises(ValueError):
            MptcpConnection(sim, fabric.host(0), fabric.host(2), 0)
        with pytest.raises(ValueError):
            MptcpConnection(
                sim, fabric.host(0), fabric.host(2), 100, num_subflows=0
            )

    def test_fct_before_completion_raises(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(sim, fabric.host(0), fabric.host(2), megabytes(1))
        with pytest.raises(RuntimeError):
            _ = conn.fct

    def test_completion_callback(self):
        sim, fabric = _fabric()
        done = []
        conn = MptcpConnection(
            sim, fabric.host(0), fabric.host(2), 100_000, on_complete=done.append
        )
        conn.start()
        run_until_idle(sim)
        assert done == [conn]

    def test_deterministic(self):
        def once():
            sim, fabric = _fabric(seed=5)
            conn = MptcpConnection(sim, fabric.host(0), fabric.host(3), megabytes(1))
            conn.start()
            run_until_idle(sim)
            return conn.fct

        assert once() == once()


class TestLinkedIncreases:
    def test_alpha_equals_one_for_single_symmetric_subflow(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(
            sim, fabric.host(0), fabric.host(2), megabytes(1), num_subflows=1
        )
        # One subflow: alpha = total * (w/rtt^2) / (w/rtt)^2 = 1.
        assert conn.lia_alpha() == pytest.approx(1.0)

    def test_alpha_with_equal_subflows(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(
            sim, fabric.host(0), fabric.host(2), megabytes(1), num_subflows=4
        )
        # Equal windows and RTTs: alpha = N*w * (w/r^2) / (N*w/r)^2 = 1/N.
        assert conn.lia_alpha() == pytest.approx(1.0 / 4.0)

    def test_coupled_increase_no_more_aggressive_than_single_tcp(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(
            sim, fabric.host(0), fabric.host(2), megabytes(1), num_subflows=8
        )
        cc = conn.subflows[0].cc
        assert isinstance(cc, LinkedIncreasesCC)
        single_tcp_increase = 1460 * 1460 / conn.subflows[0].cwnd
        coupled = cc.ca_increase(conn.subflows[0], 1460)
        assert coupled <= single_tcp_increase + 1e-9

    def test_the_single_tcp_cap_binds_on_the_slow_subflow(self):
        # RFC 6356 §3: the increase is min(alpha·acked·mss/total, acked·mss/cwnd).
        # With equal RTTs the coupled term is never the larger one, so the cap
        # only shows over unequal RTTs: 10 MSS at 10 us and 100 MSS at 1 ms.
        sim, fabric = _fabric()
        conn = MptcpConnection(
            sim, fabric.host(0), fabric.host(2), megabytes(1), num_subflows=2
        )
        fast, slow = conn.subflows
        mss = slow.params.mss
        for flow, segments, rtt in ((fast, 10, microseconds(10)), (slow, 100, 1_000_000)):
            flow.cwnd = float(segments * mss)
            flow._srtt = float(rtt)
        acked = mss
        alpha = conn.lia_alpha()
        assert alpha == pytest.approx(110 * 10 / 1e8 / (10 / 1e4 + 100 / 1e6) ** 2)
        coupled = alpha * acked * mss / conn.total_cwnd()
        single = acked * mss / slow.cwnd
        assert slow.cc.ca_increase(slow, acked) == single
        assert single < coupled

    def test_total_cwnd_sums_subflows(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(
            sim, fabric.host(0), fabric.host(2), megabytes(1), num_subflows=3
        )
        assert conn.total_cwnd() == pytest.approx(3 * 10 * 1460)


class TestScheduling:
    def test_pool_never_negative(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(sim, fabric.host(0), fabric.host(2), megabytes(1))
        conn.start()
        while sim.pending_events:
            sim.run(max_events=1000)
            assert conn.pool_remaining >= 0

    def test_grant_respects_subflow_window(self):
        sim, fabric = _fabric()
        conn = MptcpConnection(sim, fabric.host(0), fabric.host(2), megabytes(4))
        conn.start()
        sim.run(until=microseconds(5))
        for flow in conn.subflows:
            assert flow.inflight <= flow.cwnd + flow.params.mss
