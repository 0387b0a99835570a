"""Tests for application-paced (bursty) data sources and flowlet creation."""

import pytest

from repro.apps.traffic import PoissonTraffic, tcp_flow_factory
from repro.lb import CongaSelector
from repro.net import Host, connect
from repro.sim import Simulator, run_until_idle
from repro.topology import build_leaf_spine, scaled_testbed
from repro.transport import PacedSource, TcpFlow, TcpParams
from repro.units import gbps, microseconds, milliseconds


def _two_hosts():
    sim = Simulator(seed=1)
    h1 = Host(sim, 0, gbps(10))
    h2 = Host(sim, 1, gbps(10))
    connect(h1.nic, h2.nic)
    return sim, h1, h2


class TestPacedSource:
    def test_initial_release_is_one_burst(self):
        sim = Simulator()
        source = PacedSource(sim, 1_000_000, burst_bytes=64_000)
        assert source.available() == 64_000
        assert not source.closed()

    def test_small_transfer_released_at_once(self):
        sim = Simulator()
        source = PacedSource(sim, 10_000, burst_bytes=64_000)
        assert source.available() == 10_000
        assert source.closed()

    def test_releases_until_size(self):
        sim = Simulator()
        source = PacedSource(
            sim, 200_000, burst_bytes=64_000, mean_gap=microseconds(100)
        )
        sim.run(until=milliseconds(10))
        assert source.available() == 200_000
        assert source.closed()

    def test_gaps_follow_mean(self):
        sim = Simulator()
        source = PacedSource(
            sim, 10_000_000, burst_bytes=64_000, mean_gap=microseconds(600)
        )
        sim.run(until=milliseconds(5))
        # ~5 ms / 600 us ~ 8 releases of 64 KB on top of the initial one.
        released = source.available()
        assert 4 * 64_000 <= released <= 14 * 64_000

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PacedSource(sim, 1000, burst_bytes=0)
        with pytest.raises(ValueError):
            PacedSource(sim, 1000, mean_gap=0)


class TestBurstyTransfer:
    def test_transfer_completes_exactly(self):
        sim, h1, h2 = _two_hosts()
        size = 500_000
        source = PacedSource(
            sim, size, burst_bytes=64_000, mean_gap=microseconds(300)
        )
        flow = TcpFlow(sim, h1, h2, size, source=source)
        flow.start()
        run_until_idle(sim)
        assert flow.finished
        assert flow.receiver.rcv_nxt == size

    def test_sender_wakes_on_release(self):
        """An idle sender must resume when the app releases more data."""
        sim, h1, h2 = _two_hosts()
        source = PacedSource(
            sim, 200_000, burst_bytes=64_000, mean_gap=milliseconds(2)
        )
        flow = TcpFlow(sim, h1, h2, 200_000, source=source)
        flow.start()
        # After 1 ms only the first burst could have been delivered.
        sim.run(until=milliseconds(1))
        assert flow.receiver.rcv_nxt == 64_000
        run_until_idle(sim)
        assert flow.finished

    def test_fct_dominated_by_app_pacing(self):
        sim, h1, h2 = _two_hosts()
        size = 640_000  # 10 bursts
        source = PacedSource(
            sim, size, burst_bytes=64_000, mean_gap=milliseconds(1)
        )
        flow = TcpFlow(sim, h1, h2, size, source=source)
        flow.start()
        run_until_idle(sim)
        # 9 gaps of ~1 ms dominate the 0.5 ms wire time.
        assert flow.fct > milliseconds(4)

    def test_bursty_factory_creates_working_flows(self):
        sim = Simulator(seed=3)
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
        fabric.finalize(CongaSelector.factory())
        done = []
        factory = tcp_flow_factory(TcpParams(), pacing=PoissonTraffic(burst_bytes=65_536))
        flow = factory(
            fabric.host(0), fabric.host(2), 400_000, lambda f: done.append(f)
        )
        flow.start()
        run_until_idle(sim)
        assert len(done) == 1

    def test_bursty_flows_generate_multiple_flowlets(self):
        """The point of pacing: gaps beyond T_fl make new flowlets."""
        sim = Simulator(seed=3)
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
        fabric.finalize(CongaSelector.factory())
        source = PacedSource(
            sim, 1_000_000, burst_bytes=64_000, mean_gap=milliseconds(2)
        )
        flow = TcpFlow(sim, fabric.host(0), fabric.host(2), 1_000_000, source=source)
        flow.start()
        run_until_idle(sim)
        selector = fabric.leaves[0].selector
        # Every ~2 ms gap exceeds 2 x T_fl (500 us), so each burst of the
        # forward data path is a fresh flowlet decision.
        assert selector.decisions >= 10
