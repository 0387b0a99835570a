"""Tests for FCT statistics and runtime monitors."""

import math

import pytest

from repro.analysis import (
    FctSummary,
    LARGE_FLOW_BYTES,
    QueueMonitor,
    SMALL_FLOW_BYTES,
    ThroughputImbalanceMonitor,
    relative_to,
)
from repro.net import Host, Packet, connect
from repro.sim import Simulator, run_until_idle
from repro.transport.tcp import FlowRecord
from repro.units import gbps, microseconds


def _record(size, fct, ideal=100):
    return FlowRecord(
        flow_id=1, src=0, dst=1, size=size, start_time=0, fct=fct, ideal_fct=ideal
    )


class TestFctSummary:
    def test_thresholds_match_paper(self):
        assert SMALL_FLOW_BYTES == 100_000
        assert LARGE_FLOW_BYTES == 10_000_000

    def test_mean_normalized(self):
        records = [_record(1000, 200), _record(1000, 400)]
        summary = FctSummary.from_records(records)
        assert summary.mean_normalized == pytest.approx(3.0)
        assert summary.count == 2

    def test_buckets(self):
        records = [
            _record(50_000, 100),       # small
            _record(50_000, 300),       # small
            _record(500_000, 1000),     # neither
            _record(20_000_000, 5000),  # large
        ]
        summary = FctSummary.from_records(records)
        assert summary.count_small == 2
        assert summary.count_large == 1
        assert summary.mean_fct_small == pytest.approx(200.0)
        assert summary.mean_fct_large == pytest.approx(5000.0)

    def test_empty_bucket_is_nan(self):
        summary = FctSummary.from_records([_record(500_000, 100)])
        assert math.isnan(summary.mean_fct_small)
        assert math.isnan(summary.mean_fct_large)

    def test_percentiles_ordered(self):
        records = [_record(1000, fct) for fct in range(100, 2100, 100)]
        summary = FctSummary.from_records(records)
        assert summary.mean_normalized <= summary.p95_normalized <= summary.p99_normalized

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FctSummary.from_records([])


class TestRelativeTo:
    def test_ratio(self):
        assert relative_to(4.0, 2.0) == 2.0

    def test_nan_propagates(self):
        assert math.isnan(relative_to(float("nan"), 2.0))
        assert math.isnan(relative_to(2.0, float("nan")))

    def test_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            relative_to(1.0, 0.0)


class _Sender:
    """Drives known byte counts through two ports for monitor tests."""

    def __init__(self):
        self.sim = Simulator()
        self.h = [Host(self.sim, i, gbps(10)) for i in range(4)]
        connect(self.h[0].nic, self.h[1].nic)
        connect(self.h[2].nic, self.h[3].nic)
        self.ports = [self.h[0].nic, self.h[2].nic]

    def send(self, port_index, size):
        src = self.h[0] if port_index == 0 else self.h[2]
        src.nic.send(Packet(src=src.host_id, dst=99, size=size, flow_id=1))


class TestThroughputImbalanceMonitor:
    def test_balanced_traffic_reads_zero(self):
        env = _Sender()
        monitor = ThroughputImbalanceMonitor(
            env.sim, env.ports, interval=microseconds(100)
        )
        monitor.start()
        for _ in range(50):
            env.send(0, 1000)
            env.send(1, 1000)
        env.sim.run(until=microseconds(150))
        monitor.stop()
        run_until_idle(env.sim)
        assert monitor.samples
        assert monitor.samples[0] == pytest.approx(0.0)

    def test_fully_skewed_traffic_reads_two(self):
        # (MAX - MIN) / AVG with one idle port = (x - 0) / (x/2) = 2.
        env = _Sender()
        monitor = ThroughputImbalanceMonitor(
            env.sim, env.ports, interval=microseconds(100)
        )
        monitor.start()
        for _ in range(50):
            env.send(0, 1000)
        env.sim.run(until=microseconds(150))
        monitor.stop()
        run_until_idle(env.sim)
        assert monitor.samples[0] == pytest.approx(2.0)

    def test_idle_intervals_skipped(self):
        env = _Sender()
        monitor = ThroughputImbalanceMonitor(
            env.sim, env.ports, interval=microseconds(10)
        )
        monitor.start()
        env.sim.run(until=microseconds(100))
        monitor.stop()
        assert monitor.samples == []

    def test_percentile_and_mean(self):
        env = _Sender()
        monitor = ThroughputImbalanceMonitor(
            env.sim, env.ports, interval=microseconds(100)
        )
        monitor.samples = [0.0, 1.0, 2.0]
        assert monitor.snapshot().mean_percent() == pytest.approx(100.0)
        assert monitor.snapshot().percentile(50) == pytest.approx(100.0)

    def test_needs_two_ports(self):
        env = _Sender()
        with pytest.raises(ValueError):
            ThroughputImbalanceMonitor(env.sim, env.ports[:1])

    def test_no_samples_raises(self):
        env = _Sender()
        monitor = ThroughputImbalanceMonitor(env.sim, env.ports)
        with pytest.raises(ValueError):
            monitor.snapshot().mean_percent()


class TestQueueMonitor:
    def test_samples_occupancy(self):
        env = _Sender()
        monitor = QueueMonitor(env.sim, [env.ports[0]], interval=microseconds(1))
        monitor.start()
        # Queue 100 x 1500B packets; they drain at 10 Gbps (1.2 us each).
        for _ in range(100):
            env.send(0, 1500)
        env.sim.run(until=microseconds(20))
        monitor.stop()
        series = list(monitor.snapshot().series(env.ports[0]))
        assert len(series) >= 10
        assert max(series) > 0
        assert series == sorted(series, reverse=True)  # draining monotone

    def test_statistics(self):
        env = _Sender()
        monitor = QueueMonitor(env.sim, [env.ports[0]])
        monitor.samples[env.ports[0].name] = [0, 100, 200, 300]
        assert monitor.snapshot().mean(env.ports[0]) == pytest.approx(150.0)
        assert monitor.snapshot().percentile(env.ports[0], 100) == pytest.approx(300.0)

    def test_requires_ports(self):
        with pytest.raises(ValueError):
            QueueMonitor(Simulator(), [])

    def test_no_samples_raises(self):
        env = _Sender()
        monitor = QueueMonitor(env.sim, [env.ports[0]])
        with pytest.raises(ValueError):
            monitor.snapshot().mean(env.ports[0])
