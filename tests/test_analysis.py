"""Tests for FCT statistics and the monitor views cut from a timeline."""

import hashlib
import json
import math

import pytest

from repro.analysis import (
    EmptySeriesError,
    FctSummary,
    ImbalanceSeries,
    LARGE_FLOW_BYTES,
    QueueSeries,
    SMALL_FLOW_BYTES,
    relative_to,
)
from repro.apps import ExperimentSpec, ImbalanceMonitorSpec, ObsSpec, QueueMonitorSpec
from repro.core.series import DEFAULT_SERIES_LIMIT
from repro.faults import LinkDown
from repro.obs import Timeline, TimelineSpec
from repro.topology import scaled_testbed
from repro.transport.tcp import FlowRecord
from repro.units import microseconds


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


def _timeline(column: str, series: dict, interval: int = 100) -> Timeline:
    """A hand-written timeline: ``series`` per port under ``column``."""
    windows = len(next(iter(series.values())))
    zeros = (0,) * windows
    columns = {"utilization": {}, "occupancy": {}, column: series}
    return Timeline(
        interval=interval,
        times=tuple(interval * (i + 1) for i in range(windows)),
        port_names=tuple(series),
        residual={},
        dre={},
        drops=zeros,
        flowlet_decisions=zeros,
        fault_reroutes=zeros,
        timeouts=zeros,
        retransmissions=zeros,
        goodput_bytes=zeros,
        completed=zeros,
        arrivals=zeros,
        samples=windows,
        **columns,
    )


#: A small hotspot point: traffic into leaf 1, whose link 0 to spine 1 is
#: down from t=0, so the spine-1 view holds the one surviving parallel link.
HOTSPOT = ExperimentSpec(
    "ecmp", "enterprise", load=0.6, seed=3, num_flows=40, size_scale=0.05,
    clients=range(8, 16),
    faults=(LinkDown(time=0, leaf=1, spine=1),),
    queue_monitor=QueueMonitorSpec(tier="spine", spine=1, leaf=1, interval=microseconds(10)),
)

#: sha256 of HOTSPOT's occupancy series as the former QueueMonitor sampled
#: it (JSON list of per-port lists), recorded before the monitors became
#: timeline views.
HOTSPOT_OCCUPANCY_SHA256 = "cc04edd03935be679a76a2a0a86af17e22ef8f671013b59baa533cc756fa4bd7"


class TestImbalanceView:
    def test_balanced_traffic_reads_zero(self):
        view = ImbalanceSeries.from_timeline(
            _timeline("utilization", {"a": (0.5, 0.9), "b": (0.5, 0.9)}), ["a", "b"]
        )
        assert view.samples == (0.0, 0.0)

    def test_fully_skewed_traffic_reads_two(self):
        # (MAX - MIN) / AVG with one idle port = (x - 0) / (x/2) = 2.
        view = ImbalanceSeries.from_timeline(
            _timeline("utilization", {"a": (0.4,), "b": (0.0,)}), ["a", "b"]
        )
        assert view.samples == pytest.approx((2.0,))

    def test_idle_windows_skipped(self):
        timeline = _timeline(
            "utilization", {"a": (0.0, 0.6, 0.0, 0.2), "b": (0.0, 0.2, 0.0, 0.2)}
        )
        view = ImbalanceSeries.from_timeline(timeline, ["a", "b"])
        assert view.samples == pytest.approx((1.0, 0.0))
        assert view.sample_times == (200, 400)
        assert view.interval == timeline.interval

    def test_samples_before_keeps_the_loaded_phase(self):
        view = ImbalanceSeries.from_timeline(
            _timeline("utilization", {"a": (0.6, 0.2, 1.0), "b": (0.2, 0.2, 0.0)}),
            ["a", "b"],
        )
        assert view.samples_before(200) == pytest.approx([1.0, 0.0])
        assert view.samples_before(99) == []

    def test_percentile_and_mean(self):
        view = ImbalanceSeries(100, (0.0, 1.0, 2.0), (100, 200, 300))
        assert view.mean_percent() == pytest.approx(100.0)
        assert view.percentile(50) == pytest.approx(100.0)

    def test_an_idle_run_has_no_statistics(self):
        view = ImbalanceSeries.from_timeline(
            _timeline("utilization", {"a": (0.0,) * 3, "b": (0.0,) * 3}), ["a", "b"]
        )
        with pytest.raises(EmptySeriesError):
            view.mean_percent()

    def test_a_leaf_with_one_uplink_is_refused(self):
        spec = ExperimentSpec(
            "ecmp", "enterprise", 0.5, num_flows=5, size_scale=0.02,
            config=scaled_testbed(num_spines=1, links_per_pair=1),
            imbalance_monitor=ImbalanceMonitorSpec(leaf=0),
        )
        with pytest.raises(ValueError, match="at least two ports"):
            spec.run_live()

    def test_a_run_cuts_its_leaf_uplinks(self):
        result = ExperimentSpec(
            "ecmp", "enterprise", 0.6, num_flows=40, size_scale=0.02, seed=2,
            imbalance_monitor=ImbalanceMonitorSpec(leaf=0, interval=microseconds(50)),
        ).run_live()
        view = result.imbalance_series
        assert view.interval == microseconds(50) and view.samples
        assert all(0.0 <= sample <= 4.0 for sample in view.samples)  # 4 uplinks
        assert result.timeline is None  # no obs timeline was asked for


class TestQueueView:
    def test_keeps_the_monitored_ports_in_order(self):
        timeline = _timeline("occupancy", {"a": (1, 2), "b": (3, 4), "c": (5, 6)})
        view = QueueSeries.from_timeline(timeline, ["c", "a"])
        assert view.port_names == ("c", "a")
        assert view.samples == {"c": (5, 6), "a": (1, 2)}

    def test_statistics(self):
        view = QueueSeries.from_timeline(_timeline("occupancy", {"p": (0, 100, 200, 300)}), ["p"])
        assert view.mean("p") == pytest.approx(150.0)
        assert view.percentile("p", 100) == pytest.approx(300.0)

    def test_no_samples_raises(self):
        with pytest.raises(EmptySeriesError):
            QueueSeries(10, {"p": ()}, ("p",)).mean("p")

    def test_reproduces_the_former_monitor_series(self):
        point = HOTSPOT.run()
        view = point.queue_series
        assert view.port_names == ("spine1->leaf1#1",)  # link 0 is down
        series = [list(view.series(name)) for name in view.port_names]
        digest = hashlib.sha256(json.dumps(series).encode()).hexdigest()
        assert digest == HOTSPOT_OCCUPANCY_SHA256

    def test_equals_the_obs_timeline_at_its_cadence(self):
        sampler = TimelineSpec(interval=microseconds(10), limit=DEFAULT_SERIES_LIMIT)
        point = HOTSPOT.with_(obs=ObsSpec(categories=(), timeline=sampler)).run()
        name = point.queue_series.port_names[0]
        assert point.queue_series.series(name) == point.timeline.occupancy[name]

    def test_no_live_port_is_refused(self):
        spec = HOTSPOT.with_(faults=HOTSPOT.faults + (LinkDown(time=0, leaf=1, spine=1, which=1),))
        with pytest.raises(ValueError, match="selected no live ports"):
            spec.run_live()
