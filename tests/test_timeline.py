"""The sim-time telemetry plane: collector determinism, hashes, reports.

Three contracts are pinned here:

* **Read-only sampling** — attaching a :class:`TimelineCollector` must not
  move a single bit of the simulation: the golden faulted fixtures (the
  same specs ``test_golden_faults`` pins) produce identical records
  digests with the timeline on and off, and the timeline's own digest is
  bit-identical between inline (workers=0) and process-pool execution.
* **Hash semantics** — ``obs.timeline`` participates in the spec content
  hash when set (timeline points cache separately) and is stripped when
  ``None``; ``obs.trace_path`` never participates (an output sink).
* **Reporting plane** — the sweep/recovery HTML reports are single-file
  and dependency-free, and the sweep health telemetry stream records one
  event per lifecycle transition.
"""

import json
import pickle

import pytest

from repro.analysis import recovery_report, sweep_report
from repro.analysis.fct import records_digest
from repro.apps import ExperimentSpec, ObsSpec
from repro.obs import Timeline, TimelineCollector, TimelineSpec, build_manifest
from repro.runner import TelemetrySink, run_sweep
from repro.units import microseconds

from tests.test_golden_faults import golden_spec, multipod_spec


def _with_timeline(spec: ExperimentSpec, **kwargs) -> ExperimentSpec:
    return spec.with_(
        obs=ObsSpec(categories=(), timeline=TimelineSpec(**kwargs))
    )


class TestTimelineSpec:
    def test_defaults_are_bounded(self):
        spec = TimelineSpec()
        assert spec.interval >= 1
        assert spec.limit >= 2

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TimelineSpec(interval=0)
        with pytest.raises(ValueError):
            TimelineSpec(limit=1)


class TestContentHash:
    def test_timeline_none_is_hash_neutral(self):
        bare = golden_spec()
        with_obs = bare.with_(obs=ObsSpec())
        assert bare.content_hash() == bare.with_(obs=None).content_hash()
        # An ObsSpec without a timeline hashes like a pre-timeline ObsSpec
        # (the field is stripped when None), so existing caches survive.
        assert with_obs.obs.timeline is None
        assert with_obs.content_hash() != bare.content_hash()

    def test_timeline_set_changes_the_hash(self):
        bare = golden_spec()
        sampled = _with_timeline(bare)
        assert sampled.content_hash() != bare.content_hash()
        # ... and different cadences hash differently (different payloads).
        coarse = _with_timeline(bare, interval=microseconds(200))
        assert coarse.content_hash() != sampled.content_hash()

    def test_trace_path_never_in_the_hash(self):
        spec = golden_spec().with_(obs=ObsSpec())
        routed = spec.with_(
            obs=ObsSpec(trace_path="/tmp/anywhere.ndjson")
        )
        assert routed.content_hash() == spec.content_hash()


class TestCollectorDeterminism:
    """The collector must be strictly read-only and itself deterministic."""

    @pytest.mark.parametrize(
        "make_spec", [golden_spec, multipod_spec], ids=["conga", "caft-multipod"]
    )
    def test_records_identical_with_timeline_on_and_off(self, make_spec):
        off = make_spec().run()
        on = _with_timeline(make_spec()).run()
        assert records_digest(list(on.records)) == records_digest(
            list(off.records)
        )
        assert on.end_time == off.end_time
        assert on.timeline is not None and off.timeline is None

    @pytest.mark.parametrize(
        "make_spec", [golden_spec, multipod_spec], ids=["conga", "caft-multipod"]
    )
    def test_timeline_digest_identical_across_worker_counts(
        self, make_spec, tmp_path
    ):
        spec = _with_timeline(make_spec())
        inline = run_sweep([spec], workers=0, cache=tmp_path / "c0")
        pooled = run_sweep([spec], workers=2, cache=tmp_path / "c2")
        t_inline = inline.points[0].timeline
        t_pooled = pooled.points[0].timeline
        assert t_inline is not None and t_pooled is not None
        assert t_inline.digest() == t_pooled.digest()
        assert inline.digest() == pooled.digest()

    def test_timeline_survives_pickling(self):
        point = run_sweep(
            [_with_timeline(golden_spec())], workers=0, cache=None
        ).points[0]
        clone = pickle.loads(pickle.dumps(point))
        assert clone.timeline.digest() == point.timeline.digest()


class TestTimelineContent:
    def test_samples_cover_the_run(self):
        result = _with_timeline(golden_spec()).run()
        timeline = result.timeline
        assert isinstance(timeline, Timeline)
        assert timeline.samples >= 2
        assert len(timeline) >= 2
        assert len(timeline.port_names) > 0
        # Lockstep series: every per-port series shares the time axis.
        for port in timeline.port_names:
            assert len(timeline.utilization[port]) == len(timeline.times)
            assert len(timeline.residual[port]) == len(timeline.times)
        assert all(0.0 <= u <= 1.0 + 1e-9
                   for series in timeline.utilization.values()
                   for u in series)

    def test_fault_events_recorded_with_restore_flags(self):
        timeline = _with_timeline(golden_spec()).run().timeline
        kinds = [(name, restores) for _, name, restores in
                 timeline.fault_events]
        assert ("LinkDown", False) in kinds
        assert ("LinkUp", True) in kinds

    @staticmethod
    def _decimated(limit: int, retained: int, stride: int) -> Timeline:
        timeline = _with_timeline(
            golden_spec(), interval=microseconds(5), limit=limit
        ).run().timeline
        assert timeline.samples == 456  # decimation actually engaged
        assert len(timeline) == retained <= limit
        assert timeline.times[1] - timeline.times[0] == stride * microseconds(5)
        return timeline

    # The digests below were recorded when every column was its own
    # DecimatedSeries; one series of rows must decimate on the same offers.
    def test_limit_bounds_retention(self):
        timeline = self._decimated(16, 15, 32)
        assert timeline.digest() == (
            "7808dfa98e06511e4386d2820a9bc90b49e59647f24fb42d72cf090b9fad3188"
        )

    def test_a_stride_of_four_keeps_every_fourth_tick(self):
        timeline = self._decimated(128, 114, 4)
        assert timeline.digest() == (
            "346e3e6027f6f6a4aa1f6aaf6b1eb0f6fc862dc5b282f604ab455f169afcac39"
        )

    def test_manifest_carries_timeline_block(self):
        result = _with_timeline(golden_spec()).run()
        manifest = build_manifest(result)
        block = manifest["timeline"]
        assert block["digest"] == result.timeline.digest()
        assert block["samples"] == result.timeline.samples
        assert block["retained"] == len(result.timeline)

    def test_collector_requires_obs_spec(self):
        assert golden_spec().run().timeline is None


class TestTraceStreaming:
    def test_stream_keeps_events_the_ring_evicts(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        spec = golden_spec().with_(
            obs=ObsSpec(buffer_limit=8, trace_path=str(path))
        )
        result = spec.run()
        trace = result.trace
        assert trace.dropped > 0  # the tiny ring evicted
        lines = path.read_text().splitlines()
        assert len(lines) == trace.emitted  # the stream kept everything
        json.loads(lines[0])  # valid NDJSON
        manifest = build_manifest(result)
        assert manifest["trace"]["stream_path"] == str(path)


class TestHealthTelemetry:
    def test_ndjson_events_per_lifecycle_transition(self, tmp_path):
        path = tmp_path / "health.ndjson"
        spec = _with_timeline(golden_spec())
        run_sweep([spec], workers=0, cache=tmp_path / "c", telemetry=str(path))
        events = [json.loads(line) for line in path.read_text().splitlines()]
        names = [e["event"] for e in events]
        assert names == ["sweep_started", "point_completed", "sweep_finished"]
        done = events[1]
        assert done["spec_hash"] == spec.content_hash()
        assert done["wall_seconds"] > 0
        # Second run: the cache serves the point.
        path2 = tmp_path / "health2.ndjson"
        run_sweep([spec], workers=0, cache=tmp_path / "c",
                  telemetry=str(path2))
        names2 = [json.loads(l)["event"]
                  for l in path2.read_text().splitlines()]
        assert names2 == ["sweep_started", "cache_hit", "sweep_finished"]

    def test_sink_accepts_callable_and_metrics_aggregate(self, tmp_path):
        seen = []
        sweep = run_sweep(
            [_with_timeline(golden_spec())],
            workers=0,
            cache=None,
            telemetry=TelemetrySink(seen.append),
        )
        assert [e["event"] for e in seen][0] == "sweep_started"
        assert "sweep.point_wall_seconds" in sweep.metrics.histograms
        assert sweep.metrics.counters["sweep.worker_restarts"] == 0

    def test_sink_never_raises_after_close(self, tmp_path):
        sink = TelemetrySink(tmp_path / "s.ndjson")
        sink.emit("sweep_started", total=1)
        sink.close()
        sink.emit("late", total=1)  # dropped, not raised
        sink.close()  # idempotent
        assert sink.emitted == 1


class TestHtmlReports:
    def _points(self, tmp_path, faulted: bool = False):
        spec = _with_timeline(golden_spec() if faulted else
                              golden_spec().with_(faults=()))
        sweep = run_sweep([spec], workers=0, cache=tmp_path / "cache")
        return list(sweep.points)

    def test_sweep_report_is_self_contained(self, tmp_path):
        html = sweep_report(
            self._points(tmp_path, faulted=True),
            title="smoke", subtitle="one point",
        )
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert 'src="http' not in html and 'href="http' not in html
        assert "<svg" in html
        assert "fabric port utilization" in html  # the timeline heatmap

    def test_recovery_report_scores_against_baseline(self, tmp_path):
        html = recovery_report(
            title="recovery smoke",
            points=self._points(tmp_path) + self._points(tmp_path, faulted=True),
        )
        assert "Healthy baseline" in html
        assert "Cell: leaf-LinkDown ×1" in html  # read off the fault events
        assert "goodput retained" in html
        assert "<script" not in html
