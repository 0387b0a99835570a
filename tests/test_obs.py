"""Tests for the repro.obs observability plane.

Three layers:

* tracer mechanics — ring-buffer bounds, category filters, export and
  digest round-trips, ObsSpec canonicalization;
* metrics report — sorted, picklable plain data and filtering;
* integration — a hand-checked CONGA reroute trace, trace-digest
  determinism across sweep worker counts, content-hash neutrality, and
  the run manifest written next to every cache entry.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.analysis import EmptySeriesError
from repro.apps import ExperimentSpec, ObsSpec, PointResult
from repro.core.series import DecimatedSeries
from repro.net import Packet
from repro.obs import (
    CATEGORIES,
    MANIFEST_SUFFIX,
    DreSampled,
    FlowletRerouted,
    HistogramSummary,
    MetricsReport,
    PacketDropped,
    TraceLog,
    Tracer,
    build_manifest,
    event_payload,
    manifest_path,
)
from repro.obs.trace import _normalize_categories
from repro.runner import ResultCache, run_sweep
from repro.sim import Simulator
from repro.topology import build_leaf_spine, scaled_testbed


def _drop(t: int) -> PacketDropped:
    return PacketDropped(time=t, port="l0-s0", flow_id=7, size=1500, reason="loss")


TINY = ExperimentSpec(
    scheme="conga",
    workload="enterprise",
    load=0.6,
    seed=7,
    num_flows=30,
    size_scale=0.02,
)


# ---------------------------------------------------------------------------
# Tracer mechanics
# ---------------------------------------------------------------------------


class TestTracer:
    def test_ring_buffer_keeps_newest_window(self):
        tracer = Tracer(limit=4)
        for t in range(10):
            tracer.emit(_drop(t))
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        assert [e.time for e in tracer.events()] == [6, 7, 8, 9]

    def test_category_flags_are_plain_bools(self):
        tracer = Tracer(categories="flowlet,table")
        assert tracer.flowlet is True and tracer.table is True
        assert tracer.dre is False and tracer.tcp is False

    def test_default_records_every_category(self):
        tracer = Tracer()
        assert tracer.categories == CATEGORIES
        assert all(getattr(tracer, name) for name in CATEGORIES)

    def test_unknown_category_and_bad_limit_raise(self):
        with pytest.raises(ValueError, match="unknown trace category"):
            Tracer(categories="flowlet,bogus")
        with pytest.raises(ValueError, match="positive"):
            Tracer(limit=0)

    def test_normalize_canonicalizes_order(self):
        assert _normalize_categories("table, flowlet") == ("flowlet", "table")
        assert _normalize_categories(None) == CATEGORIES
        assert _normalize_categories(["tcp", "dre"]) == ("dre", "tcp")


class TestTraceLog:
    def _log(self, n: int = 3, limit: int = 16) -> TraceLog:
        tracer = Tracer(limit=limit)
        for t in range(n):
            tracer.emit(_drop(t))
        return tracer.snapshot()

    def test_ndjson_round_trip(self):
        log = self._log()
        payloads = [json.loads(line) for line in log.ndjson_lines()]
        assert [p["time"] for p in payloads] == [0, 1, 2]
        assert all(p["name"] == "PacketDropped" for p in payloads)
        assert all(p["cat"] == "drop" for p in payloads)
        assert payloads[0] == event_payload(log.events[0])

    def test_write_ndjson_matches_lines(self, tmp_path):
        log = self._log()
        path = log.write_ndjson(tmp_path / "trace.ndjson")
        assert path.read_text().splitlines() == list(log.ndjson_lines())

    def test_chrome_trace_structure(self):
        log = self._log(n=2)
        doc = log.chrome_trace()
        assert len(doc["traceEvents"]) == 2
        record = doc["traceEvents"][0]
        assert record["ph"] == "i" and record["cat"] == "drop"
        assert record["ts"] == 0.0  # ns -> us
        assert "name" not in record["args"] and record["args"]["reason"] == "loss"
        assert doc["metadata"]["emitted"] == 2

    def test_digest_is_stable_and_content_sensitive(self):
        assert self._log().digest() == self._log().digest()
        assert self._log(n=2).digest() != self._log(n=3).digest()

    def test_select_filters_by_category(self):
        tracer = Tracer()
        tracer.emit(_drop(1))
        tracer.emit(DreSampled(time=2, link="l0-s0", register=0.0,
                               utilization=0.0, metric=0))
        log = tracer.snapshot()
        assert [e.time for e in log.select("dre")] == [2]
        assert len(log.select()) == 2

    def test_pickle_round_trip_preserves_digest(self):
        log = self._log()
        clone = pickle.loads(pickle.dumps(log))
        assert clone.digest() == log.digest()
        assert clone.dropped == log.dropped


class TestObsSpec:
    def test_canonicalizes_category_strings(self):
        spec = ObsSpec(categories="table,flowlet")
        assert spec.categories == ("flowlet", "table")

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ObsSpec(categories="nope")
        with pytest.raises(ValueError):
            ObsSpec(buffer_limit=0)

    def test_make_tracer_applies_config(self):
        tracer = ObsSpec(categories=("dre",), buffer_limit=9).make_tracer()
        assert tracer.categories == ("dre",)
        assert tracer.limit == 9


# ---------------------------------------------------------------------------
# Metrics report
# ---------------------------------------------------------------------------


def _report(**counters) -> MetricsReport:
    return MetricsReport(counters=counters, gauges={}, histograms={})


class TestMetricsReport:
    def test_sorts_and_pickles(self):
        sizes = HistogramSummary.of(DecimatedSeries(values=(1.0, 2.0, 3.0)))
        report = MetricsReport(
            counters={"b.count": 2, "z.count": 1},
            gauges={"a.level": 1.5},
            histograms={"c.sizes": sizes},
        )
        report = pickle.loads(pickle.dumps(report))
        assert report.names() == ["a.level", "b.count", "c.sizes", "z.count"]
        assert report.value("b.count") == 2
        assert report.scalars() == {"a.level": 1.5, "b.count": 2, "z.count": 1}
        assert report.histograms["c.sizes"].count == 3
        assert report.histograms["c.sizes"].p50 == 2.0

    def test_lines_filter_by_prefix(self):
        report = _report(**{"kernel.events": 1, "kernel.wall": 2, "port.tx": 3})
        lines = report.lines("kernel.")
        assert [line.split()[0] for line in lines] == ["kernel.events", "kernel.wall"]
        lines = report.lines(" port.tx , kernel.,kernel.events,")
        assert [line.split()[0] for line in lines] == ["kernel.events", "kernel.wall", "port.tx"]

    def test_lines_refuse_an_unknown_selection_listing_known_names(self):
        with pytest.raises(KeyError) as caught:
            _report(**{"kernel.events": 1}).lines("zz,bogus,kernel.")
        assert caught.value.args[0] == (
            "unknown metric selection bogus, zz; known names: kernel.events"
        )

    def test_value_raises_on_unknown_name(self):
        with pytest.raises(KeyError):
            _report().value("missing")


def test_empty_series_error_carries_context():
    err = EmptySeriesError("QueueMonitor[l0-s0]", 100)
    assert isinstance(err, ValueError)
    assert err.monitor == "QueueMonitor[l0-s0]"
    assert err.interval == 100
    assert "QueueMonitor[l0-s0]" in str(err) and "100" in str(err)


def test_kernel_counters_live_in_registry():
    """The kernel keeps plain attributes; the report is where they get names."""
    live = TINY.run_live()
    sim = live.sim
    assert not hasattr(sim, "metrics")
    assert sim.events_executed > 0 and sim.wall_seconds > 0.0
    counters = PointResult.from_live(TINY, live, wall_seconds=0.0).metrics.counters
    assert counters["kernel.events_executed"] == sim.events_executed
    assert counters["kernel.timer_rearms"] == sim.timer_rearms
    assert counters["kernel.heap_compactions"] == sim.heap_compactions
    assert counters["kernel.wall_seconds"] == sim.wall_seconds


# ---------------------------------------------------------------------------
# Integration: hand-checked reroute, determinism, manifests
# ---------------------------------------------------------------------------


class TestTracedRuns:
    def test_flowlet_reroute_respects_remote_metric(self):
        """2-uplink hand check: a remote congestion entry must steer the
        flowlet away and the event must record both compared vectors."""
        from repro.lb import CongaSelector

        sim = Simulator(seed=1)
        sim.tracer = Tracer(categories="flowlet")
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
        fabric.finalize(CongaSelector.factory())
        leaf = fabric.leaves[0]
        leaf.to_leaf_table.update(1, 0, 5)  # remote says uplink 0 is congested
        packet = Packet(src=0, dst=2, size=1500, sport=9, dport=99, flow_id=3)
        choice = leaf.selector.choose_uplink(packet, 1, [0, 1])
        assert choice == 1
        (event,) = sim.tracer.events("flowlet")
        assert isinstance(event, FlowletRerouted)
        assert event.chosen == 1 and event.flow_id == 3
        assert event.candidates == (0, 1)
        assert event.local_metrics == (0, 0)
        assert event.remote_metrics == (5, 0)

    def test_traced_run_attaches_trace_and_metrics(self):
        result = TINY.with_(obs=ObsSpec(categories="flowlet,table")).run()
        assert result.trace is not None and result.metrics is not None
        assert result.trace.categories == ("flowlet", "table")
        reroutes = result.trace.select("flowlet")
        assert reroutes, "a CONGA run must make flowlet decisions"
        for event in reroutes:
            assert len(event.local_metrics) == len(event.candidates)
            assert len(event.remote_metrics) == len(event.candidates)
            assert event.chosen in event.candidates
        assert result.metrics.value("kernel.events_executed") == (
            result.events_executed
        )
        assert result.metrics.value("trace.emitted") == result.trace.emitted

    def test_untraced_run_has_no_trace_but_has_metrics(self):
        result = TINY.run()
        assert result.trace is None
        assert result.metrics is not None
        assert result.metrics.value("flows.completed") == result.completed

    def test_tracing_never_changes_the_simulation(self):
        untraced = TINY.run()
        traced = TINY.with_(obs=ObsSpec()).run()
        assert pickle.dumps(untraced.records) == pickle.dumps(traced.records)

    def test_content_hash_neutral_when_disabled(self):
        assert TINY.content_hash() == TINY.with_(obs=None).content_hash()
        assert TINY.content_hash() != TINY.with_(obs=ObsSpec()).content_hash()
        assert (
            TINY.with_(obs=ObsSpec(categories="dre")).content_hash()
            != TINY.with_(obs=ObsSpec()).content_hash()
        )

    def test_trace_digest_identical_across_worker_counts(self, tmp_path):
        specs = [
            TINY.with_(obs=ObsSpec(categories="flowlet,table")),
            TINY.with_(seed=8, obs=ObsSpec(categories="flowlet,table")),
        ]
        inline = run_sweep(specs, workers=0, cache=None)
        pooled = run_sweep(specs, workers=2, cache=None)
        for a, b in zip(inline, pooled):
            assert a.trace is not None and b.trace is not None
            assert a.trace.digest() == b.trace.digest()

    def test_sweep_result_carries_metrics(self, tmp_path):
        sweep = run_sweep([TINY], workers=0, cache=tmp_path / "cache")
        assert sweep.metrics is not None
        assert sweep.metrics.value("sweep.points") == 1
        assert sweep.metrics.value("sweep.executed") == 1
        again = run_sweep([TINY], workers=0, cache=tmp_path / "cache")
        assert again.metrics.value("sweep.cache_hits") == 1


class TestManifests:
    def test_cache_put_writes_manifest(self, tmp_path):
        spec = TINY.with_(obs=ObsSpec(categories="flowlet"))
        result = spec.run()
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, result)
        path = manifest_path(cache.root, spec.content_hash())
        assert path.name.endswith(MANIFEST_SUFFIX)
        manifest = json.loads(path.read_text())
        assert manifest["kind"] == "repro-run-manifest"
        assert manifest["content_hash"] == spec.content_hash()
        assert manifest["seed"] == spec.seed
        assert manifest["traced"] is True
        assert manifest["trace"]["digest"] == result.trace.digest()
        assert manifest["metrics"]["flows.completed"] == result.completed
        assert manifest["from_cache"] is False

    def test_build_manifest_for_untraced_run(self):
        result = TINY.run()
        manifest = build_manifest(result)
        assert manifest["traced"] is False and "trace" not in manifest
        assert manifest["spec_hash"] == TINY.content_hash()
        json.dumps(manifest)  # must be a pure JSON document

    def test_clear_removes_manifests(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        result = TINY.run()
        cache.put(TINY, result)
        assert cache.clear() == 1
        assert list(cache.root.glob(f"*{MANIFEST_SUFFIX}")) == []
