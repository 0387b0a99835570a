"""Tests for the declarative ExperimentSpec API and the sweep runner."""

import dataclasses
import math
import pickle

import pytest

from repro.apps import (
    ExperimentSpec,
    ImbalanceMonitorSpec,
    QueueMonitorSpec,
    SchemeSpec,
    UnknownSchemeError,
    UnknownWorkloadError,
    get_scheme,
    get_workload,
    register_scheme,
)
from repro.apps.experiment import SCHEMES
from repro.apps.traffic import tcp_flow_factory
from repro.lb import EcmpSelector
from repro.runner import (
    DEFAULT_CACHE_DIR,
    Backend,
    PointFailure,
    ResultCache,
    derive_seeds,
    run_sweep,
    sweep_grid,
)
from repro.sim import Simulator
from repro.sim.kernel import run_until_idle
from repro.topology import (
    MultiPodConfig,
    build_leaf_spine,
    build_multipod,
    scaled_testbed,
)
from repro.topology.leafspine import parallel_label
from repro.units import microseconds, seconds
from repro.workloads import WORKLOADS

# Small enough that one point simulates in well under a second.
TINY = ExperimentSpec(
    scheme="ecmp",
    workload="web-search",
    load=0.4,
    num_flows=12,
    size_scale=0.02,
)


#: A monitor spec naming ``index`` in the tier that is its last word.
MONITOR_AT = {
    "imbalance, leaf": lambda i: {"imbalance_monitor": ImbalanceMonitorSpec(leaf=i)},
    "spine tier, spine": lambda i: {"queue_monitor": QueueMonitorSpec(spine=i)},
    "spine tier, leaf": lambda i: {"queue_monitor": QueueMonitorSpec(leaf=i)},
    "leaf tier, leaf": lambda i: {
        "queue_monitor": QueueMonitorSpec(tier="leaf", direction="up", leaf=i)
    },
    "leaf tier, spine": lambda i: {
        "queue_monitor": QueueMonitorSpec(tier="leaf", direction="up", spine=i)
    },
}


def assert_summaries_equal(*summaries):
    """Field-wise equality that treats NaN == NaN (empty size buckets)."""
    first = summaries[0]
    for other in summaries[1:]:
        for field in dataclasses.fields(first):
            a = getattr(first, field.name)
            b = getattr(other, field.name)
            if isinstance(a, float) and math.isnan(a):
                assert math.isnan(b), field.name
            else:
                assert a == b, field.name


class TestSchemeRegistry:
    def test_get_scheme_returns_registered_spec(self):
        assert get_scheme("conga").name == "conga"

    def test_unknown_scheme_error_lists_available(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            get_scheme("bogus")
        message = str(excinfo.value)
        assert "bogus" in message
        assert "conga" in message and "ecmp" in message
        assert "register_scheme" in message

    def test_unknown_scheme_is_a_value_error(self):
        with pytest.raises(ValueError):
            get_scheme("bogus")

    def test_register_rejects_duplicates_unless_replace(self):
        spec = SchemeSpec("test-dup", lambda: EcmpSelector, tcp_flow_factory)
        register_scheme(spec, replace=True)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scheme(spec)
            register_scheme(spec, replace=True)  # idempotent with replace
        finally:
            del SCHEMES["test-dup"]

    def test_registered_scheme_usable_by_name(self):
        register_scheme(
            SchemeSpec("test-ecmp2", lambda: EcmpSelector, tcp_flow_factory),
            replace=True,
        )
        try:
            point = TINY.with_(scheme="test-ecmp2").run()
            assert point.scheme == "test-ecmp2"
            assert point.completed == TINY.num_flows
        finally:
            del SCHEMES["test-ecmp2"]

    def test_unknown_workload_error_lists_available(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            get_workload("bogus")
        assert "web-search" in str(excinfo.value)

    def test_get_workload(self):
        assert get_workload("enterprise") is WORKLOADS["enterprise"]


class TestExperimentSpec:
    def test_normalizes_clients_and_failed_links_to_tuples(self):
        spec = TINY.with_(clients=range(8, 16), failed_links=[(1, 1, 0)])
        assert spec.clients == tuple(range(8, 16))
        assert spec.failed_links == ((1, 1, 0),)

    @pytest.mark.parametrize("host", [999, -1])
    def test_an_out_of_range_client_is_refused_typed(self, host):
        # The scaled testbed has 16 hosts; a bad one used to surface as a
        # bare KeyError from the traffic generator's leaf lookup.  The spec
        # refuses it when it is constructed.
        with pytest.raises(
            ValueError, match=rf"client host {host} out of range .*\(0\.\.15\)"
        ):
            ExperimentSpec("ecmp", "enterprise", 0.5, num_flows=5, clients=(host,))

    def test_rejects_bad_load_and_flows(self):
        with pytest.raises(ValueError):
            TINY.with_(load=0.0)
        with pytest.raises(ValueError):
            TINY.with_(num_flows=0)

    @pytest.mark.parametrize(
        "name, value",
        [("load", math.inf), ("load", math.nan), ("size_scale", 0.0),
         ("size_scale", -0.5), ("size_scale", math.inf), ("size_scale", math.nan)],
    )
    def test_rejects_a_non_finite_load_and_a_non_positive_size_scale(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            TINY.with_(**{name: value})

    def test_content_hash_is_stable_across_equal_specs(self):
        a = TINY.with_(failed_links=[(1, 1, 0)])
        b = TINY.with_(failed_links=[(1, 1, 0)])
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_content_hash_changes_with_any_field(self):
        base = TINY.content_hash()
        assert TINY.with_(seed=2).content_hash() != base
        assert TINY.with_(load=0.41).content_hash() != base
        assert TINY.with_(scheme="conga").content_hash() != base
        assert (
            TINY.with_(config=scaled_testbed(hosts_per_leaf=4)).content_hash()
            != base
        )
        assert (
            TINY.with_(queue_monitor=QueueMonitorSpec()).content_hash() != base
        )

    def test_spec_pickles(self):
        spec = TINY.with_(
            config=scaled_testbed(),
            queue_monitor=QueueMonitorSpec(tier="spine", direction="down"),
            imbalance_monitor=ImbalanceMonitorSpec(leaf=0),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_run_produces_picklable_result(self):
        point = TINY.run()
        clone = pickle.loads(pickle.dumps(point))
        assert_summaries_equal(clone.summary, point.summary)
        assert clone.records == point.records
        assert clone.arrivals == point.arrivals == TINY.num_flows
        assert clone.fabric_drops == point.fabric_drops
        assert point.events_executed > 0
        assert point.events_per_sec > 0

    def test_monitor_specs_resolve_on_fabric(self):
        sim = Simulator(seed=1)
        fabric = build_leaf_spine(sim, scaled_testbed())
        hotspot = QueueMonitorSpec(
            tier="spine", direction="down", spine=1, leaf=1
        )
        ports = hotspot.resolve(fabric)
        assert ports and all(p.name.startswith("spine1->leaf1") for p in ports)
        every = QueueMonitorSpec(tier="fabric", direction="both").resolve(fabric)
        assert len(every) > len(ports)
        uplinks = QueueMonitorSpec(
            tier="leaf", direction="up", leaf=0
        ).resolve(fabric)
        assert uplinks and all(p.name.startswith("leaf0.") for p in uplinks)

    @pytest.mark.parametrize(
        "build, config, spine_name",
        [
            (build_leaf_spine, scaled_testbed(hosts_per_leaf=2), "spine0"),
            (build_multipod, MultiPodConfig(), "pod0-spine0"),
        ],
        ids=["leaf-spine", "multipod"],
    )
    def test_spine_tier_is_the_leaf_facing_ports_only(self, build, config, spine_name):
        # A pod spine's ports include its core uplinks (pod0-spine0->core0,
        # ->core1); tier "spine" is documented as the spine->leaf ports.
        fabric = build(Simulator(seed=1), config)
        names = [
            port.name
            for port in QueueMonitorSpec(tier="spine", direction="down", spine=0).resolve(fabric)
        ]
        assert names and all(n.startswith(f"{spine_name}->leaf") for n in names)
        toward_one = QueueMonitorSpec(tier="spine", direction="down", spine=0, leaf=1)
        assert [p.name for p in toward_one.resolve(fabric)] == [
            f"{spine_name}->{parallel_label('leaf1', which)}"
            for which in range(config.links_per_pair)
        ]

    def test_spine_tier_toward_another_pods_leaf_selects_nothing(self):
        fabric = build_multipod(Simulator(seed=1), MultiPodConfig())
        with pytest.raises(ValueError, match="selected no live ports"):
            QueueMonitorSpec(tier="spine", direction="down", spine=0, leaf=2).resolve(fabric)

    def test_monitor_resolve_excludes_failed_ports(self):
        sim = Simulator(seed=1)
        fabric = build_leaf_spine(sim, scaled_testbed())
        before = QueueMonitorSpec(
            tier="spine", direction="down", spine=1, leaf=1
        ).resolve(fabric)
        fabric.fail_link(1, 1, 0)
        after = QueueMonitorSpec(
            tier="spine", direction="down", spine=1, leaf=1
        ).resolve(fabric)
        assert len(after) == len(before) - 1

    def test_monitor_spec_validates_tier_direction(self):
        with pytest.raises(ValueError, match="samples 'down'"):
            QueueMonitorSpec(tier="spine", direction="up")
        with pytest.raises(ValueError, match="tier"):
            QueueMonitorSpec(tier="core", direction="down")

    @pytest.mark.parametrize(
        "tier, direction", [("spine", "down"), ("leaf", "up"), ("fabric", "both")]
    )
    def test_monitor_spec_derives_direction_from_tier(self, tier, direction):
        implied = QueueMonitorSpec(tier=tier)
        assert implied.direction == direction
        spelled = QueueMonitorSpec(tier=tier, direction=direction)
        assert implied == spelled and hash(implied) == hash(spelled)
        assert TINY.with_(queue_monitor=implied).content_hash() == (
            TINY.with_(queue_monitor=spelled).content_hash()
        )

    def test_fabric_tier_takes_no_leaf_or_spine(self):
        for index in ({"leaf": 1}, {"spine": 0}):
            with pytest.raises(ValueError, match="tier 'fabric'.*no leaf or spine"):
                QueueMonitorSpec(tier="fabric", direction="both", **index)

    @pytest.mark.parametrize("index", [-1, 9])
    @pytest.mark.parametrize(
        "config", [scaled_testbed(), MultiPodConfig()], ids=["leaf-spine", "multipod"]
    )
    @pytest.mark.parametrize("where", sorted(MONITOR_AT))
    def test_monitor_indices_are_checked_never_wrapped(self, where, config, index):
        kind = where.split()[-1]
        with pytest.raises(
            ValueError, match=rf"^{kind} {index} out of range for this topology \(0\.\.\d\)$"
        ):
            TINY.with_(config=config, **MONITOR_AT[where](index))

    def test_queue_monitor_runs_and_snapshots(self):
        point = TINY.with_(
            # A tiny run lasts well under a millisecond of simulated time,
            # so sample much faster than the 1 ms default.
            queue_monitor=QueueMonitorSpec(
                tier="spine", direction="down", spine=1, leaf=1,
                interval=microseconds(10),
            ),
            clients=range(8, 16),
            failed_links=[(1, 1, 0)],
        ).run()
        series = point.queue_series
        assert series is not None
        assert series.port_names
        assert all(name.startswith("spine1->leaf1") for name in series.port_names)
        assert len(series.series(series.port_names[0])) > 0


class TestSweepHelpers:
    def test_derive_seeds_deterministic_and_distinct(self):
        seeds = derive_seeds(31, 4)
        assert seeds == derive_seeds(31, 4)
        assert len(set(seeds)) == 4
        assert all(0 < s < 2**31 for s in seeds)
        assert derive_seeds(31, 4, stream="other") != seeds

    def test_derive_seeds_rejects_zero_count(self):
        with pytest.raises(ValueError):
            derive_seeds(1, 0)

    def test_sweep_grid_order_and_overrides(self):
        specs = sweep_grid(
            TINY, schemes=["ecmp", "conga"], loads=[0.3, 0.5], seeds=[1, 2]
        )
        assert len(specs) == 8
        # scheme varies fastest, then load, then seed.
        assert [(s.seed, s.load, s.scheme) for s in specs[:4]] == [
            (1, 0.3, "ecmp"),
            (1, 0.3, "conga"),
            (1, 0.5, "ecmp"),
            (1, 0.5, "conga"),
        ]
        assert specs[4].seed == 2
        # Axes not given keep the template's values.
        assert all(s.workload == TINY.workload for s in specs)
        assert all(s.num_flows == TINY.num_flows for s in specs)


class _ForbiddenBackend(Backend):
    name = "forbidden"

    def execute(self, specs, misses, report):
        raise AssertionError("backend must not be reached on a full cache hit")


class TestRunSweep:
    def test_empty_sweep(self):
        result = run_sweep([], cache=None)
        assert len(result) == 0
        assert result.executed == result.cached == 0

    @pytest.mark.parametrize(
        "argument",
        [{"workers": 0}, {"timeout": 5.0}, {"retries": 0}, {"retry_backoff": 0.0}],
        ids=lambda argument: next(iter(argument)),
    )
    def test_backend_plus_a_local_backend_argument_is_refused(self, argument):
        (name,) = argument
        with pytest.raises(ValueError, match=rf"ignore {name}; set them on the backend"):
            run_sweep([TINY], cache=None, backend=_ForbiddenBackend(), **argument)

    def test_serial_sweep_and_point_lookup(self, tmp_path):
        specs = sweep_grid(TINY, schemes=["ecmp", "conga"], loads=[0.3, 0.5])
        sweep = run_sweep(specs, workers=0, cache=tmp_path / "cache")
        assert sweep.executed == 4 and sweep.cached == 0
        assert [p.spec for p in sweep] == specs
        point = sweep.point(scheme="conga", load=0.5)
        assert point.scheme == "conga" and point.load == 0.5
        with pytest.raises(LookupError):
            sweep.point(scheme="conga")  # matches two loads
        with pytest.raises(LookupError):
            sweep.point(scheme="hedera")

    def test_progress_lines_emitted(self, tmp_path):
        lines = []
        run_sweep(
            [TINY], workers=0, cache=tmp_path / "cache", progress=lines.append
        )
        assert len(lines) == 1
        assert "ecmp web-search" in lines[0] and "events" in lines[0]

    def test_progress_lines_are_pinned(self, tmp_path):
        # A scripted backend fixes the wall clock; the strings were recorded
        # on the four-channel runner these lines are now rendered without.
        point = dataclasses.replace(TINY.run(), wall_seconds=0.25)
        failed = TINY.with_(seed=2)
        failure = PointFailure(
            failed, "RuntimeError: boom", kind="exception", attempts=2,
            wall_seconds=0.125,
        )

        class Scripted(Backend):
            name = "scripted"

            def execute(self, specs, misses, report):
                report("point_completed", misses[0], result=point)
                report("point_failed", misses[1], failure=failure)

        lines = []
        cache = ResultCache(tmp_path / "cache")
        run_sweep([TINY, failed], cache=cache, backend=Scripted(), progress=lines.append)
        run_sweep([TINY], cache=cache, progress=lines.append)
        assert lines == [
            "[1/2] ecmp web-search load=0.4 seed=1: 0.25s wall, 3466 events, 14k ev/s",
            "[2/2] ecmp web-search load=0.4 seed=2: FAILED (exception, attempt 2): "
            "RuntimeError: boom",
            "[1/1] ecmp web-search load=0.4 seed=1: cached",
        ]

    def test_identical_specs_in_one_sweep_run_once(self, tmp_path):
        sweep = run_sweep([TINY, TINY], workers=0, cache=tmp_path / "cache")
        assert sweep.executed == 1
        assert_summaries_equal(
            sweep.points[0].summary, sweep.points[1].summary
        )

    def test_second_sweep_served_entirely_from_cache(self, tmp_path):
        specs = sweep_grid(TINY, schemes=["ecmp", "conga"], loads=[0.3, 0.5])
        cache = ResultCache(tmp_path / "cache")
        first = run_sweep(specs, workers=0, cache=cache)
        assert first.executed == len(specs)
        assert len(cache) == len(specs)
        # Poisoned backend: any attempt to execute (rather than serve from
        # cache) blows up, proving zero submissions.
        lines = []
        second = run_sweep(
            specs,
            cache=cache,
            backend=_ForbiddenBackend(),
            progress=lines.append,
        )
        assert second.executed == 0
        assert second.cached == len(specs)
        assert second.all_cached
        assert all(p.from_cache for p in second)
        assert all(line.endswith("cached") for line in lines)
        for a, b in zip(first, second):
            assert_summaries_equal(a.summary, b.summary)
            assert a.records == b.records

    @pytest.mark.parametrize(
        "garbage",
        [b"not a pickle", b"garbage\n", b""],
        ids=["unpicklingerror", "valueerror", "empty"],
    )
    def test_corrupt_cache_entry_is_a_miss(self, tmp_path, garbage):
        cache = ResultCache(tmp_path / "cache")
        run_sweep([TINY], workers=0, cache=cache)
        path = cache.path(TINY)
        path.write_bytes(garbage)
        again = run_sweep([TINY], workers=0, cache=cache)
        assert again.executed == 1  # re-ran instead of crashing
        assert cache.get(TINY) is not None  # and repopulated the entry

    def test_flipped_bits_are_an_identical_hit_or_a_deleting_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(TINY, TINY.run())
        pristine = path.read_bytes()
        reference = pickle.dumps(cache.get(TINY))
        bits = len(pristine) * 8
        # Every bit of the header and the pickle's opening, then a stride
        # through the rest of the entry.
        flips = [*range(512), *range(512, bits, max(1, bits // 600))]
        outcomes = {"hit": 0, "miss": 0}
        for bit in flips:
            corrupt = bytearray(pristine)
            corrupt[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(corrupt)
            hit = cache.get(TINY)
            if hit is None:
                assert not path.exists(), f"bit {bit}: a miss must delete the entry"
                outcomes["miss"] += 1
            else:
                assert pickle.dumps(hit) == reference, f"bit {bit}: a different hit"
                outcomes["hit"] += 1
        assert outcomes["miss"] == len(flips)  # the checksum covers every byte

    def test_an_entry_that_is_not_a_point_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        # A headerless entry, as entries were written before the checksum.
        cache.root.mkdir(parents=True)
        cache.path(TINY).write_bytes(pickle.dumps({"spec": None}))
        assert cache.get(TINY) is None
        assert not cache.path(TINY).exists()

    def test_cache_disabled(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sweep = run_sweep([TINY, TINY.with_(seed=2)], workers=0, cache=None)
        assert sweep.executed == 2
        assert not (tmp_path / DEFAULT_CACHE_DIR).exists()

    def test_version_change_invalidates_cache(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        run_sweep([TINY], workers=0, cache=cache)
        import repro

        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert cache.get(TINY) is None

    def test_parallel_results_bit_identical_to_serial(self, tmp_path):
        # The acceptance-shaped sweep: 3 schemes x 4 loads = 12 points.
        specs = sweep_grid(
            TINY,
            schemes=["ecmp", "conga", "mptcp"],
            loads=[0.3, 0.4, 0.5, 0.6],
        )
        serial = run_sweep(specs, workers=0, cache=None)
        one_worker = run_sweep(specs, workers=1, cache=None)
        four_workers = run_sweep(
            specs, workers=4, cache=tmp_path / "cache"
        )
        for a, b, c in zip(serial, one_worker, four_workers):
            assert_summaries_equal(a.summary, b.summary, c.summary)
            assert a.records == b.records == c.records
            assert a.fabric_drops == b.fabric_drops == c.fabric_drops
            assert a.end_time == b.end_time == c.end_time
            assert (
                a.events_executed == b.events_executed == c.events_executed
            )


class TestKernelRegressions:
    def test_pending_live_events_prunes_cancelled_top(self):
        sim = Simulator()
        cancelled = sim.schedule(10, lambda: None)
        live = sim.schedule(20, lambda: None)
        assert sim.pending_live_events == 2
        Simulator.cancel(cancelled)
        assert sim.pending_live_events == 1  # pruned off the heap top
        assert sim.pending_events == 1  # physically removed, too
        Simulator.cancel(live)
        assert sim.pending_live_events == 0

    def test_pending_live_events_keeps_buried_cancelled(self):
        sim = Simulator()
        live = sim.schedule(5, lambda: None)
        buried = sim.schedule(10, lambda: None)
        Simulator.cancel(buried)
        # The cancelled event is not at the top; counted until it surfaces.
        assert sim.pending_live_events == 2
        sim.run()
        assert sim.now == 5  # the cancelled event never advanced the clock

    def test_run_until_idle_ignores_cancelled_far_future_timer(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        stale = sim.schedule(seconds(3600), lambda: None)  # a disarmed RTO
        Simulator.cancel(stale)
        run_until_idle(sim, quantum=seconds(1), max_quanta=5)
        # Before the fix this burned one quantum per loop until the stale
        # timestamp passed (an hour of simulated time); now it exits as soon
        # as only cancelled events remain.
        assert sim.now <= seconds(1)

    def test_event_ties_break_in_fifo_order(self):
        sim = Simulator()
        order = []
        for tag in ("a", "b", "c"):
            sim.schedule(10, lambda tag=tag: order.append(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_perf_counters_accumulate(self):
        sim = Simulator()
        for delay in (1, 2, 3):
            sim.schedule(delay, lambda: None)
        sim.run()
        assert sim.events_executed == 3
        assert sim.wall_seconds > 0.0
        assert sim.events_per_sec > 0.0
