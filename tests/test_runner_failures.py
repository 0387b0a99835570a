"""Fault tolerance of the sweep runner itself.

The fault plane's second half: ``run_sweep`` must survive points that
raise, hang, or kill their worker process, return a structured
:class:`PointFailure` in the failing point's input-order slot, and keep
the result cache uncorrupted throughout.  Every chaos sweep here also
collects its event stream (:func:`observed_sweep`): the ``sweep.*``
counters must be exactly the fold of those events, and each miss must get
exactly one terminal event.

The chaos schemes here misbehave *inside* ``make_selector`` so the damage
happens in the worker that executes the point, not at spec construction.
They are registered at import time: forked workers inherit that, and
exec'd workers are launched with a command that imports this module.
"""

import base64
import functools
import io
import json
import os
import pickle
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.apps import ExperimentSpec
from repro.apps.experiment import SchemeSpec, register_scheme
from repro.apps.traffic import tcp_flow_factory
from repro.lb import EcmpSelector
from repro.runner import (
    LocalBackend,
    PointFailure,
    ResultCache,
    SubprocessBackend,
    run_sweep,
    worker,
)
from repro.runner.failures import FAILURE_KINDS


def _crash_selector():
    os._exit(3)  # simulates a segfault / OOM kill: no exception, no cleanup


def _sleep_selector():
    time.sleep(15.0)  # far beyond any test timeout; killed, never finishes
    return EcmpSelector.factory()


def _error_selector():
    raise RuntimeError("chaos: injected point failure")


def _print_selector():
    print("chaos: a point that prints")
    return EcmpSelector.factory()


def _nap_selector(nap):
    """Log one line per execution to $REPRO_CHAOS_LOG, then sleep ``nap`` s."""

    def make_selector():
        with open(os.environ["REPRO_CHAOS_LOG"], "a") as log:
            log.write(f"{nap}\n")
        time.sleep(nap)
        return EcmpSelector.factory()

    return make_selector


for _name, _selector in (
    ("chaos-crash", _crash_selector),
    ("chaos-sleep", _sleep_selector),
    ("chaos-error", _error_selector),
    ("chaos-print", _print_selector),
    ("chaos-nap-1.0", _nap_selector(1.0)),
    ("chaos-nap-1.5", _nap_selector(1.5)),
):
    register_scheme(SchemeSpec(_name, _selector, tcp_flow_factory), replace=True)


#: A worker command whose fresh interpreter knows the chaos schemes.
_CHAOS_WORKER = [
    sys.executable, "-u", "-c",
    "import sys, tests.test_runner_failures\n"
    "from repro.runner import worker\n"
    "sys.exit(worker.main())",
]


@pytest.fixture(params=["fork", "exec"])
def make_backend(request, monkeypatch):
    """The parallel backend constructor, once per way of launching a child."""
    if request.param == "fork":
        return LocalBackend
    repo_root = str(Path(__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH",
        repo_root if not inherited else repo_root + os.pathsep + inherited,
    )
    return functools.partial(SubprocessBackend, command=_CHAOS_WORKER)


#: Independent of the runner's own table: what each event adds to ``sweep.*``.
_KIND_COUNTERS = {
    "exception": "sweep.exceptions",
    "timeout": "sweep.timeouts",
    "crash": "sweep.crashes",
}
_SLOT_COUNTERS = {
    "total": "sweep.points",
    "executed": "sweep.executed",
    "duplicates": "sweep.duplicates",
    "failures": "sweep.failures",
}


def fold(events: list[dict]) -> dict[str, int]:
    """The ``sweep.*`` counters a sweep's telemetry events add up to."""
    counts = {"sweep.cache_hits": 0, "sweep.worker_restarts": 0}

    def add(name: str) -> None:
        counts[name] = counts.get(name, 0) + 1

    for event in events:
        name = event["event"]
        if name == "cache_hit":
            add("sweep.cache_hits")
        elif name == "worker_restart":
            add("sweep.worker_restarts")
        elif name == "attempt_failed":
            add(_KIND_COUNTERS[event["kind"]])
            if event["retry"]:
                add("sweep.retries")
        elif name == "sweep_finished":
            counts.update({c: event[f] for f, c in _SLOT_COUNTERS.items()})
    return counts


def observed_sweep(specs, **kwargs):
    """``run_sweep`` with a callable sink; checks the stream against the result."""
    events: list[dict] = []
    sweep = run_sweep(specs, telemetry=events.append, **kwargs)
    assert sweep.metrics.counters == fold(events)
    terminal = Counter(
        e["index"] for e in events if e["event"] in ("point_completed", "point_failed")
    )
    hits = {e["index"] for e in events if e["event"] == "cache_hit"}
    assert terminal == Counter(i for i in range(len(specs)) if i not in hits)
    assert [e["seq"] for e in events] == list(range(len(events)))
    return sweep, events


def _tiny(scheme, seed=1):
    return ExperimentSpec(
        scheme, "enterprise", 0.4, seed=seed, num_flows=12, size_scale=0.02
    )


# ---------------------------------------------------------------------------
# PointFailure value semantics


def test_point_failure_validation():
    spec = _tiny("ecmp")
    with pytest.raises(ValueError):
        PointFailure(spec, "boom", kind="meteor", attempts=1, wall_seconds=0.0)
    with pytest.raises(ValueError):
        PointFailure(spec, "boom", kind="crash", attempts=0, wall_seconds=0.0)
    failure = PointFailure(spec, "boom", kind="exception", attempts=2, wall_seconds=0.1)
    assert failure.scheme == "ecmp"
    assert failure.workload == "enterprise"
    assert failure.load == 0.4
    assert not failure.from_cache
    assert set(FAILURE_KINDS) == {"exception", "timeout", "crash"}


# ---------------------------------------------------------------------------
# Inline (workers=0) failure handling


def test_inline_exception_becomes_point_failure(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    specs = [_tiny("ecmp"), _tiny("chaos-error")]
    sweep, _ = observed_sweep(specs, workers=0, cache=cache, retries=1, retry_backoff=0.0)
    assert len(sweep.points) == 2  # one entry per spec, in input order
    good, bad = sweep.points
    assert good.spec.scheme == "ecmp" and good.completed == good.arrivals
    assert isinstance(bad, PointFailure)
    assert bad.kind == "exception"
    assert bad.attempts == 2  # first try + one retry
    assert "chaos: injected point failure" in bad.error
    assert sweep.failures == [bad]
    # Only the good point was cached; failures are never cached.
    assert len(cache) == 1
    assert cache.get(specs[0]) is not None
    assert cache.get(specs[1]) is None
    # events_executed must skip failures rather than crash on them.
    assert sweep.events_executed == good.events_executed


def test_inline_retry_can_succeed(monkeypatch):
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient")
        return EcmpSelector.factory()

    register_scheme(
        SchemeSpec("chaos-flaky", flaky, tcp_flow_factory), replace=True
    )
    sweep, _ = observed_sweep(
        [_tiny("chaos-flaky")], workers=0, cache=None, retries=1, retry_backoff=0.0
    )
    assert sweep.failures == []
    assert sweep.points[0].completed == sweep.points[0].arrivals


# ---------------------------------------------------------------------------
# Misbehaving points on worker processes (the chaos-smoke gate in CI)


@pytest.mark.chaos_smoke
def test_worker_crash_yields_one_failure_and_clean_cache(tmp_path, make_backend):
    cache = ResultCache(tmp_path / "cache")
    specs = [
        _tiny("ecmp", seed=1),
        _tiny("chaos-crash"),
        _tiny("ecmp", seed=2),
        _tiny("conga", seed=1),
    ]
    sweep, _ = observed_sweep(
        specs,
        cache=cache,
        backend=make_backend(workers=2, retries=1, retry_backoff=0.0),
    )
    assert len(sweep.points) == 4
    failures = sweep.failures
    assert len(failures) == 1
    assert failures[0].kind == "crash"
    assert failures[0].spec.scheme == "chaos-crash"
    assert failures[0].attempts == 2
    assert sweep.metrics.counters["sweep.crashes"] == 2
    # Every good point completed despite sharing the sweep with the crasher.
    good = [p for p in sweep.points if not isinstance(p, PointFailure)]
    assert len(good) == 3
    assert all(p.completed == p.arrivals for p in good)
    # The cache holds exactly the three good results and no debris.
    assert len(cache) == 3
    assert not list((tmp_path / "cache").glob("*.tmp.*"))
    for spec, point in zip(specs, sweep.points):
        if not isinstance(point, PointFailure):
            assert cache.get(spec) is not None


@pytest.mark.chaos_smoke
def test_point_timeout_is_killed_and_reported(tmp_path, make_backend):
    cache = ResultCache(tmp_path / "cache")
    specs = [_tiny("chaos-sleep"), _tiny("ecmp", seed=3), _tiny("ecmp", seed=4)]
    sweep, _ = observed_sweep(
        specs,
        cache=cache,
        backend=make_backend(
            workers=2, timeout=2.0, retries=0, retry_backoff=0.0
        ),
    )
    failures = sweep.failures
    assert len(failures) == 1
    assert failures[0].kind == "timeout"
    assert failures[0].spec.scheme == "chaos-sleep"
    good = [p for p in sweep.points if not isinstance(p, PointFailure)]
    assert len(good) == 2
    assert all(p.completed == p.arrivals for p in good)
    assert len(cache) == 2


@pytest.mark.chaos_smoke
def test_worker_exception_is_retried_and_reported(make_backend):
    specs = [_tiny("ecmp"), _tiny("chaos-error")]
    sweep, events = observed_sweep(
        specs,
        cache=None,
        backend=make_backend(workers=2, retries=1, retry_backoff=0.0),
    )
    attempts = [e for e in events if e["event"] == "attempt_failed"]
    assert [(e["index"], e["kind"], e["retry"]) for e in attempts] == [
        (1, "exception", True),
        (1, "exception", False),
    ]
    assert all(e["label"] == specs[1].label() for e in attempts)
    good, bad = sweep.points
    assert good.completed == good.arrivals
    assert isinstance(bad, PointFailure)
    assert bad.kind == "exception"
    assert bad.attempts == 2
    assert "chaos: injected point failure" in bad.error
    # The worker survived the exception: nothing was restarted for it.
    assert sweep.metrics.counters["sweep.exceptions"] == 2
    assert sweep.metrics.counters["sweep.worker_restarts"] == 0


@pytest.mark.chaos_smoke
def test_hanging_points_time_out_however_many_there_are():
    # More hangers than any restart budget: each must still be killed at
    # its deadline, on a worker, never run in this process.  (Forked
    # workers only: an exec'd replacement's start-up is not what is timed.)
    workers, timeout, retries = 2, 1.0, 1
    specs = [_tiny("chaos-sleep", seed=seed) for seed in range(1, 6)]
    specs.insert(2, _tiny("ecmp"))
    started = time.perf_counter()
    sweep, _ = observed_sweep(
        specs,
        workers=workers,
        cache=None,
        timeout=timeout,
        retries=retries,
        retry_backoff=0.0,
    )
    wall = time.perf_counter() - started
    assert [f.kind for f in sweep.failures] == ["timeout"] * 5
    assert all(f.attempts == retries + 1 for f in sweep.failures)
    healthy = sweep.points[2]
    assert not isinstance(healthy, PointFailure)
    assert healthy.completed == healthy.arrivals
    assert wall < 2 * 5 * (retries + 1) * timeout / workers


@pytest.mark.chaos_smoke
def test_timeout_kills_only_the_overdue_worker(tmp_path, monkeypatch):
    # One worker naps 1.0 s then 1.5 s; the other hangs and is killed at
    # 2.0 s, while the second nap is in flight.  The napper must not lose
    # its work to the kill: each nap is executed exactly once.
    log = tmp_path / "executions.log"
    monkeypatch.setenv("REPRO_CHAOS_LOG", str(log))
    specs = [_tiny("chaos-nap-1.0"), _tiny("chaos-sleep"), _tiny("chaos-nap-1.5")]
    sweep, _ = observed_sweep(
        specs, workers=2, cache=None, timeout=2.0, retries=0, retry_backoff=0.0
    )
    assert [f.spec.scheme for f in sweep.failures] == ["chaos-sleep"]
    assert sweep.failures[0].kind == "timeout"
    assert sorted(log.read_text().split()) == ["1.0", "1.5"]
    assert sweep.metrics.counters["sweep.worker_restarts"] == 1
    assert sweep.metrics.counters["sweep.timeouts"] == 1


def test_a_worker_that_never_acknowledges_init_is_retired_at_the_timeout():
    # A child that neither acks nor exits: only the init deadline ends it.
    deaf = [sys.executable, "-c", "import time; time.sleep(15)"]
    backend = SubprocessBackend(
        workers=1, command=deaf, timeout=1.0, max_worker_restarts=0
    )
    started = time.perf_counter()
    sweep, _ = observed_sweep([_tiny("ecmp")], backend=backend, cache=None)
    assert time.perf_counter() - started < 5.0
    [failure] = sweep.failures
    assert failure.kind == "crash"
    assert "init handshake within the 1s timeout" in failure.error
    assert sweep.metrics.counters["sweep.worker_restarts"] == 1


def test_printing_point_cannot_corrupt_the_reply_stream(monkeypatch):
    blob = base64.b64encode(pickle.dumps(_tiny("chaos-print"))).decode()
    requests = [{"op": "init"}, {"op": "run", "id": 7, "spec": blob}, {"op": "exit"}]
    monkeypatch.setattr(
        sys, "stdin", io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
    )
    protocol, stderr = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", protocol)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert worker.main() == 0
    assert sys.stdout is protocol  # restored after serving
    replies = [json.loads(line) for line in protocol.getvalue().splitlines()]
    assert [r.get("op", r.get("id")) for r in replies] == ["init", 7, "exit"]
    assert all(r["ok"] for r in replies)
    assert "chaos: a point that prints" in stderr.getvalue()


# ---------------------------------------------------------------------------
# Cache hardening


def test_cache_put_failure_leaves_no_debris(tmp_path, monkeypatch):
    from repro.runner import cache as cache_module

    cache = ResultCache(tmp_path / "cache")
    spec = _tiny("ecmp")
    point = spec.run()

    def explode(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cache_module.pickle, "dump", explode)
    with pytest.raises(OSError):
        cache.put(spec, point)
    monkeypatch.undo()
    # No partial entry, no stale tmp file.
    assert cache.get(spec) is None
    assert list((tmp_path / "cache").iterdir()) == []
    # And a clean put still works afterwards.
    cache.put(spec, point)
    assert cache.get(spec) is not None


def test_cache_clear_sweeps_stale_tmp_files(tmp_path):
    root = tmp_path / "cache"
    cache = ResultCache(root)
    spec = _tiny("ecmp")
    cache.put(spec, spec.run())
    (root / "deadbeef.tmp.12345").write_bytes(b"partial write")
    assert cache.clear() == 1  # one real entry removed ...
    assert list(root.iterdir()) == []  # ... and the stale tmp swept up
    assert len(cache) == 0


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = _tiny("ecmp")
    path = cache.put(spec, spec.run())
    path.write_bytes(pickle.dumps(object())[:10])  # truncated garbage
    assert cache.get(spec) is None
    assert not path.exists()  # corrupt entry dropped, not left to re-fail


@pytest.mark.parametrize("headed", [True, False], ids=["checksummed", "headerless"])
def test_another_spec_s_entry_is_a_miss(tmp_path, headed):
    # A well-formed entry copied onto another spec's path: serving it would
    # pass ecmp's numbers off as conga's.
    cache = ResultCache(tmp_path / "cache")
    ecmp, conga = _tiny("ecmp"), _tiny("conga")
    result = ecmp.run()
    entry = cache.put(ecmp, result)
    if not headed:  # the format written before the checksum
        entry.write_bytes(pickle.dumps(result))
    shutil.copy(entry, cache.path(conga))
    assert cache.get(conga) is None
    assert not cache.path(conga).exists()
    assert cache.get(ecmp).spec == ecmp  # the right name still hits
