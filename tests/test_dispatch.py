"""Tests for the dispatcher redesign: backends, the dispatcher, the worker.

The core guarantee under test is backend interchangeability — a point run
is a pure function of its spec, so the ``subprocess`` backend must
produce the same :meth:`SweepResult.digest` as the historical in-process
pool.  The worker protocol itself is exercised hermetically through
:func:`repro.runner.worker.serve` over ``StringIO`` pipes.
"""

from __future__ import annotations

import base64
import io
import json
import pickle
import sys

import pytest

from repro.apps import ExperimentSpec, PointResult
from repro.runner import (
    BACKENDS,
    Backend,
    Dispatcher,
    LocalBackend,
    PointFailure,
    SubprocessBackend,
    get_backend,
)
from repro.runner.worker import serve

# Small enough that one point simulates in well under a second.
TINY = ExperimentSpec(
    scheme="ecmp",
    workload="web-search",
    load=0.4,
    num_flows=12,
    size_scale=0.02,
)
GRID = (TINY, TINY.with_(scheme="conga"))


def protocol(*messages: object) -> list[dict]:
    """Feed raw lines through the worker; return its decoded replies."""
    lines = [
        m if isinstance(m, str) else json.dumps(m) for m in messages
    ]
    out = io.StringIO()
    assert serve(io.StringIO("\n".join(lines) + "\n"), out) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


def encode_spec(spec: ExperimentSpec) -> str:
    return base64.b64encode(
        pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


class TestBackendRegistry:
    def test_registry_names_match_classes(self):
        assert get_backend("local") is LocalBackend
        assert get_backend("subprocess") is SubprocessBackend
        assert set(BACKENDS) == {"local", "subprocess"}

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError, match="local.*subprocess"):
            get_backend("bogus")

    def test_backend_classes_expose_names(self):
        for name, cls in BACKENDS.items():
            assert issubclass(cls, Backend)
            assert cls.name == name

    def test_subprocess_backend_validates_knobs(self):
        with pytest.raises(ValueError, match="at least one worker"):
            SubprocessBackend(workers=0)
        with pytest.raises(ValueError, match="retries"):
            SubprocessBackend(retries=-1)


class TestWorkerProtocol:
    def test_ping_and_exit(self):
        replies = protocol({"op": "ping"}, {"op": "exit"})
        assert replies == [
            {"ok": True, "op": "pong"},
            {"ok": True, "op": "exit"},
        ]

    def test_run_matches_inline_execution(self):
        replies = protocol(
            {"op": "init", "workloads": []},
            {"op": "run", "id": 7, "spec": encode_spec(TINY)},
            {"op": "exit"},
        )
        assert replies[0] == {"ok": True, "op": "init"}
        reply = replies[1]
        assert reply["ok"] and reply["id"] == 7
        result = pickle.loads(base64.b64decode(reply["result"]))
        assert isinstance(result, PointResult)
        local = TINY.run()
        assert result.spec == local.spec
        assert result.records == local.records

    def test_run_failure_is_structured(self):
        blob = base64.b64encode(b"not a pickle").decode("ascii")
        replies = protocol(
            {"op": "run", "id": 3, "spec": blob}, {"op": "exit"}
        )
        reply = replies[0]
        assert reply["id"] == 3
        assert reply["ok"] is False
        assert reply["kind"] == "exception"
        assert reply["error"]

    def test_malformed_lines_do_not_kill_the_worker(self):
        replies = protocol(
            "this is not json",
            json.dumps(["not", "an", "object"]),
            {"op": "frobnicate"},
            {"op": "ping"},
            {"op": "exit"},
        )
        assert [r.get("kind") for r in replies[:3]] == ["protocol"] * 3
        assert all(r["ok"] is False for r in replies[:3])
        assert "frobnicate" in replies[2]["error"]
        assert replies[3] == {"ok": True, "op": "pong"}

    def test_eof_without_exit_returns_cleanly(self):
        out = io.StringIO()
        assert serve(io.StringIO(""), out) == 0
        assert out.getvalue() == ""


class TestDispatcher:
    def test_empty_grid_short_circuits(self):
        dispatcher = Dispatcher(LocalBackend(workers=0), cache=None)
        result = dispatcher.run([])
        assert len(result) == 0
        assert result.executed == result.cached == 0
        assert dispatcher.last_result is result

    def test_string_backend_resolves_via_registry(self):
        dispatcher = Dispatcher("local", cache=None)
        assert isinstance(dispatcher.backend, LocalBackend)

    def test_cache_hits_skip_the_backend(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = Dispatcher(LocalBackend(workers=0), cache=cache_dir).run(
            [TINY]
        )
        assert first.executed == 1 and first.cached == 0

        class ExplodingBackend(Backend):
            name = "exploding"

            def execute(self, specs, misses, *, finish, fail,
                        metrics=None, telemetry=None):
                raise AssertionError("backend should not be reached")

        second = Dispatcher(ExplodingBackend(), cache=cache_dir).run([TINY])
        assert second.executed == 0 and second.cached == 1
        assert second.digest() == first.digest()

    def test_duplicate_specs_computed_once(self):
        result = Dispatcher(LocalBackend(workers=0), cache=None).run(
            [TINY, TINY, TINY]
        )
        assert result.executed == 1
        assert len(result) == 3
        assert result.points[0] is result.points[1] is result.points[2]
        assert result.metrics is not None
        assert result.metrics.counters["sweep.duplicates"] == 2


class TestSubprocessBackend:
    def test_worker_death_fails_point_as_crash(self):
        # A "worker" that acks init then exits: every run attempt sees a
        # dead child, burns a restart, and the point fails as a crash.
        script = (
            "import json, sys\n"
            "sys.stdin.readline()\n"
            "print(json.dumps({'ok': True, 'op': 'init'}), flush=True)\n"
        )
        backend = SubprocessBackend(
            workers=1,
            command=[sys.executable, "-u", "-c", script],
            retries=1,
            retry_backoff=0.0,
            max_worker_restarts=2,
        )
        failures: dict[int, PointFailure] = {}
        backend.execute(
            [TINY],
            [0],
            finish=lambda i, r: pytest.fail("point should not succeed"),
            fail=failures.__setitem__,
        )
        assert set(failures) == {0}
        assert failures[0].kind == "crash"
        assert failures[0].attempts >= 1

    def test_unspawnable_worker_fails_all_points(self):
        backend = SubprocessBackend(
            workers=2,
            command=[sys.executable, "-c", "import sys; sys.exit(1)"],
            retries=0,
            retry_backoff=0.0,
            max_worker_restarts=0,
        )
        failures: dict[int, PointFailure] = {}
        backend.execute(
            list(GRID),
            [0, 1],
            finish=lambda i, r: pytest.fail("point should not succeed"),
            fail=failures.__setitem__,
        )
        assert set(failures) == {0, 1}
        assert all(f.kind == "crash" for f in failures.values())

    @pytest.mark.scenario_smoke
    def test_digest_matches_local_backend(self):
        # The acceptance check for backend interchangeability: the same
        # grid through two subprocess workers and through the in-process
        # path must agree bit-for-bit on what was computed.
        local = Dispatcher(LocalBackend(workers=0), cache=None).run(
            list(GRID)
        )
        remote = Dispatcher(
            SubprocessBackend(workers=2, retries=0), cache=None
        ).run(list(GRID))
        assert remote.executed == len(GRID)
        assert not remote.failures
        assert remote.digest() == local.digest()
