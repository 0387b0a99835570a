"""Execution backends: where a dispatched sweep's misses actually run.

A :class:`Backend` receives the sweep's spec list plus the indexes the
cache could not serve, and tells the sweep what happens to them through one
``report`` callback: exactly one terminal event (``point_completed`` or
``point_failed``) per index, and on the way ``attempt_failed`` per charged
attempt and ``worker_restart`` per lost child.  Because a point
run is a pure function of its spec, backends are interchangeable: the
same misses yield bit-identical results on any of them (that is what
:meth:`SweepResult.digest` checks).

There is one engine.  ``workers <= 1`` runs the misses in this process;
anything wider runs them in N child processes that each speak the
:mod:`repro.runner.worker` line protocol over a pipe pair, **one point in
flight per child**, driven from the calling thread by one ``selectors``
loop (:meth:`_Execution.run_workers`).  One in flight per child makes
blame definitive: a dead pipe charges ``crash`` to that child's point, a passed
deadline kills that child only and charges ``timeout``, an ``ok: false``
reply charges ``exception`` — and retry, backoff and
:class:`PointFailure` construction live once, in :class:`_Execution`.

The two shipped backends differ only in how a child is launched:

* :class:`LocalBackend` forks, so children inherit every scheme and
  workload registered in this process;
* :class:`SubprocessBackend` — or any backend given a ``command``, or a
  platform without ``os.fork`` — execs ``python -m repro.runner.worker``.
  The command is configurable, so pointing it at
  ``ssh host python -m repro.runner.worker`` is a one-line change.
"""

from __future__ import annotations

import abc
import base64
import json
import os
import pickle
import selectors
import signal
import subprocess
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import BinaryIO, Callable, Sequence

from repro.apps.spec import ExperimentSpec, load_engine
from repro.runner.failures import PointFailure, _describe
from repro.workloads import BUILTIN_WORKLOAD_NAMES, WORKLOADS

#: ``report(event, index=None, **fields)``: the one way a backend speaks.
ReportFn = Callable[..., None]

_DIED = "worker process died while running this point"


class Backend(abc.ABC):
    """Executes a sweep's cache misses; the pluggable half of dispatch.

    ``execute`` reports, from the thread that called it, exactly one of
    ``report("point_completed", index, result=...)`` or
    ``report("point_failed", index, failure=...)`` for every index in
    ``misses`` before returning.  A backend that retries reports each
    charged attempt as ``report("attempt_failed", index, kind=...,
    error=..., retry=...)``, and one with a worker lifecycle each lost child
    as ``report("worker_restart", index, worker=..., restarts=...,
    reason=...)`` (``index`` None when no point was in flight).  The sweep
    folds that one stream into its results, cache, counters, telemetry and
    progress lines.
    """

    #: Registry name (``--backend`` value on the CLI).
    name: str = "?"

    @abc.abstractmethod
    def execute(
        self,
        specs: Sequence[ExperimentSpec],
        misses: list[int],
        report: ReportFn,
    ) -> None:
        """Run ``specs[i]`` for every ``i`` in ``misses``."""


def _worker_command() -> list[str]:
    """The default worker invocation (this interpreter, this package)."""
    return [sys.executable, "-u", "-m", "repro.runner.worker"]


def _worker_env() -> dict[str, str]:
    """Child environment with this package importable, whatever the cwd."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    return env


def _runtime_workloads() -> list[dict]:
    """Init-handshake payload: workloads registered after import time."""
    return [
        {"name": dist.name, "points": [list(p) for p in dist.points]}
        for name, dist in sorted(WORKLOADS.items())
        if name not in BUILTIN_WORKLOAD_NAMES
    ]


@dataclass(eq=False)
class _Child:
    """One worker process and its pipe pair; at most one point in flight."""

    pid: int
    stdin: BinaryIO
    stdout: BinaryIO
    #: The ``Popen`` of an exec'd child; None for a forked one (reaped by pid).
    proc: subprocess.Popen | None = None
    #: Whether the init handshake has been acknowledged.
    ready: bool = False
    #: The point in flight, when it started, and when it is overdue.
    index: int | None = None
    started: float = 0.0
    deadline: float | None = None
    buffer: bytearray = field(default_factory=bytearray)

    def send(self, message: dict) -> None:
        """Write one protocol line; ``OSError`` when the child is gone."""
        self.stdin.write(json.dumps(message).encode("ascii") + b"\n")
        self.stdin.flush()

    def hang_up(self, *, kill: bool) -> None:
        """Ask an idle child to exit; kill one that is busy, deaf or dead."""
        if not kill:
            try:
                self.send({"op": "exit"})
                return
            except OSError:
                pass
        if self.proc is not None:
            self.proc.kill()
        else:
            os.kill(self.pid, signal.SIGKILL)

    def reap(self) -> None:
        """Wait for the child to exit (after :meth:`hang_up`), then close."""
        if self.proc is None:
            os.waitpid(self.pid, 0)
        else:
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # a command that ignores "exit"
                self.proc.kill()
                self.proc.wait()
        # Only now: a reader closed earlier turns the exit ack into EPIPE.
        for stream in (self.stdin, self.stdout):
            try:
                stream.close()
            except OSError:
                pass  # unflushed bytes for a dead child


def _fork_child(siblings: Sequence[_Child]) -> _Child:
    """Fork a child that serves the worker protocol on a fresh pipe pair.

    The child inherits this process as it is — import-time and runtime
    scheme/workload registrations included — and closes its copies of the
    ``siblings``' pipe ends, so that a pipe has exactly the two holders
    whose exit must read as EOF on it.  The engine is loaded here first, so
    every child starts with it warm instead of importing it on its own.
    """
    # Imported here: at module level it would pre-import the module that
    # ``python -m repro.runner.worker`` is about to execute as __main__.
    from repro.runner.worker import serve

    load_engine()

    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    # Or the child would one day flush its copy of what is buffered here.
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(request_w)
            os.close(reply_r)
            for sibling in siblings:
                os.close(sibling.stdin.fileno())
                os.close(sibling.stdout.fileno())
            with os.fdopen(request_r, "r") as requests, \
                    os.fdopen(reply_w, "w") as replies:
                code = serve(requests, replies)
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)  # never unwind into the parent's stack
    os.close(request_r)
    os.close(reply_w)
    return _Child(pid, os.fdopen(request_w, "wb"), os.fdopen(reply_r, "rb"))


def _exec_child(command: list[str]) -> _Child:
    """Start ``command`` as a child speaking the protocol on stdin/stdout."""
    proc = subprocess.Popen(
        command,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=_worker_env(),
    )
    assert proc.stdin is not None and proc.stdout is not None
    return _Child(proc.pid, proc.stdin, proc.stdout, proc)


class _Execution:
    """One ``execute`` call: the misses, their attempt ledger, the children.

    ``config`` is the backend whose ``timeout``, ``retries``,
    ``retry_backoff`` and ``max_worker_restarts`` apply.  The ledger half
    (:meth:`_charge`, :meth:`_give_up`) is the one place a failed attempt
    becomes a retry or a :class:`PointFailure`, for :meth:`run_inline` and
    :meth:`run_workers` alike.
    """

    def __init__(
        self,
        config: LocalBackend,
        specs: Sequence[ExperimentSpec],
        misses: list[int],
        report: ReportFn,
    ) -> None:
        self.config = config
        self.specs = specs
        self.queue: deque[int] = deque(misses)
        self.report = report
        #: Per point: failed attempts charged, wall seconds spent executing.
        self.failed = dict.fromkeys(misses, 0)
        self.spent = dict.fromkeys(misses, 0.0)
        self.children: list[_Child] = []
        self.lost = 0
        self.last_loss = ""
        #: Consecutive children lost before acknowledging ``init``.
        self.stillborn = 0

    # -- the attempt ledger ---------------------------------------------------

    def _charge(self, index: int, kind: str, error: str) -> None:
        """Charge one failed attempt: back off and requeue, or give up.

        The backoff is deterministic — attempt *k* waits
        ``retry_backoff · 2**(k-1)`` seconds, no jitter — and blocks the
        caller, as it always has.
        """
        self.failed[index] += 1
        retry = self.failed[index] <= self.config.retries
        self.report("attempt_failed", index, kind=kind, error=error, retry=retry)
        if not retry:
            self._give_up(index, kind, error)
            return
        if self.config.retry_backoff > 0.0:
            sleep(self.config.retry_backoff * 2.0 ** (self.failed[index] - 1))
        self.queue.append(index)

    def _give_up(self, index: int, kind: str, error: str) -> None:
        """Resolve ``index`` as a terminal failure."""
        self.report(
            "point_failed",
            index,
            failure=PointFailure(
                spec=self.specs[index],
                error=error,
                kind=kind,
                attempts=max(1, self.failed[index]),
                wall_seconds=self.spent[index],
            ),
        )

    # -- in this process ------------------------------------------------------

    def run_inline(self) -> None:
        """Run every miss in this process, retrying the ones that raise.

        Timeouts are not enforceable inline (there is no worker to kill)
        and a genuinely crashing point takes the process down — inline mode
        trades those protections for zero pickling overhead.
        """
        while self.queue:
            index = self.queue.popleft()
            started = perf_counter()  # repro-lint: ignore[D101] -- runner wall-clock accounting
            try:
                result = self.specs[index].run()
            except Exception as exc:
                self.spent[index] += perf_counter() - started  # repro-lint: ignore[D101] -- reporting only
                self._charge(index, "exception", _describe(exc))
            else:
                self.report("point_completed", index, result=result)

    # -- on worker children ---------------------------------------------------

    def run_workers(self, command: list[str] | None, width: int) -> None:
        """Run the misses on ``width`` children, one point in flight each.

        ``command`` is what to exec per child, or None to fork.  One
        ``selectors`` loop keeps a child per unresolved point, hands an
        idle child the next queued point and reads replies as they become
        readable; its ``select`` timeout is the nearest deadline.  With a
        ``timeout`` set, a new child must also acknowledge ``init`` within
        ``timeout`` seconds of launch or be retired as lost before the ack;
        with ``timeout=None`` the handshake is waited for indefinitely, as
        a point is.  A child
        lost while running a point is charged to that point (whose retry
        budget bounds it); ``max_worker_restarts`` bounds only what no
        point can be charged for — consecutive children lost before
        acknowledging ``init``.  With that budget spent and no child left,
        unresolved points fail as ``crash``; they never run in this
        process.
        """
        self.selector = selectors.DefaultSelector()
        try:
            while self.queue or self._busy():
                self._dispatch(command, width)
                if not self.children:
                    break  # launch budget spent
                now = perf_counter()  # repro-lint: ignore[D101] -- runner wall-clock accounting
                if self.config.timeout is not None:
                    for child in self.children:
                        if child.deadline is None and not child.ready:
                            # Until its ack, a new child's deadline bounds init.
                            child.deadline = now + self.config.timeout
                deadlines = [
                    c.deadline for c in self.children if c.deadline is not None
                ]
                events = self.selector.select(
                    max(0.0, min(deadlines) - now) if deadlines else None
                )
                for key, _ in events:
                    self._read(key.data)
                now = perf_counter()  # repro-lint: ignore[D101] -- runner wall-clock accounting
                for child in [
                    c for c in self.children
                    if c.deadline is not None and c.deadline <= now
                ]:
                    if child.ready:
                        self._lose(
                            child,
                            "timeout",
                            f"exceeded the {self.config.timeout:g}s per-point timeout",
                        )
                    else:
                        self._lose(
                            child,
                            "crash",
                            "did not acknowledge the init handshake within the "
                            f"{self.config.timeout:g}s timeout",
                        )
            for index in self.queue:
                self._give_up(
                    index,
                    "crash",
                    "no worker process could be started"
                    + (f" (last lost: {self.last_loss})" if self.last_loss else ""),
                )
        finally:
            for child in self.children:
                child.hang_up(kill=child.index is not None or not child.ready)
            for child in self.children:
                child.reap()
            self.selector.close()

    def _busy(self) -> int:
        return sum(child.index is not None for child in self.children)

    def _dispatch(self, command: list[str] | None, width: int) -> None:
        """Feed idle children, then launch one per point still unserved."""
        for child in list(self.children):
            if child.ready and child.index is None:
                self._assign(child)
        while (
            len(self.children) < min(width, len(self.queue) + self._busy())
            and self.stillborn <= self.config.max_worker_restarts
        ):
            try:
                child = (
                    _fork_child(self.children) if command is None
                    else _exec_child(command)
                )
            except OSError as exc:
                self.stillborn += 1
                self._note_lost(f"could not be started: {_describe(exc)}")
                continue
            self.children.append(child)
            self.selector.register(child.stdout, selectors.EVENT_READ, child)
            try:
                # Not waited for: the ack is consumed in the loop, so N
                # interpreters start side by side, not one after another.
                child.send({"op": "init", "workloads": _runtime_workloads()})
            except OSError:
                self._lose(child, "crash", "worker died before init")

    def _assign(self, child: _Child) -> None:
        """Hand ``child`` the next queued point, if there is one."""
        if not self.queue:
            return
        index = self.queue.popleft()
        blob = base64.b64encode(
            pickle.dumps(self.specs[index], protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        child.index = index
        child.started = perf_counter()  # repro-lint: ignore[D101] -- runner wall-clock accounting
        if self.config.timeout is not None:
            child.deadline = child.started + self.config.timeout
        try:
            child.send({"op": "run", "id": index, "spec": blob})
        except OSError:
            self._lose(child, "crash", _DIED)

    def _read(self, child: _Child) -> None:
        """Consume what ``child`` wrote; act on a completed reply line."""
        chunk = os.read(child.stdout.fileno(), 1 << 16)
        if not chunk:
            self._lose(child, "crash", _DIED)
            return
        child.buffer += chunk
        if b"\n" not in chunk:
            return
        line, _, child.buffer = child.buffer.partition(b"\n")
        try:
            reply = json.loads(line)
        except ValueError:
            reply = None
        if not isinstance(reply, dict):
            reply = {}
        if child.index is not None and reply.get("id") == child.index:
            self._resolve(child, reply)
        elif not child.ready and reply.get("ok") and reply.get("op") == "init":
            child.ready = True
            child.deadline = None
            self.stillborn = 0
            self._assign(child)
        else:
            self._lose(
                child,
                "crash",
                reply.get("error", "worker reply stream out of sync"),
            )

    def _resolve(self, child: _Child, reply: dict) -> None:
        """``child`` answered for its point: refill it, then book the answer."""
        index = child.index
        assert index is not None
        self.spent[index] += perf_counter() - child.started  # repro-lint: ignore[D101] -- reporting only
        child.index = child.deadline = None
        # Before decoding and caching: the child works while the parent does.
        self._assign(child)
        if reply.get("ok"):
            try:
                result = pickle.loads(base64.b64decode(reply["result"]))
            except Exception as exc:
                error = f"could not decode worker result: {_describe(exc)}"
            else:
                self.report("point_completed", index, result=result)
                return
        else:
            error = reply.get("error", "worker reported an error")
        self._charge(index, "exception", error)

    def _lose(self, child: _Child, kind: str, error: str) -> None:
        """Retire a dead, deaf or overdue child; charge what it was running."""
        self.selector.unregister(child.stdout)
        self.children.remove(child)
        child.hang_up(kill=True)
        child.reap()
        index = child.index
        self._note_lost(error, child.pid, index)
        if index is not None:
            self.spent[index] += perf_counter() - child.started  # repro-lint: ignore[D101] -- reporting only
            self._charge(index, kind, error)
        elif not child.ready:
            self.stillborn += 1

    def _note_lost(self, reason: str, pid: int | None = None, index: int | None = None) -> None:
        self.lost += 1
        self.last_loss = reason
        self.report("worker_restart", index, worker=pid, restarts=self.lost, reason=reason)


@dataclass
class LocalBackend(Backend):
    """This machine: inline for ``workers <= 1``, else forked workers.

    ``workers=None`` means one per CPU.  A point that raises, overruns the
    per-point wall-clock ``timeout`` (enforced on workers only) or kills
    its worker is charged one attempt and re-executed up to ``retries``
    times, waiting ``retry_backoff · 2**(k-1)`` seconds before attempt
    *k+1*.  ``max_worker_restarts`` bounds consecutive children that die
    before acknowledging ``init``.  With a ``command`` — or where
    ``os.fork`` does not exist — children are exec'd instead of forked,
    as :class:`SubprocessBackend` does.
    """

    workers: int | None = None
    command: list[str] | None = None
    timeout: float | None = None
    retries: int = 1
    retry_backoff: float = 0.5
    max_worker_restarts: int = 3

    name = "local"

    def __post_init__(self) -> None:
        # The one home of these rules: the CLI's --workers/--timeout/--retries
        # reach them as they are.  A NaN deadline never expires, so a
        # non-finite timeout would silently switch the timeout off.
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and not 0 < self.timeout < float("inf"):
            raise ValueError(f"timeout must be positive and finite, got {self.timeout}")

    def execute(
        self,
        specs: Sequence[ExperimentSpec],
        misses: list[int],
        report: ReportFn,
    ) -> None:
        workers = self.workers if self.workers is not None else os.cpu_count() or 1
        execution = _Execution(self, specs, misses, report)
        command = self.command
        if command is None:
            if workers <= 1:
                execution.run_inline()
                return
            if not hasattr(os, "fork"):
                command = _worker_command()
        execution.run_workers(command, min(max(1, workers), len(misses)))


@dataclass
class SubprocessBackend(LocalBackend):
    """The same engine over exec'd ``python -m repro.runner.worker`` children.

    Each of ``workers`` children is a fresh interpreter (or ``command``,
    for an SSH-shaped remote worker) that knows only what it imports, so
    runtime-registered workloads (scenario-inline CDFs) are replayed to it
    through the init handshake and scenario sweeps behave the same here as
    inline.  Timeouts, retries and crash blame are :class:`LocalBackend`'s.
    """

    workers: int = 2

    name = "subprocess"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")
        if self.command is None:
            self.command = _worker_command()


#: Registry of backend names to constructors (the CLI's ``--backend``).
BACKENDS: dict[str, type[Backend]] = {
    "local": LocalBackend,
    "subprocess": SubprocessBackend,
}


def get_backend(name: str) -> type[Backend]:
    """Look up a backend class by registry name."""
    backend = BACKENDS.get(name)
    if backend is None:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown backend {name!r}; available: {known}")
    return backend


__all__ = [
    "BACKENDS",
    "Backend",
    "LocalBackend",
    "SubprocessBackend",
    "get_backend",
]
