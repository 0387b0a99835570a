"""Sweep dispatch: cache scan, backend fan-out, streaming, accounting.

The public runner API.  A :class:`Dispatcher` pairs a result cache with
an execution :class:`~repro.runner.backends.Backend` and runs spec grids
through both: cache hits are served first, duplicate specs are computed
once, misses go to the backend, and every resolution is streamed back
incrementally — as progress lines, as live ``[sweep i/n]`` summary lines
rendered from the run's :class:`~repro.obs.metrics.MetricsRegistry`, or
as actual ``(index, result)`` pairs from :meth:`Dispatcher.stream`.
Manifests ride along for free: every fresh result lands in the cache via
:meth:`ResultCache.put`, which writes the provenance manifest.

:func:`run_sweep` is the one-call face of the same machinery (a
:class:`LocalBackend` dispatcher unless a backend is passed).
"""

from __future__ import annotations

import os
import queue as queue_module
import threading
from time import perf_counter
from typing import Iterable, Iterator

from repro.apps.spec import ExperimentSpec, PointResult
from repro.obs.metrics import MetricsRegistry
from repro.runner.backends import Backend, LocalBackend, get_backend
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.failures import PointFailure
from repro.runner.sweep import (
    ProgressFn,
    SweepResult,
    _failure_line,
    _point_line,
)
from repro.runner.telemetry import TelemetrySink, as_sink

Outcome = PointResult | PointFailure

TelemetryArg = TelemetrySink | str | os.PathLike | None


class _Run:
    """Mutable state of one dispatched sweep (shared across threads)."""

    def __init__(
        self,
        specs: list[ExperimentSpec],
        cache: ResultCache | None,
        progress: ProgressFn | None,
        summary_every: int,
        telemetry: TelemetrySink | None = None,
    ) -> None:
        self.specs = specs
        self.total = len(specs)
        self.cache = cache
        self.progress = progress
        self.summary_every = summary_every
        self.telemetry = telemetry
        self.registry = MetricsRegistry()
        self.results: list[Outcome | None] = [None] * self.total
        self.misses: list[int] = []
        self.duplicates: dict[int, int] = {}
        self.resolved = 0
        self.lock = threading.RLock()
        self.started = perf_counter()  # repro-lint: ignore[D101] -- sweep wall time, reporting only
        #: Streaming hook: called under the lock with each (index, outcome).
        self.on_outcome = None

    # -- phases ---------------------------------------------------------------

    def scan(self) -> None:
        """Serve cache hits and split the rest into misses + duplicates."""
        if self.telemetry is not None:
            self.telemetry.emit("sweep_started", total=self.total)
        seen: dict[str, int] = {}
        for index, spec in enumerate(self.specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                with self.lock:
                    self.results[index] = cached
                    self.registry.counter("sweep.cache_hits").value += 1
                    if self.telemetry is not None:
                        self.telemetry.emit(
                            "cache_hit",
                            index=index,
                            label=spec.label(),
                            spec_hash=spec.content_hash(),
                        )
                    self._emit(index, cached, _point_line(index, self.total, cached))
                continue
            first = seen.setdefault(spec.content_hash(), index)
            if first != index:
                self.duplicates[index] = first
            else:
                self.misses.append(index)

    def execute(self, backend: Backend) -> None:
        """Hand the misses :meth:`scan` found to ``backend``."""
        if self.misses:
            backend.execute(
                self.specs,
                list(self.misses),
                finish=self.finish,
                fail=self.fail,
                metrics=self.registry,
                telemetry=self.telemetry,
            )

    def finish(self, index: int, result: PointResult) -> None:
        """Backend callback: one miss computed successfully."""
        with self.lock:
            self.results[index] = result
            if self.cache is not None and not result.from_cache:
                self.cache.put(self.specs[index], result)
            self.registry.counter("sweep.executed").value += 1
            self.registry.histogram("sweep.point_wall_seconds").observe(
                result.wall_seconds
            )
            if self.telemetry is not None:
                spec = self.specs[index]
                self.telemetry.emit(
                    "point_completed",
                    index=index,
                    label=spec.label(),
                    spec_hash=spec.content_hash(),
                    wall_seconds=result.wall_seconds,
                    events_executed=result.events_executed,
                    completed=result.completed,
                )
            self._emit(index, result, _point_line(index, self.total, result))

    def fail(self, index: int, failure: PointFailure) -> None:
        """Backend callback: one miss exhausted its attempts."""
        with self.lock:
            self.results[index] = failure
            self.registry.counter("sweep.executed").value += 1
            self.registry.counter("sweep.failures").value += 1
            if self.telemetry is not None:
                spec = self.specs[index]
                self.telemetry.emit(
                    "point_failed",
                    index=index,
                    label=spec.label(),
                    spec_hash=spec.content_hash(),
                    kind=failure.kind,
                    error=failure.error,
                    attempts=failure.attempts,
                    wall_seconds=failure.wall_seconds,
                )
            self._emit(index, failure, _failure_line(index, self.total, failure))

    def finalize(self) -> SweepResult:
        """Resolve duplicates and freeze the accounting into a result."""
        if self.total == 0:  # the empty sweep: nothing scanned, nothing counted
            return SweepResult(points=(), executed=0, cached=0, wall_seconds=0.0)
        with self.lock:
            for index, first in self.duplicates.items():
                self.results[index] = self.results[first]
            executed = len(self.misses)
            cached = self.total - executed - len(self.duplicates)
            wall = perf_counter() - self.started  # repro-lint: ignore[D101] -- reporting only
            registry = self.registry
            registry.counter("sweep.points").value = self.total
            registry.counter("sweep.executed").value = executed
            registry.counter("sweep.cache_hits").value = cached
            registry.counter("sweep.duplicates").value = len(self.duplicates)
            registry.counter("sweep.failures").value = sum(
                1 for point in self.results if isinstance(point, PointFailure)
            )
            registry.gauge("sweep.wall_seconds").set(wall)
            # Stable health names even on clean runs: restarts default to 0.
            restarts = registry.counter("sweep.worker_restarts").value
            if self.telemetry is not None:
                self.telemetry.emit(
                    "sweep_finished",
                    total=self.total,
                    executed=executed,
                    cached=cached,
                    duplicates=len(self.duplicates),
                    failures=registry.counter("sweep.failures").value,
                    worker_restarts=restarts,
                    wall_seconds=wall,
                )
            return SweepResult(
                points=tuple(self.results),  # type: ignore[arg-type]
                executed=executed,
                cached=cached,
                wall_seconds=wall,
                metrics=registry.snapshot(),
            )

    # -- incremental reporting ------------------------------------------------

    def _emit(self, index: int, outcome: Outcome, line: str) -> None:
        """Under the lock: per-point progress, summaries, stream events."""
        self.resolved += 1
        if self.progress is not None:
            self.progress(line)
            if self.summary_every > 0 and (
                self.resolved % self.summary_every == 0
                or self.resolved == self.total - len(self.duplicates)
            ):
                self.progress(self.summary_line())
        if self.on_outcome is not None:
            self.on_outcome(index, outcome)

    def summary_line(self) -> str:
        """A live one-line sweep summary rendered from the metrics registry."""
        executed = self.registry.counter("sweep.executed").value
        hits = self.registry.counter("sweep.cache_hits").value
        failed = self.registry.counter("sweep.failures").value
        wall = perf_counter() - self.started  # repro-lint: ignore[D101] -- reporting only
        parts = [f"{executed - failed} run", f"{hits} cached"]
        if failed:
            parts.append(f"{failed} failed")
        retries = self.registry.counter("sweep.retries").value
        if retries:
            parts.append(f"{retries} retried")
        return (
            f"[sweep {self.resolved}/{self.total}] "
            + " · ".join(parts)
            + f" · {wall:.1f}s"
        )


class Dispatcher:
    """Runs spec grids through a cache and a pluggable execution backend.

    ``backend`` is a :class:`Backend` instance or a registry name
    (``"local"``, ``"subprocess"``) for a default-configured one.
    ``progress`` receives one line per resolved point; with
    ``summary_every=k`` every k-th resolution also emits a live
    ``[sweep i/n] ...`` summary line rendered from the run's metrics.
    ``telemetry`` is an NDJSON health-event sink — a
    :class:`~repro.runner.telemetry.TelemetrySink`, a file path for one,
    or a callable receiving each event dict; the dispatcher emits
    lifecycle events (``sweep_started``, ``cache_hit``,
    ``point_completed``, ``point_failed``, ``sweep_finished``) and the
    backend adds its own (``worker_restart``, one per lost worker child).
    The caller owns closing a sink it constructed; path-created sinks are
    line-buffered, so the stream is tailable while the sweep runs.
    """

    def __init__(
        self,
        backend: Backend | str = "local",
        *,
        cache: ResultCache | str | os.PathLike | None = DEFAULT_CACHE_DIR,
        progress: ProgressFn | None = None,
        summary_every: int = 0,
        telemetry: TelemetryArg = None,
    ) -> None:
        if isinstance(backend, str):
            backend = get_backend(backend)()
        self.backend = backend
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.progress = progress
        self.summary_every = summary_every
        self.telemetry = as_sink(telemetry)
        #: The :class:`SweepResult` of the most recent run()/stream().
        self.last_result: SweepResult | None = None

    def _new_run(self, specs: Iterable[ExperimentSpec]) -> _Run:
        return _Run(
            list(specs),
            self.cache,
            self.progress,
            self.summary_every,
            telemetry=self.telemetry,
        )

    def run(self, specs: Iterable[ExperimentSpec]) -> SweepResult:
        """Resolve every spec (cache, dedupe, backend) into a result."""
        run = self._new_run(specs)
        if run.total:
            run.scan()
            run.execute(self.backend)
        self.last_result = run.finalize()
        return self.last_result

    def stream(
        self, specs: Iterable[ExperimentSpec]
    ) -> Iterator[tuple[int, Outcome]]:
        """Yield ``(index, outcome)`` pairs as points resolve.

        Cache hits come first (in input order), then backend completions
        in completion order while the backend runs in a helper thread,
        then duplicate indexes once their originals exist.  Exactly one
        pair per input spec.  After exhaustion, :attr:`last_result` holds
        the full :class:`SweepResult`.
        """
        run = self._new_run(specs)
        if run.total == 0:
            self.last_result = run.finalize()
            return
        outcomes: queue_module.Queue[tuple[int, Outcome]] = queue_module.Queue()
        run.on_outcome = lambda index, outcome: outcomes.put((index, outcome))
        run.scan()
        backend_error: list[BaseException] = []
        worker: threading.Thread | None = None
        if run.misses:
            def pump() -> None:
                try:
                    run.execute(self.backend)
                except BaseException as exc:  # surfaced after drain
                    backend_error.append(exc)

            worker = threading.Thread(target=pump, name="sweep-dispatch")
            worker.start()
        expected = run.total - len(run.duplicates)
        yielded = 0
        while yielded < expected:
            if backend_error:
                break
            try:
                index, outcome = outcomes.get(timeout=0.25)
            except queue_module.Empty:
                continue
            yielded += 1
            yield index, outcome
        if worker is not None:
            worker.join()
        if backend_error:
            raise backend_error[0]
        self.last_result = run.finalize()
        for index in run.duplicates:
            outcome = run.results[index]
            assert outcome is not None
            yield index, outcome


def run_sweep(
    specs: Iterable[ExperimentSpec],
    *,
    workers: int | None = None,
    cache: ResultCache | str | os.PathLike | None = DEFAULT_CACHE_DIR,
    progress: ProgressFn | None = None,
    timeout: float | None = None,
    retries: int = 1,
    retry_backoff: float = 0.5,
    backend: Backend | None = None,
    telemetry: TelemetryArg = None,
) -> SweepResult:
    """Run every spec, in parallel, through the result cache.

    The one-call face of :class:`Dispatcher`.  With ``backend=None``,
    ``workers``/``timeout``/``retries``/``retry_backoff`` configure a
    :class:`LocalBackend`; passing a backend instance (e.g. a configured
    :class:`~repro.runner.backends.SubprocessBackend`) dispatches over it
    instead, and those four are ignored — set them on the backend.

    Parameters
    ----------
    workers:
        ``None`` — one worker per CPU; ``0`` or ``1`` — run misses inline
        in this process (no children, no pickling); ``n > 1`` — ``n``
        forked worker processes, one point in flight each.  The answer is
        bit-identical in all modes.
    cache:
        A :class:`ResultCache`, a directory path for one, or ``None`` to
        disable caching entirely.  Failures are never cached.
    progress:
        Optional callable receiving one human-readable line per completed
        point (wall clock, events executed, events/sec, cache hits,
        failures).
    timeout:
        Per-point wall-clock budget in seconds (parallel modes only; the
        clock starts when the point is handed to its worker).  An overdue
        point's worker — that worker only — is killed and replaced, and
        the point retries or fails with kind ``"timeout"``; points in
        flight on other workers are untouched.
    retries:
        How many times a failing point is re-executed after its first
        failed attempt (total attempts = ``retries + 1``), whichever way
        it failed: raised, overran ``timeout``, or killed its worker.
    retry_backoff:
        Base of the deterministic exponential backoff slept before each
        retry: attempt *k* waits ``retry_backoff · 2**(k-1)`` seconds.
        0 disables the wait.
    backend:
        An explicit :class:`Backend` to dispatch over instead of the
        default :class:`LocalBackend`.
    telemetry:
        Structured NDJSON health stream: a
        :class:`~repro.runner.telemetry.TelemetrySink`, a path to write
        one event per line to, or a callable receiving each event dict.
        A path-created sink is closed before returning; a sink instance
        stays open (the caller owns it).
    """
    if backend is None:
        backend = LocalBackend(
            workers=workers,
            timeout=timeout,
            retries=retries,
            retry_backoff=retry_backoff,
        )
    sink = as_sink(telemetry)
    try:
        return Dispatcher(
            backend, cache=cache, progress=progress, telemetry=sink
        ).run(specs)
    finally:
        if sink is not None and not isinstance(telemetry, TelemetrySink):
            sink.close()


__all__ = ["Dispatcher", "TelemetrySink", "run_sweep"]
