"""Sweep dispatch: cache scan, backend fan-out, accounting.

The public runner API.  A :class:`Dispatcher` pairs a result cache with
an execution :class:`~repro.runner.backends.Backend` and runs spec grids
through both, in the calling thread: cache hits are served first,
duplicate specs are computed once, misses go to the backend, and every
resolution is reported as it happens — one ``progress`` line and one
``telemetry`` event per point.  Manifests ride along for free: every
fresh result lands in the cache via :meth:`ResultCache.put`, which writes
the provenance manifest.

:func:`run_sweep` is the one-call face of the same machinery (a
:class:`LocalBackend` dispatcher unless a backend is passed).
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Iterable

from repro.apps.spec import ExperimentSpec, PointResult
from repro.core.series import DecimatedSeries
from repro.obs.metrics import HistogramSummary, MetricsReport
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
    """Mutable state of one dispatched sweep."""

    def __init__(
        self,
        specs: list[ExperimentSpec],
        cache: ResultCache | None,
        progress: ProgressFn | None,
        telemetry: TelemetrySink | None,
    ) -> None:
        self.specs = specs
        self.total = len(specs)
        self.cache = cache
        self.progress = progress
        self.telemetry = telemetry
        #: ``sweep.*`` counts the backend adds to; restarts read 0 on a clean run.
        self.counts: dict[str, int] = {"sweep.worker_restarts": 0}
        self.point_walls: DecimatedSeries[float] = DecimatedSeries()
        self.results: list[Outcome | None] = [None] * self.total
        self.misses: list[int] = []
        self.duplicates: dict[int, int] = {}
        self.started = perf_counter()  # repro-lint: ignore[D101] -- sweep wall time, reporting only

    # -- phases ---------------------------------------------------------------

    def scan(self) -> None:
        """Serve cache hits and split the rest into misses + duplicates."""
        if self.telemetry is not None:
            self.telemetry.emit("sweep_started", total=self.total)
        seen: dict[str, int] = {}
        for index, spec in enumerate(self.specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                self.results[index] = cached
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "cache_hit",
                        index=index,
                        label=spec.label(),
                        spec_hash=spec.content_hash(),
                    )
                if self.progress is not None:
                    self.progress(_point_line(index, self.total, cached))
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
                metrics=self.counts,
                telemetry=self.telemetry,
            )

    def finish(self, index: int, result: PointResult) -> None:
        """Backend callback: one miss computed successfully."""
        self.results[index] = result
        if self.cache is not None and not result.from_cache:
            self.cache.put(self.specs[index], result)
        self.point_walls.append(result.wall_seconds)
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
        if self.progress is not None:
            self.progress(_point_line(index, self.total, result))

    def fail(self, index: int, failure: PointFailure) -> None:
        """Backend callback: one miss exhausted its attempts."""
        self.results[index] = failure
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
        if self.progress is not None:
            self.progress(_failure_line(index, self.total, failure))

    def finalize(self) -> SweepResult:
        """Resolve duplicates and freeze the accounting into a result."""
        if self.total == 0:  # the empty sweep: nothing scanned, nothing counted
            return SweepResult(points=(), executed=0, cached=0, wall_seconds=0.0)
        for index, first in self.duplicates.items():
            self.results[index] = self.results[first]
        executed = len(self.misses)
        cached = self.total - executed - len(self.duplicates)
        wall = perf_counter() - self.started  # repro-lint: ignore[D101] -- reporting only
        counts = self.counts
        counts.update({
            "sweep.points": self.total,
            "sweep.executed": executed,
            "sweep.cache_hits": cached,
            "sweep.duplicates": len(self.duplicates),
            "sweep.failures": sum(isinstance(p, PointFailure) for p in self.results),
        })
        if self.telemetry is not None:
            self.telemetry.emit(
                "sweep_finished",
                total=self.total,
                executed=executed,
                cached=cached,
                duplicates=len(self.duplicates),
                failures=counts["sweep.failures"],
                worker_restarts=counts["sweep.worker_restarts"],
                wall_seconds=wall,
            )
        return SweepResult(
            points=tuple(self.results),  # type: ignore[arg-type]
            executed=executed,
            cached=cached,
            wall_seconds=wall,
            metrics=MetricsReport(
                counters=dict(sorted(counts.items())),
                gauges={"sweep.wall_seconds": wall},
                histograms=(
                    {"sweep.point_wall_seconds": HistogramSummary.of(self.point_walls)}
                    if self.point_walls.offered else {}
                ),
            ),
        )


class Dispatcher:
    """Runs spec grids through a cache and a pluggable execution backend.

    ``backend`` is a :class:`Backend` instance or a registry name
    (``"local"``, ``"subprocess"``) for a default-configured one.
    ``progress`` receives one line per resolved point.
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
        telemetry: TelemetryArg = None,
    ) -> None:
        if isinstance(backend, str):
            backend = get_backend(backend)()
        self.backend = backend
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.progress = progress
        self.telemetry = as_sink(telemetry)
        #: The :class:`SweepResult` of the most recent :meth:`run`.
        self.last_result: SweepResult | None = None

    def run(self, specs: Iterable[ExperimentSpec]) -> SweepResult:
        """Resolve every spec (cache, dedupe, backend) into a result."""
        run = _Run(list(specs), self.cache, self.progress, self.telemetry)
        if run.total:
            run.scan()
            run.execute(self.backend)
        self.last_result = run.finalize()
        return self.last_result


def run_sweep(
    specs: Iterable[ExperimentSpec],
    *,
    workers: int | None = None,
    cache: ResultCache | str | os.PathLike | None = DEFAULT_CACHE_DIR,
    progress: ProgressFn | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    retry_backoff: float | None = None,
    backend: Backend | None = None,
    telemetry: TelemetryArg = None,
) -> SweepResult:
    """Run every spec, in parallel, through the result cache.

    The one-call face of :class:`Dispatcher`.  With ``backend=None``,
    ``workers``/``timeout``/``retries``/``retry_backoff`` configure a
    :class:`LocalBackend` (left at ``None``, each keeps that class's
    default); passing a backend instance (e.g. a configured
    :class:`~repro.runner.backends.SubprocessBackend`) dispatches over it
    instead, and giving any of those four as well is a ``ValueError`` — set
    them on the backend.

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
        failed attempt (total attempts = ``retries + 1``; default 1),
        whichever way it failed: raised, overran ``timeout``, or killed
        its worker.
    retry_backoff:
        Base of the deterministic exponential backoff slept before each
        retry: attempt *k* waits ``retry_backoff · 2**(k-1)`` seconds
        (default 0.5).  0 disables the wait.
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
    local = dict(
        workers=workers, timeout=timeout, retries=retries, retry_backoff=retry_backoff
    )
    given = {name: value for name, value in local.items() if value is not None}
    if backend is None:
        backend = LocalBackend(**given)
    elif given:
        raise ValueError(
            f"run_sweep(backend=...) would ignore {', '.join(given)}; "
            f"set them on the backend instead"
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
