"""Sweep dispatch: cache scan, backend fan-out, one event stream.

The public runner API is :func:`run_sweep`.  It runs a spec grid through a
result cache and an execution :class:`~repro.runner.backends.Backend`, in
the calling thread: cache hits are served first, duplicate specs are
computed once, misses go to the backend.  Every transition — a cache hit,
a charged attempt, a lost worker, a resolved point, the sweep's start and
end — is one event reported to :meth:`_Run.report`, the one sink, which
folds it into the results, the cache, the ``sweep.*`` counters, the
telemetry stream and the ``progress`` lines.  Manifests ride along for
free: every fresh result lands in the cache via :meth:`ResultCache.put`,
which writes the provenance manifest.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.apps.spec import ExperimentSpec, PointResult
from repro.core.series import DecimatedSeries
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.failures import FAILURE_COUNTERS, PointFailure
from repro.runner.sweep import ProgressFn, SweepResult
from repro.runner.telemetry import TelemetrySink

if TYPE_CHECKING:
    from repro.runner.backends import Backend

Outcome = PointResult | PointFailure

TelemetryArg = TelemetrySink | str | os.PathLike | Callable[[dict[str, Any]], None] | None

#: The ``sweep.*`` counter one event of each kind adds one to.
#: ``attempt_failed`` adds to its kind's :data:`FAILURE_COUNTERS` entry and,
#: when it will be retried, to ``sweep.retries``.
EVENT_COUNTERS = {
    "cache_hit": "sweep.cache_hits",
    "worker_restart": "sweep.worker_restarts",
}

#: The ``sweep_finished`` fields that are slot counts, and their counters.
SLOT_COUNTERS = {
    "total": "sweep.points",
    "executed": "sweep.executed",
    "duplicates": "sweep.duplicates",
    "failures": "sweep.failures",
}


def _progress_line(event: str, payload: dict[str, Any], total: int) -> str | None:
    """The human line for a resolved point, rendered from its event payload."""
    head = f"[{payload['index'] + 1}/{total}] {payload['label']}: "
    if event == "cache_hit":
        return head + "cached"
    if event == "point_completed":
        wall, events = payload["wall_seconds"], payload["events_executed"]
        per_sec = events / wall if wall > 0.0 else 0.0
        return f"{head}{wall:.2f}s wall, {events} events, {per_sec / 1e3:.0f}k ev/s"
    if event == "point_failed":
        kind, attempts = payload["kind"], payload["attempts"]
        return f"{head}FAILED ({kind}, attempt {attempts}): {payload['error']}"
    return None


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
        #: With neither sink, :meth:`report` formats nothing.
        self.quiet = progress is None and telemetry is None
        #: Hits and restarts read 0 on a sweep that had none.
        self.counts: dict[str, int] = dict.fromkeys(EVENT_COUNTERS.values(), 0)
        self.point_walls: DecimatedSeries[float] = DecimatedSeries()
        self.results: list[Outcome | None] = [None] * self.total
        self.misses: list[int] = []
        self.duplicates: dict[int, int] = {}
        self.started = perf_counter()  # repro-lint: ignore[D101] -- sweep wall time, reporting only

    def report(self, event: str, index: int | None = None, **fields: Any) -> None:
        """The one sink: store, cache, count, then telemetry and progress.

        A ``point_completed`` carries its ``result`` and a ``point_failed``
        its ``failure``; both are stored in the point's slot and flattened
        into the payload's fields.  Sweep-level events (``sweep_*``) carry
        no index; every other event carries ``index``, and a set index
        brings the point's ``label`` and ``spec_hash``.
        """
        counts = self.counts
        if event == "point_completed":
            result = fields.pop("result")
            self.results[index] = result  # type: ignore[index]
            if self.cache is not None and not result.from_cache:
                self.cache.put(self.specs[index], result)  # type: ignore[index]
            self.point_walls.append(result.wall_seconds)
            fields.update(wall_seconds=result.wall_seconds,
                          events_executed=result.events_executed, completed=result.completed)
        elif event == "point_failed":
            failure = fields.pop("failure")
            self.results[index] = failure  # type: ignore[index]
            fields.update(kind=failure.kind, error=failure.error,
                          attempts=failure.attempts, wall_seconds=failure.wall_seconds)
        elif event == "attempt_failed":
            name = FAILURE_COUNTERS[fields["kind"]]
            counts[name] = counts.get(name, 0) + 1
            if fields["retry"]:
                counts["sweep.retries"] = counts.get("sweep.retries", 0) + 1
        elif event == "sweep_finished":
            for key, name in SLOT_COUNTERS.items():
                counts[name] = fields[key]
        else:
            name = EVENT_COUNTERS.get(event)
            if name is not None:
                counts[name] += 1
        if self.quiet:
            return
        if event.startswith("sweep_"):
            payload = fields
        elif index is None:
            payload = {"index": None, **fields}
        else:
            spec = self.specs[index]
            payload = {
                "index": index,
                "label": spec.label(),
                "spec_hash": spec.content_hash(),
                **fields,
            }
        if self.telemetry is not None:
            self.telemetry.emit(event, **payload)
        if self.progress is not None and index is not None:
            line = _progress_line(event, payload, self.total)
            if line is not None:
                self.progress(line)

    # -- phases ---------------------------------------------------------------

    def scan(self) -> None:
        """Serve cache hits and split the rest into misses + duplicates."""
        self.report("sweep_started", total=self.total)
        seen: dict[str, int] = {}
        for index, spec in enumerate(self.specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                self.results[index] = cached
                self.report("cache_hit", index)
                continue
            first = seen.setdefault(spec.content_hash(), index)
            if first != index:
                self.duplicates[index] = first
            else:
                self.misses.append(index)

    def finalize(self) -> SweepResult:
        """Resolve duplicates, report the totals, freeze them into a result."""
        from repro.obs.metrics import HistogramSummary, MetricsReport

        if self.total == 0:  # the empty sweep: nothing scanned, nothing counted
            return SweepResult(points=(), executed=0, cached=0, wall_seconds=0.0)
        for index, first in self.duplicates.items():
            self.results[index] = self.results[first]
        executed = len(self.misses)
        cached = self.total - executed - len(self.duplicates)
        wall = perf_counter() - self.started  # repro-lint: ignore[D101] -- reporting only
        self.report(
            "sweep_finished",
            total=self.total,
            executed=executed,
            cached=cached,
            duplicates=len(self.duplicates),
            failures=sum(isinstance(p, PointFailure) for p in self.results),
            worker_restarts=self.counts["sweep.worker_restarts"],
            wall_seconds=wall,
        )
        return SweepResult(
            points=tuple(self.results),  # type: ignore[arg-type]
            executed=executed,
            cached=cached,
            wall_seconds=wall,
            metrics=MetricsReport(
                counters=dict(sorted(self.counts.items())),
                gauges={"sweep.wall_seconds": wall},
                histograms=(
                    {"sweep.point_wall_seconds": HistogramSummary.of(self.point_walls)}
                    if self.point_walls.offered else {}
                ),
            ),
        )


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

    With ``backend=None``, ``workers``/``timeout``/``retries``/
    ``retry_backoff`` configure a :class:`LocalBackend` (left at ``None``,
    each keeps that class's default); passing a backend instance (e.g. a
    configured :class:`~repro.runner.backends.SubprocessBackend`, or
    ``get_backend(name)()`` for a registry name) dispatches over it
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
        Optional callable receiving one human-readable line per resolved
        point (cached; wall clock, events executed, events/sec; or the
        failure).
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
        one event per line to (line-buffered, so tailable while the sweep
        runs), or a callable receiving each event dict.  A sink built
        here is closed before returning; a sink instance stays open (the
        caller owns it).
    """
    local = dict(
        workers=workers, timeout=timeout, retries=retries, retry_backoff=retry_backoff
    )
    given = {name: value for name, value in local.items() if value is not None}
    if backend is None:
        # The backends (and their subprocess/selectors plumbing) load when
        # a sweep builds one, not when the runner is imported.
        from repro.runner.backends import LocalBackend

        backend = LocalBackend(**given)
    elif given:
        raise ValueError(
            f"run_sweep(backend=...) would ignore {', '.join(given)}; "
            f"set them on the backend instead"
        )
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    sink = (
        telemetry if telemetry is None or isinstance(telemetry, TelemetrySink)
        else TelemetrySink(telemetry)
    )
    try:
        run = _Run(list(specs), cache, progress, sink)
        if run.total:
            run.scan()
            if run.misses:
                backend.execute(run.specs, list(run.misses), run.report)
        return run.finalize()
    finally:
        if sink is not None and sink is not telemetry:
            sink.close()


__all__ = ["TelemetrySink", "run_sweep"]
