"""Parallel sweep runner: one door, pluggable backends, caching, determinism.

Build :class:`repro.apps.ExperimentSpec` points (by hand, with
:func:`sweep_grid` / :func:`derive_seeds`, or by compiling a
:class:`repro.scenarios.Scenario`), then run them through
:func:`run_sweep`, the one door: cache scan, duplicate dedupe, execution
on a pluggable :class:`Backend` — :class:`LocalBackend` (inline, or forked
workers) or :class:`SubprocessBackend` (exec'd workers over an SSH-shaped
stdin/stdout JSON protocol), one crash-tolerant worker loop either way —
and a :class:`SweepResult` of picklable :class:`repro.apps.PointResult`
values in input order.  A backend reports through one callback; the
sweep folds that one event stream into its results, the cache, the
``sweep.*`` counters, the :class:`TelemetrySink` stream and the
``progress`` lines.

Results are bit-identical across all backends and worker counts — a
point run is a pure function of its spec — which
:meth:`SweepResult.digest` makes checkable in one comparison.
"""

from importlib import import_module

from repro.runner.failures import FAILURE_KINDS, PointFailure

#: Siblings imported on first access: a worker child imports this package and
#: needs none of the parent-side machinery.
_DEFERRED = {
    "backends": (
        "BACKENDS",
        "Backend",
        "LocalBackend",
        "SubprocessBackend",
        "get_backend",
    ),
    "cache": ("DEFAULT_CACHE_DIR", "ResultCache"),
    "dispatch": ("run_sweep",),
    "sweep": ("SweepResult", "derive_seeds", "sweep_grid"),
    "telemetry": ("TelemetrySink",),
}


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "BACKENDS",
    "Backend",
    "DEFAULT_CACHE_DIR",
    "FAILURE_KINDS",
    "LocalBackend",
    "PointFailure",
    "ResultCache",
    "SubprocessBackend",
    "SweepResult",
    "TelemetrySink",
    "derive_seeds",
    "get_backend",
    "run_sweep",
    "sweep_grid",
]
