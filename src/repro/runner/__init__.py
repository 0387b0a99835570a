"""Parallel sweep runner: dispatchers, backends, caching, determinism.

Build :class:`repro.apps.ExperimentSpec` points (by hand, with
:func:`sweep_grid` / :func:`derive_seeds`, or by compiling a
:class:`repro.scenarios.Scenario`), then run them:

* :func:`run_sweep` — the one-call API: cache scan, duplicate dedupe,
  parallel execution, a :class:`SweepResult` of picklable
  :class:`repro.apps.PointResult` values in input order.
* :class:`Dispatcher` — the streaming form of the same machinery, with a
  pluggable execution :class:`Backend`: :class:`LocalBackend` (inline, or
  forked workers) or :class:`SubprocessBackend` (exec'd workers over an
  SSH-shaped stdin/stdout JSON protocol) — one crash-tolerant worker loop
  either way.

Results are bit-identical across all backends and worker counts — a
point run is a pure function of its spec — which
:meth:`SweepResult.digest` makes checkable in one comparison.
"""

from repro.runner.backends import (
    BACKENDS,
    Backend,
    LocalBackend,
    SubprocessBackend,
    get_backend,
)
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.dispatch import Dispatcher, run_sweep
from repro.runner.failures import FAILURE_KINDS, PointFailure
from repro.runner.sweep import SweepResult, derive_seeds, sweep_grid
from repro.runner.telemetry import TelemetrySink

__all__ = [
    "BACKENDS",
    "Backend",
    "DEFAULT_CACHE_DIR",
    "Dispatcher",
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
