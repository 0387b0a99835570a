"""Traced layer attribution: cProfile self time bucketed by ``repro/<package>/``.

The profile is started and stopped here, around one repeat of a workload's
body; nothing inside ``repro`` is instrumented.  Every profiled function's
self time goes to exactly one bucket — the package under ``src/repro/`` its
file is in, ``builtins`` for C functions, ``other`` for everything else
(stdlib, numpy, the repro packages not in ``LAYERS``, this directory) — so
the shares partition the traced time.

cProfile charges every Python call and no time inside C code, so shares lean
toward layers made of many small functions.  They are comparable across
commits, not exact: confirm a candidate they name with tracing off.
"""

from __future__ import annotations

import cProfile
import pstats
from time import perf_counter
from typing import Any, Callable

from benchlib import LAYERS

BUCKETS = (*LAYERS, "builtins", "other")


def bucket_of(filename: str) -> str:
    """The bucket a profiled function's file belongs to."""
    if filename == "~":  # how pstats files C functions
        return "builtins"
    _, found, rest = filename.replace("\\", "/").rpartition("/repro/")
    package, is_dir, _ = rest.partition("/")
    return package if found and is_dir and package in LAYERS else "other"


def profile_call(fn: Callable[[], Any]) -> tuple[Any, float, dict[str, dict]]:
    """Run ``fn`` under cProfile: its result, wall seconds, per-bucket totals.

    Each bucket maps to ``{"self_s": ..., "calls": ...}``; ``calls`` is exact
    for a deterministic body.
    """
    profiler = cProfile.Profile()
    t0 = perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = perf_counter() - t0
    buckets = {name: {"self_s": 0.0, "calls": 0} for name in BUCKETS}
    for (filename, _line, _name), (_cc, calls, self_s, _ct, _callers) in pstats.Stats(
        profiler
    ).stats.items():
        entry = buckets[bucket_of(filename)]
        entry["self_s"] += self_s
        entry["calls"] += calls
    return result, wall, buckets
