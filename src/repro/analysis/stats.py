"""Means and percentiles of a series — the one place they are computed."""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Sequence


class EmptySeriesError(ValueError):
    """A statistic was requested of a series with no samples.

    Short runs (smoke tests, quick sweeps) can finish before a monitor's
    first loaded window, so "no samples" is an expected condition that
    sweep-level aggregation wants to *skip and log*, not crash on.  The
    exception names whatever came up empty — a monitor's snapshot, a report
    helper, the FCT summary — and, for a monitor, carries its sampling
    interval, so the skip message can say how coarse its windows were.
    Subclasses ``ValueError`` for callers that caught the old bare errors.
    """

    def __init__(self, monitor: str, interval: int | None = None) -> None:
        message = f"no samples recorded by {monitor}"
        if interval is not None:
            message += f" (sampling interval {interval} ns)"
        super().__init__(message)
        self.monitor = monitor
        self.interval = interval


def series_stats(
    samples: Sequence[float],
    quantiles: Sequence[float] = (),
    *,
    who: str,
    interval: int | None = None,
) -> list[float]:
    """``[mean, *(q-th percentile for q in quantiles)]`` of a series.

    Every statistic ``repro.analysis`` and ``repro.obs`` report over a
    series goes through here; an empty one raises :class:`EmptySeriesError`
    naming ``who`` asked.  The numbers are ``np.mean`` and ``np.percentile``
    (linear method) of the series as float64, computed in plain Python in
    numpy's order of operations, so they match to the bit without loading
    numpy (DESIGN.md "Import layering").
    """
    if len(samples) == 0:
        raise EmptySeriesError(who, interval)
    values = [float(v) for v in samples]
    n = len(values)
    # numpy's sum starts from the identity 0.0 (it turns a -0.0 sum into 0.0).
    out = [(0.0 + _pairwise_sum(values, 0, n)) / n]
    if quantiles:
        ordered = sorted(values)
        has_nan = any(v != v for v in values)
        out.extend(_percentile(ordered, q, has_nan) for q in quantiles)
    return out


def _pairwise_sum(values: list[float], start: int, n: int) -> float:
    """numpy's ``pairwise_sum_DOUBLE`` over ``values[start:start + n]``.

    Under 8 values a plain running sum; up to 128 eight interleaved
    running sums combined as a tree, then the remainder; above that the
    two halves (split at a multiple of 8) summed recursively.  ``reduce``
    adds strictly left to right, where ``sum`` of floats may compensate.
    """
    if n < 8:
        return reduce(add, values[start:start + n], 0.0)
    if n <= 128:
        end = start + n - n % 8
        r = [reduce(add, values[start + j:end:8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[end:start + n], total)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def _percentile(ordered: list[float], q: float, has_nan: bool) -> float:
    """``np.percentile(values, q)`` (linear method) of the sorted values."""
    if has_nan:
        return math.nan
    virtual = (len(ordered) - 1) * (q / 100)
    if virtual >= len(ordered) - 1:
        below = above = -1
    else:
        below = math.floor(virtual)
        above = below + 1
    a, b, t = ordered[below], ordered[above], virtual - below
    # numpy's ``_lerp``: from ``a`` below the midpoint, back from ``b`` above.
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


__all__ = ["EmptySeriesError", "series_stats"]
