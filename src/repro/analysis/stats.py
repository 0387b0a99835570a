"""Means and percentiles of a series — the one place they are computed."""

from __future__ import annotations

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
    naming ``who`` asked.  numpy loads on the first call (DESIGN.md "Import
    layering").
    """
    if len(samples) == 0:
        raise EmptySeriesError(who, interval)
    import numpy as np

    array = np.asarray(samples, dtype=float)
    return [float(np.mean(array)), *(float(np.percentile(array, q)) for q in quantiles)]


__all__ = ["EmptySeriesError", "series_stats"]
