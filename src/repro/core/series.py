"""Bounded sample series with deterministic stride decimation.

Long simulations sample queue occupancies millions of times; storing every
sample grows memory without bound and the queue CDFs of Fig. 11(c)/Fig. 16
do not need nanosecond-dense data.  :class:`DecimatedSeries` keeps at most
``limit`` uniformly spaced samples: it retains every ``stride``-th offered
value, and whenever the retained buffer fills it drops every other retained
sample and doubles the stride.  The retained set is therefore always
"sample 0, s, 2s, ..." for the current stride ``s`` — a deterministic
function of the offer sequence alone, so decimation never perturbs
simulation results and two identical runs decimate identically.

Percentiles computed from the decimated series converge to the full-series
percentiles because the retained samples are an unbiased uniform-in-time
subsample (no reservoir randomness, no recency bias).
"""

from __future__ import annotations

from typing import Generic, Iterable, Iterator, TypeVar

T = TypeVar("T")

#: Default retained-sample bound; 8k integers ≈ a few hundred KB per port
#: worst case, while a percentile over 4–8k uniform samples is stable to
#: well under the plot resolution of the paper's CDF figures.
DEFAULT_SERIES_LIMIT = 8192


class DecimatedSeries(Generic[T]):
    """A bounded, stride-decimated series of samples.

    ``append`` offers a sample; iteration and ``len`` see the retained
    ones, oldest first, and ``offered`` counts every sample offered.
    """

    __slots__ = ("limit", "stride", "offered", "_next_keep", "_values")

    def __init__(
        self, limit: int = DEFAULT_SERIES_LIMIT, values: Iterable[T] | None = None
    ) -> None:
        if limit < 2:
            raise ValueError(f"limit must be at least 2, got {limit}")
        self.limit = limit
        self.stride = 1
        self.offered = 0
        self._next_keep = 0
        self._values: list[T] = []
        for value in values or ():
            self.append(value)

    def append(self, value: T) -> None:
        """Offer one sample; it is retained iff it lands on the stride."""
        offered = self.offered
        self.offered = offered + 1
        if offered != self._next_keep:
            return
        values = self._values
        values.append(value)
        self._next_keep = offered + self.stride
        if len(values) >= self.limit:
            del values[1::2]  # keep samples 0, 2s, 4s, ... of the old stride
            self.stride *= 2
            self._next_keep = len(values) * self.stride

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[T]:
        return iter(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecimatedSeries({len(self._values)}/{self.limit} kept, "
            f"stride={self.stride}, offered={self.offered})"
        )


__all__ = ["DEFAULT_SERIES_LIMIT", "DecimatedSeries"]
