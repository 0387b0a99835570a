"""Flow completion time statistics (the paper's primary metric, §5.2).

The figures report three views per scheme and load level:

* overall average FCT normalized to the idle-network optimum (Figs. 9a,
  10a, 11a, 11b);
* average FCT of small flows (< 100 KB) normalized to ECMP's value
  (Figs. 9b, 10b);
* average FCT of large flows (> 10 MB) normalized to ECMP's value
  (Figs. 9c, 10c).

:class:`FctSummary` computes the per-scheme aggregates; the cross-scheme
ECMP normalization happens in the benchmark harnesses, which have all
schemes' results in hand.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.analysis.stats import series_stats
from repro.transport.tcp import FlowRecord

#: Paper's small-flow threshold (bytes).
SMALL_FLOW_BYTES = 100_000

#: Paper's large-flow threshold (bytes).
LARGE_FLOW_BYTES = 10_000_000


@dataclass(frozen=True)
class FctSummary:
    """Aggregated FCT statistics for one experiment run."""

    count: int
    mean_normalized: float
    p95_normalized: float
    p99_normalized: float
    mean_fct_small: float
    mean_fct_large: float
    count_small: int
    count_large: int

    @staticmethod
    def from_records(
        records: list[FlowRecord],
        *,
        small_threshold: int = SMALL_FLOW_BYTES,
        large_threshold: int = LARGE_FLOW_BYTES,
    ) -> "FctSummary":
        """Summarize completed flow records.

        ``mean_fct_small`` / ``mean_fct_large`` are *raw* mean FCTs in ticks
        for the two buckets (NaN when the bucket is empty); callers divide by
        a baseline scheme's bucket means to obtain the paper's relative
        plots.
        """
        who = "FctSummary.from_records"
        mean, p95, p99 = series_stats(
            [r.normalized_fct for r in records], (95, 99), who=who
        )
        small = [r.fct for r in records if r.size < small_threshold]
        large = [r.fct for r in records if r.size > large_threshold]
        nan = float("nan")
        return FctSummary(
            count=len(records),
            mean_normalized=mean,
            p95_normalized=p95,
            p99_normalized=p99,
            mean_fct_small=series_stats(small, who=who)[0] if small else nan,
            mean_fct_large=series_stats(large, who=who)[0] if large else nan,
            count_small=len(small),
            count_large=len(large),
        )


def records_digest(records: list[FlowRecord]) -> str:
    """A stable hex digest of per-flow completion records.

    Every integer field of every record feeds the hash, so two runs agree
    iff their per-flow FCT results are bit-identical.  The golden
    determinism tests pin these digests across kernel refactors, and
    ``repro bench`` reports them so a perf regression hunt can immediately
    tell an "only faster" change from a behavioural one.
    """
    hasher = hashlib.sha256()
    for r in records:
        hasher.update(
            f"{r.flow_id},{r.src},{r.dst},{r.size},"
            f"{r.start_time},{r.fct},{r.ideal_fct};".encode()
        )
    return hasher.hexdigest()


def relative_to(value: float, baseline: float) -> float:
    """``value / baseline`` with NaN propagation for empty buckets."""
    if baseline != baseline or value != value:  # NaN check without numpy
        return float("nan")
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return value / baseline


__all__ = [
    "FctSummary",
    "LARGE_FLOW_BYTES",
    "SMALL_FLOW_BYTES",
    "records_digest",
    "relative_to",
]
