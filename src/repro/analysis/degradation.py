"""Degradation metrics for fault-injection runs (Figs. 11/16 territory).

The paper's resilience story is about what happens *while* the fabric is
degraded and how fast things normalize afterwards.  This module turns a
run's flow records plus the fault window (from
:func:`repro.faults.fault_window`) into those numbers:

* application goodput (completed bytes per second) before, during, and
  after the degraded window;
* post-restore recovery time — how long after the window closes it takes
  binned goodput to climb back to a fraction of the pre-fault level;
* the sender-side loss-recovery counters (retransmits, RTO timeouts)
  accumulated by the run.

Goodput attributes each flow's bytes to its completion instant
(``start_time + fct``), matching how an application measures "requests
finished per second".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.transport.tcp import FlowRecord
from repro.units import milliseconds

if TYPE_CHECKING:
    from repro.apps.spec import PointResult
    from repro.faults.events import FaultEvent


def _phase_goodput(
    completions: Sequence[tuple[int, int]], start: int, end: int
) -> float:
    """Goodput in bits/sec of flows completing in ``[start, end)``."""
    duration = end - start
    if duration <= 0:
        return 0.0
    total = sum(size for when, size in completions if start <= when < end)
    return total * 8e9 / duration


def window_goodput(records: Sequence[FlowRecord], start: int, end: int) -> float:
    """Goodput (bits/sec) of ``records`` completing in ``[start, end)``.

    The same completion-instant attribution the summary uses, exposed for
    cross-run comparisons: a fault benchmark can score a faulted run's
    in-window goodput against a *fault-free* run of the same spec over the
    identical window, which sidesteps the ramp-up noise a run's own
    pre-fault phase carries when the fault lands early.
    """
    return _phase_goodput(
        [(r.start_time + r.fct, r.size) for r in records], start, end
    )


@dataclass(frozen=True)
class DegradationSummary:
    """How one run behaved across its fault window.

    ``window_end`` of ``None`` means the degradation persisted to the end
    of the run (no restoring event), in which case ``goodput_after_bps``
    is 0 and ``recovery_time`` is ``None``.  ``recovery_time`` is also
    ``None`` when binned goodput never re-reached the threshold before the
    run ended.
    """

    window_start: int
    window_end: int | None
    end_time: int
    goodput_before_bps: float
    goodput_during_bps: float
    goodput_after_bps: float
    recovery_time: int | None
    retransmissions: int
    timeouts: int
    #: Peak per-tier capacity asymmetry over the fault schedule, as sorted
    #: (tier, fraction) pairs — e.g. ``(("core", 0.25), ("leaf", 0.0))``
    #: for a run that lost a quarter of its spine↔core capacity.  Empty
    #: when the caller has no injector bookkeeping to report.
    tier_asymmetry: tuple[tuple[str, float], ...] = ()

    @staticmethod
    def from_records(
        records: Sequence[FlowRecord],
        *,
        window_start: int,
        window_end: int | None,
        end_time: int,
        retransmissions: int = 0,
        timeouts: int = 0,
        tier_asymmetry: tuple[tuple[str, float], ...] = (),
        bin_width: int = milliseconds(1),
        recovery_fraction: float = 0.9,
    ) -> "DegradationSummary":
        """Compute the degradation view of one run's completions.

        ``recovery_time`` is measured from ``window_end`` to the end of
        the first ``bin_width`` bin whose goodput reaches
        ``recovery_fraction`` of the pre-fault (before-window) goodput.
        """
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        if not 0.0 < recovery_fraction <= 1.0:
            raise ValueError(
                f"recovery_fraction must be in (0, 1], got {recovery_fraction}"
            )
        completions = [(r.start_time + r.fct, r.size) for r in records]
        during_end = window_end if window_end is not None else end_time
        before = _phase_goodput(completions, 0, window_start)
        during = _phase_goodput(completions, window_start, during_end)
        after = (
            _phase_goodput(completions, window_end, end_time)
            if window_end is not None
            else 0.0
        )

        recovery: int | None = None
        if window_end is not None and before > 0.0:
            threshold = recovery_fraction * before
            edge = window_end
            while edge < end_time:
                bin_end = min(edge + bin_width, end_time)
                if _phase_goodput(completions, edge, bin_end) >= threshold:
                    recovery = bin_end - window_end
                    break
                edge = bin_end

        return DegradationSummary(
            window_start=window_start,
            window_end=window_end,
            end_time=end_time,
            goodput_before_bps=before,
            goodput_during_bps=during,
            goodput_after_bps=after,
            recovery_time=recovery,
            retransmissions=retransmissions,
            timeouts=timeouts,
            tier_asymmetry=tuple(tier_asymmetry),
        )

    @property
    def goodput_retained(self) -> float:
        """In-window goodput as a fraction of pre-fault goodput.

        The single-number "graceful degradation" score: 1.0 means the
        fault was invisible to applications; NaN when there was no
        pre-fault phase to compare against.
        """
        if self.goodput_before_bps <= 0.0:
            return float("nan")
        return self.goodput_during_bps / self.goodput_before_bps

    def asymmetry_of(self, tier: str) -> float:
        """Peak asymmetry recorded for ``tier`` (0.0 when never degraded)."""
        return dict(self.tier_asymmetry).get(tier, 0.0)


#: A fault cell's kind, by the type of its onset events.
_KINDS = {"LinkDegrade": "brownout", "LinkLoss": "blackhole"}


def fault_cell(faults: Sequence["FaultEvent"]) -> tuple[str, str, int]:
    """A fault schedule's (tier, kind, density), read off its events.

    The kind names the onset (non-restoring) events' type — a
    ``LinkDegrade`` is a brownout, a ``LinkLoss`` a black hole, anything
    else its class name; the tier is ``core`` when they target a spine-core
    link, ``leaf`` otherwise; the density is how many there are.
    """
    onsets = [event for event in faults if not event.restores()]
    name = type(onsets[0]).__name__
    tier = "leaf" if getattr(onsets[0], "core", None) is None else "core"
    return tier, _KINDS.get(name, name), len(onsets)


def recovery_matrix(
    points: Iterable["PointResult"],
) -> dict[tuple["FaultEvent", ...], dict[str, dict[str, list[float]]]]:
    """A fault sweep scored against its own healthy baseline.

    ``points`` is one sweep whose fault-free points are the baseline.  Per
    fault schedule and scheme, over the seeds: ``retained`` — in-window
    goodput over the same scheme+seed's healthy goodput across the
    identical window (which sidesteps the ramp-up noise of a run's own
    pre-fault phase); ``fct`` — mean normalized FCT; ``timeouts`` — RTOs;
    ``asym`` — peak capacity asymmetry of the schedule's tier.  A point
    whose baseline is missing (it failed) is skipped.
    """
    points = list(points)
    healthy = {(p.scheme, p.spec.seed): p.records for p in points if not p.spec.faults}
    matrix: dict = {}
    for point in points:
        records = healthy.get((point.scheme, point.spec.seed))
        if not point.spec.faults or records is None:
            continue
        d = point.degradation()
        end = d.window_end if d.window_end is not None else d.end_time
        base = window_goodput(records, d.window_start, end)
        stats = matrix.setdefault(point.spec.faults, {}).setdefault(
            point.scheme, {"retained": [], "fct": [], "timeouts": [], "asym": []}
        )
        if base > 0:
            stats["retained"].append(d.goodput_during_bps / base)
        if point.summary is not None:
            stats["fct"].append(point.summary.mean_normalized)
        stats["timeouts"].append(point.timeouts)
        stats["asym"].append(d.asymmetry_of(fault_cell(point.spec.faults)[0]))
    return matrix


__all__ = ["DegradationSummary", "fault_cell", "recovery_matrix", "window_goodput"]
