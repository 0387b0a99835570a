"""Structured failure results for the crash-tolerant sweep runner.

A sweep always returns one entry per spec: points that could not be
executed — worker exception after retries, wall-clock timeout, or a worker
process that died — come back as :class:`PointFailure` values in their
input-order slot instead of aborting the whole sweep.  Failures are never
written to the result cache, so a later sweep retries them from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.apps.spec import ExperimentSpec

#: The three ways a point can fail, and the ``sweep.*`` counter each
#: charged attempt of that kind increments.
FAILURE_COUNTERS = {
    "exception": "sweep.exceptions",
    "timeout": "sweep.timeouts",
    "crash": "sweep.crashes",
}
FAILURE_KINDS = tuple(FAILURE_COUNTERS)


@dataclass(frozen=True)
class PointFailure:
    """One spec's terminal failure after all retries were exhausted.

    ``kind`` is ``"exception"`` (the point raised), ``"timeout"`` (it
    exceeded the sweep's per-point wall-clock budget), or ``"crash"`` (its
    worker process died — segfault, ``os._exit``, OOM kill).  ``attempts``
    counts executions actually charged to this spec (one point is in flight
    per worker, so a lost worker charges exactly the point it was running).
    """

    spec: "ExperimentSpec"
    error: str
    kind: str
    attempts: int
    wall_seconds: float

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"kind must be one of {FAILURE_KINDS}, got {self.kind!r}"
            )
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    # Mirrors of PointResult's spec accessors so SweepResult.select() and
    # table-building code can filter failures and successes uniformly.
    @property
    def scheme(self) -> str:
        """Scheme name of the failed spec."""
        return self.spec.scheme

    @property
    def workload(self) -> str:
        """Workload name of the failed spec."""
        return self.spec.workload

    @property
    def load(self) -> float:
        """Offered load of the failed spec."""
        return self.spec.load

    @property
    def from_cache(self) -> bool:
        """Failures are never cached."""
        return False


def _describe(exc: BaseException) -> str:
    """The ``error`` text of a failure caused by ``exc``."""
    return f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__


__all__ = ["FAILURE_COUNTERS", "FAILURE_KINDS", "PointFailure"]
