"""Sweep construction and results.

Every figure in the paper is a sweep — N schemes × M loads × seeds — and
each point is an independent, deterministic function of its
:class:`ExperimentSpec`.  The entry point lives in
:mod:`repro.runner.dispatch` (:func:`run_sweep`), and execution — inline
or over worker processes, with its retries, timeouts and crash blame — in
:mod:`repro.runner.backends`; this module holds what both build on: the
grid helpers and the :class:`SweepResult` a sweep comes back as, in input
order and bit-identical regardless of worker count because every random
draw inside a point comes from the spec's own seed via named RNG streams
and process-stable hashing.

Sweep construction helpers:

* :func:`sweep_grid` — the cartesian product builder for the common
  "schemes × loads × seeds over one scenario template" shape;
* :func:`derive_seeds` — deterministic replicate seeds derived from a base
  seed with the same named-stream discipline the simulator uses, so seed
  lists are reproducible across machines and processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.apps.spec import ExperimentSpec, PointResult
from repro.net.hashing import stable_string_seed
from repro.runner.failures import PointFailure

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsReport

ProgressFn = Callable[[str], None]


def derive_seeds(base_seed: int, count: int, stream: str = "sweep-seeds") -> list[int]:
    """``count`` deterministic replicate seeds derived from ``base_seed``.

    Extends the simulator's named-RNG-stream discipline to sweep
    construction: the stream name is hashed process-stably, so the same
    (base_seed, stream) pair yields the same seed list on any machine, in
    any process.  Seeds are positive 31-bit ints, safe for ``Simulator``.
    """
    if count < 1:
        raise ValueError(f"need at least one seed, got {count}")
    from repro.sim.pcg64 import generate_state

    state = generate_state((base_seed, stable_string_seed(stream)), count)
    return [value % (1 << 31) or 1 for value in state]


def sweep_grid(
    template: ExperimentSpec,
    *,
    schemes: Sequence[str] | None = None,
    loads: Sequence[float] | None = None,
    seeds: Sequence[int] | None = None,
    workloads: Sequence[str] | None = None,
) -> list[ExperimentSpec]:
    """The cartesian product of the given axes over a scenario template.

    Axes left as ``None`` keep the template's value.  Order is
    seed-major → workload → load → scheme, matching how the figure
    benchmarks tabulate (all schemes of one load adjacent).
    """
    specs = []
    for seed in seeds if seeds is not None else [template.seed]:
        for workload in workloads if workloads is not None else [template.workload]:
            for load in loads if loads is not None else [template.load]:
                for scheme in schemes if schemes is not None else [template.scheme]:
                    specs.append(
                        template.with_(
                            scheme=scheme, workload=workload, load=load, seed=seed
                        )
                    )
    return specs


@dataclass(frozen=True)
class SweepResult:
    """Results of one sweep, in input order, plus execution accounting.

    ``points`` holds a :class:`PointResult` per successful spec and a
    :class:`PointFailure` per spec that exhausted its retries — always one
    entry per input spec, in input order.
    """

    points: tuple[PointResult | PointFailure, ...]
    executed: int
    cached: int
    wall_seconds: float
    #: Sweep-runner accounting under ``sweep.*`` dotted names (cache hits,
    #: retries, timeouts, crashes, worker restarts, ...); None only for the
    #: degenerate empty sweep.
    metrics: MetricsReport | None = None

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def failures(self) -> list[PointFailure]:
        """Points that failed after exhausting their retries."""
        return [p for p in self.points if isinstance(p, PointFailure)]

    def point(self, **filters) -> PointResult:
        """The unique point whose spec matches all ``filters`` exactly.

        ``sweep.point(scheme="conga", load=0.6)`` is the lookup the figure
        benchmarks do; raises if the filters match zero or several points.
        """
        matches = self.select(**filters)
        if len(matches) != 1:
            raise LookupError(
                f"filters {filters!r} matched {len(matches)} points, expected 1"
            )
        return matches[0]

    def select(self, **filters) -> list[PointResult]:
        """All points whose spec fields equal the given filter values."""
        return [
            point
            for point in self.points
            if all(
                getattr(point.spec, name) == value
                for name, value in filters.items()
            )
        ]

    @property
    def events_executed(self) -> int:
        """Total simulator events across executed (non-cached) points."""
        return sum(
            p.events_executed
            for p in self.points
            if isinstance(p, PointResult) and not p.from_cache
        )

    @property
    def all_cached(self) -> bool:
        """Whether every point was served from the cache."""
        return self.executed == 0 and len(self.points) > 0

    def digest(self) -> str:
        """A stable digest of *what was computed*, not how.

        Hashes each point's spec content hash together with the
        :func:`~repro.analysis.fct.records_digest` of its flow records
        (or the failure kind for failed points).  Cache hits, worker
        counts, and dispatch backends are invisible to it — the
        determinism contract says the same specs yield the same records
        everywhere, and this is the number that checks it.
        """
        import hashlib

        from repro.analysis.fct import records_digest

        hasher = hashlib.sha256()
        for point in self.points:
            hasher.update(point.spec.content_hash().encode())
            if isinstance(point, PointFailure):
                hasher.update(f"FAILED:{point.kind}".encode())
            else:
                hasher.update(records_digest(list(point.records)).encode())
        return hasher.hexdigest()


__all__ = [
    "SweepResult",
    "derive_seeds",
    "sweep_grid",
]
