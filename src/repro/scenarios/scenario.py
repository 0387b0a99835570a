"""Declarative scenario values: a named, hashable sweep description.

A :class:`Scenario` is the value-object face of "one figure's worth of
experiments": a template :class:`~repro.apps.spec.ExperimentSpec` plus the
grid axes swept over it (schemes, workloads, loads, seeds, and any further
template fields such as the TCP parameters or the traffic) and any inline
workload CDFs the scenario defines for itself.  It compiles to the exact
:func:`repro.runner.sweep_grid` product a hand-written benchmark would
build — same specs, same content hashes — so a scenario never invalidates
the ``.repro-cache/`` entries of the Python code it replaces.

Seeds come either as an explicit tuple or as a :class:`SeedPlan`, which
derives replicate seeds from a base seed through
:func:`repro.runner.derive_seeds` — the same named-stream discipline the
simulator uses, so a scenario file pins its seed list on every machine.

Scenarios are frozen dataclasses, so they hash, compare, and pickle like
every other spec value in the repo.  The YAML front end lives in
:mod:`repro.scenarios.loader`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any

from repro.apps.spec import ExperimentSpec, _at, _canonical, get_workload
from repro.core.params import HASH_NEUTRAL_DEFAULT
from repro.runner.sweep import derive_seeds, sweep_grid
from repro.workloads import FlowSizeDistribution, register_workload


@dataclass(frozen=True)
class SeedPlan:
    """Replicate seeds derived from a base seed, as a value.

    ``SeedPlan(base=31, count=5)`` resolves to the same five seeds
    :func:`repro.runner.derive_seeds` would return for that base — on any
    machine, in any process — so a scenario file can ask for "5 replicates
    of seed 31" without hard-coding the derived list.
    """

    base: int
    count: int
    stream: str = "sweep-seeds"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"need at least one seed, got count={self.count}")

    def resolve(self) -> tuple[int, ...]:
        """The concrete seed list this plan describes."""
        return tuple(derive_seeds(self.base, self.count, self.stream))


@dataclass(frozen=True)
class Scenario:
    """A named, frozen description of one sweep over a spec template.

    Grid axes left as ``None`` keep the template's value (exactly like
    :func:`repro.runner.sweep_grid`, which :meth:`compile` delegates to).
    ``defined_workloads`` carries inline CDFs the scenario introduces;
    :meth:`validate` registers them so the compiled specs can resolve
    their workload names.

    ``axes`` are further grid axes over other template fields, outermost
    first, as ``(spec field, values)`` pairs — e.g. ``("tcp_params",
    (TcpParams(mss=1460), TcpParams(mss=8960)))`` or ``("faults", ((),
    (LinkDown(...),)))``; each value replaces the template's field for one
    slice of the grid.  Empty ``axes`` hash as if the field did not exist.

    ``source`` records where the scenario was loaded from (for error
    messages and provenance) and is excluded from equality and
    :meth:`content_hash` — the same scenario hashes identically wherever
    its file lives.
    """

    name: str
    template: ExperimentSpec
    description: str = ""
    schemes: tuple[str, ...] | None = None
    workloads: tuple[str, ...] | None = None
    loads: tuple[float, ...] | None = None
    seeds: tuple[int, ...] | SeedPlan | None = None
    defined_workloads: tuple[FlowSizeDistribution, ...] = ()
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = field(
        default=(), metadata=HASH_NEUTRAL_DEFAULT
    )
    source: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        if self.schemes is not None:
            object.__setattr__(self, "schemes", tuple(self.schemes))
        if self.workloads is not None:
            object.__setattr__(self, "workloads", tuple(self.workloads))
        if self.loads is not None:
            object.__setattr__(
                self, "loads", tuple(float(x) for x in self.loads)
            )
        if self.seeds is not None and not isinstance(self.seeds, SeedPlan):
            object.__setattr__(
                self, "seeds", tuple(int(x) for x in self.seeds)
            )
        object.__setattr__(
            self, "defined_workloads", tuple(self.defined_workloads)
        )
        object.__setattr__(
            self, "axes", tuple((name, tuple(values)) for name, values in self.axes)
        )

    # -- grid -----------------------------------------------------------------

    def seed_list(self) -> tuple[int, ...] | None:
        """The concrete seed axis (resolving a :class:`SeedPlan` if set)."""
        if isinstance(self.seeds, SeedPlan):
            return self.seeds.resolve()
        return self.seeds

    def point_count(self) -> int:
        """How many specs :meth:`compile` will produce."""
        axes = (
            self.schemes,
            self.workloads,
            self.loads,
            self.seed_list(),
        )
        count = 1
        for axis in axes:
            count *= len(axis) if axis is not None else 1
        for _name, values in self.axes:
            count *= len(values)
        return count

    def validate(self) -> None:
        """Check the scenario resolves: workloads registered, names known.

        The one place inline CDFs are registered (idempotently) and names
        resolved, so a bad scenario fails here, not mid-sweep, located at
        its key (``workloads.<name>``, ``template.scheme``, ``grid.schemes.<i>``).
        """
        from repro.apps.experiment import get_scheme

        for dist in self.defined_workloads:
            _at(("workloads", dist.name), register_workload, dist)
        for axis, field_, lookup in (
            ("schemes", "scheme", get_scheme),
            ("workloads", "workload", get_workload),
        ):
            names = getattr(self, axis)
            if names is None:
                _at(("template", field_), lookup, getattr(self.template, field_))
            for i, name in enumerate(names or ()):
                _at(("grid", axis, str(i)), lookup, name)
        seeds = self.seed_list()
        if seeds is not None and not seeds:
            raise ValueError("the seeds axis must not be empty")
        for axis_name in ("schemes", "workloads", "loads"):
            axis = getattr(self, axis_name)
            if axis is not None and not axis:
                raise ValueError(f"the {axis_name} axis must not be empty")
        for name, values in self.axes:
            if not values:
                raise ValueError(f"the {name} axis must not be empty")

    def compile(self) -> list[ExperimentSpec]:
        """The scenario's spec grid — bit-identical to a hand-built sweep.

        Delegates to :func:`repro.runner.sweep_grid` over the same
        template (once per combination of ``axes``, the outermost loops),
        so a scenario compiles to *exactly* the specs (and content hashes)
        the equivalent Python benchmark builds; existing cache entries stay
        reachable.
        """
        self.validate()
        names = [name for name, _values in self.axes]
        specs = []
        for values in itertools.product(*(values for _name, values in self.axes)):
            specs += sweep_grid(
                self.template.with_(**dict(zip(names, values))),
                schemes=self.schemes,
                loads=self.loads,
                seeds=self.seed_list(),
                workloads=self.workloads,
            )
        return specs

    def grid_hashes(self) -> tuple[str, ...]:
        """Content hash of every compiled spec, in grid order."""
        return tuple(spec.content_hash() for spec in self.compile())

    def grid_digest(self) -> str:
        """One stable digest over the whole compiled grid.

        Changes iff any compiled spec's content hash changes — the number
        CI pins to detect accidental grid drift in committed scenarios.
        """
        digest = hashlib.sha256()
        for value in self.grid_hashes():
            digest.update(value.encode())
        return digest.hexdigest()

    # -- identity -------------------------------------------------------------

    def content_hash(self) -> str:
        """Stable content address of the scenario value itself.

        Unlike :meth:`ExperimentSpec.content_hash` this is *not* salted
        with the package version: it identifies the description, not the
        results (those are keyed per-spec).  ``source`` is excluded.
        """
        payload = _canonical(self)
        payload.pop("source")
        # The template's ``obs`` and its ``timeline`` turned hash-neutral
        # after scenario hashes were pinned; this hash keeps them unset.
        obs = payload["template"].setdefault("obs", None)
        if obs is not None:
            obs.setdefault("timeline", None)
        # The retired free-form ``params`` block, always empty now: pinned
        # scenario hashes stay those of the files that never had one.
        payload["params_json"] = "{}"
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


__all__ = ["Scenario", "SeedPlan"]
