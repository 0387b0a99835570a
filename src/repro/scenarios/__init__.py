"""Declarative experiment scenarios: YAML-authored, hash-stable sweeps.

A :class:`Scenario` names a sweep — a template
:class:`~repro.apps.ExperimentSpec` plus grid axes and optional inline
workload CDFs — and compiles to exactly the spec grid a hand-written
benchmark would build (same content hashes, same cache keys).  Scenarios
load from YAML via :func:`load_scenario`, which reports every problem as
a :class:`ScenarioError` with file/line context.

The committed exemplars live in ``scenarios/*.yaml`` at the repo root;
run them with ``conga-repro scenario run`` or hand the compiled grid to
:func:`repro.runner.run_sweep`, the one door to a sweep (any backend:
``run_sweep(scenario.compile(), backend=get_backend(name)())``).
"""

from repro.scenarios.loader import (
    ScenarioError,
    load_scenario,
    scenario_from_mapping,
)
from repro.scenarios.scenario import Scenario, SeedPlan

__all__ = [
    "Scenario",
    "ScenarioError",
    "SeedPlan",
    "load_scenario",
    "scenario_from_mapping",
]
