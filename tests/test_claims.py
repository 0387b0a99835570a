"""The claim table cannot rot while ``benchmarks/`` sits outside tier-1.

``benchmarks/test_claims.py`` runs every row of
:data:`repro.analysis.claims.CLAIMS` (minutes); this file checks, mostly in
well under a second, that every name a row holds resolves: its grid
(scenario files that load and compile, or a named grid function), its
extractor, its relation, the tables it prints and the cells it names.  It
also pins how a row reads its margins, that every packet grid runs on
built-in schemes only, and that one point of each such grid gives the same
records through ``SubprocessBackend`` as inline.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.claims import (
    CLAIMS, EXTRACTORS, FIGURES, GRIDS, RELATIONS, SCENARIOS, Claim, _variant,
)
from repro.runner import run_sweep
from repro.runner.backends import SubprocessBackend

yaml = pytest.importorskip("yaml", reason="scenario files need PyYAML")

from repro.scenarios import load_scenario  # noqa: E402  (after the gate)


def test_ids_are_unique_and_every_row_is_anchored():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))
    assert all(claim.anchor.strip() for claim in CLAIMS)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_every_name_a_row_holds_resolves(claim):
    assert claim.metric in EXTRACTORS
    assert claim.relation in RELATIONS
    assert claim.grid in FIGURES
    assert len(claim.sides) >= 2 and claim.tolerance >= 0
    if claim.grid[0] in GRIDS:
        assert len(claim.grid) == 1
    else:
        assert all(name.endswith(".yaml") for name in claim.grid)


@pytest.mark.parametrize(
    "name",
    sorted({name for claim in CLAIMS for name in claim.grid if name not in GRIDS}),
)
def test_every_scenario_grid_loads_and_compiles(name):
    scenario = load_scenario(SCENARIOS / name)
    assert len(scenario.compile()) == scenario.point_count()


def test_known_deviations_are_the_four_rows_that_state_the_paper():
    deviations = [claim for claim in CLAIMS if claim.deviation]
    assert len(deviations) == 4
    assert all(claim.deviation.startswith("known deviation") for claim in deviations)


def test_margins_read_each_neighbouring_pair_and_nan_never_holds():
    chain = Claim("chain", "m", ("a", "b", 3.0), "<", anchor="x", grid=("g",))
    table = {"ok": {"a": 1.0, "b": 2.0}, "tight": {"a": 1.0, "b": 2.9}}
    assert chain.margins(table) == {"ok": 1.0, "tight": pytest.approx(0.1)}
    assert chain.holds(chain.margins(table))
    assert not chain.holds(chain.margins({"bad": {"a": 2.0, "b": 2.0}}))
    assert not chain.holds(chain.margins({"nan": {"a": math.nan, "b": 2.0}}))
    scaled = Claim("scaled", "m", ("a", "b"), ">=", 2.0, anchor="x", grid=("g",))
    assert scaled.holds(scaled.margins({"edge": {"a": 4.0, "b": 2.0}}))
    band = Claim("band", "m", ("a", 1.0), "~", 0.5, anchor="x", grid=("g",))
    assert band.margins({"c": {"a": 1.25}}) == {"c": 0.25}


# -- every packet grid is data any backend can run ------------------------------------

#: Run in a fresh interpreter, so no other test's registration is in SCHEMES.
_SCHEME_PROBE = """
import json
from repro.apps import SCHEMES
built_in = sorted(SCHEMES)
from repro.analysis.claims import CLAIMS, GRIDS, SCENARIOS
from repro.scenarios import load_scenario
used = sorted({
    spec.scheme
    for name in {name for claim in CLAIMS for name in claim.grid if name not in GRIDS}
    for spec in load_scenario(SCENARIOS / name).compile()
})
print(json.dumps({"built_in": built_in, "after": sorted(SCHEMES), "used": used}))
"""


@pytest.fixture(scope="module")
def schemes() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = subprocess.run(
        [sys.executable, "-c", _SCHEME_PROBE], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    return json.loads(child.stdout)


def test_importing_claims_and_compiling_every_grid_registers_no_scheme(schemes):
    assert schemes["after"] == schemes["built_in"]


def test_every_packet_grid_uses_built_in_schemes_only(schemes):
    assert set(schemes["used"]) <= set(schemes["built_in"])
    assert {"hedera", "conga"} <= set(schemes["used"])


@pytest.mark.parametrize(
    "grid", sorted({claim.grid for claim in CLAIMS if claim.metric == "variant_fct"})
)
def test_every_cell_and_side_a_variant_row_names_is_a_point_of_its_grid(grid):
    claims = [claim for claim in CLAIMS if claim.grid == grid]
    specs = [s for name in grid for s in load_scenario(SCENARIOS / name).compile()]
    labels = {_variant(SimpleNamespace(scheme=spec.scheme, spec=spec)) for spec in specs}
    named = {cell for claim in claims for cell in claim.cells}
    named |= {side for claim in claims for side in claim.sides if side != "fct"}
    assert named <= labels
    assert len(labels) == len(specs)  # no two points share a row

def test_one_point_of_each_new_grid_runs_through_subprocess_workers():
    wanted = {
        "ablation_parameters.yaml": lambda s: s.config.params.path_metric == "sum",
        "design_space.yaml": lambda s: s.scheme == "local",
        "design_hedera.yaml": lambda s: s.config.controller_period == 1_000_000,
    }
    specs = [
        next(s for s in load_scenario(SCENARIOS / name).compile() if pick(s))
        for name, pick in wanted.items()
    ]
    inline = run_sweep(specs, workers=1, cache=None)
    workers = run_sweep(specs, backend=SubprocessBackend(workers=1), cache=None)
    assert not inline.failures and not workers.failures
    assert workers.digest() == inline.digest()
    assert [p.events_executed for p in workers] == [p.events_executed for p in inline]
