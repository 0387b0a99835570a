"""The claim table cannot rot while ``benchmarks/`` sits outside tier-1.

``benchmarks/test_claims.py`` runs every row of
:data:`repro.analysis.claims.CLAIMS` (minutes); this file checks, in well
under a second, that every name a row holds resolves: its grid (scenario
files that load and compile, or a named grid function), its extractor, its
relation and the tables it prints.  It also pins how a row reads its
margins.
"""

import math

import pytest

from repro.analysis.claims import (
    CLAIMS, EXTRACTORS, FIGURES, GRIDS, RELATIONS, SCENARIOS, Claim,
)

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
