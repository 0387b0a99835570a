"""The paper's claims: one test per row of :data:`repro.analysis.claims.CLAIMS`.

Runs are scaled down from the 64-server testbed, so absolute numbers differ
from the paper; each row asserts a shape — which scheme wins, by roughly what
factor, where behaviour changes.  A grid runs once, for the first row that
reads it, and prints the series the paper plots (``pytest benchmarks -s``).
Rows marking a known deviation must fail: they are strict xfails.
"""

import pytest

pytest.importorskip("yaml", reason="scenario files need PyYAML")

from repro.analysis.claims import CLAIMS, EXTRACTORS, FIGURES, run_grid  # noqa: E402

#: The grid the rows currently under test read (rows are grouped by grid).
_last: dict = {}


def _result(grid):
    if grid not in _last:
        _last.clear()
        _last[grid] = run_grid(grid)
        FIGURES[grid](_last[grid])
    return _last[grid]


@pytest.mark.parametrize(
    "claim",
    [
        pytest.param(claim, id=claim.id, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=claim.deviation
        ) if claim.deviation else ())
        for claim in CLAIMS
    ],
)
def test_claim(claim):
    margins = claim.margins(EXTRACTORS[claim.metric](_result(claim.grid)))
    assert claim.holds(margins), (
        f"{claim.anchor}: {' {} '.format(claim.relation).join(map(str, claim.sides))}"
        f" (tolerance {claim.tolerance}) fails; margins {margins}"
    )
