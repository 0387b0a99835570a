"""Figure 9: FCT statistics for the enterprise workload, baseline topology.

Paper shape (64-server testbed, Fig. 7a, loads 10–90%):

* overall average FCT (normalized to optimal) is similar for all schemes,
  except MPTCP which is worse than CONGA (up to ~25% worse than the pack);
* CONGA/CONGA-Flow improve large flows (> 10 MB) by up to ~20% over ECMP;
* the enterprise workload is "light" enough that ECMP does respectably
  (contrast with Fig. 10, where it is clearly worst).

Scaled run: 16 hosts, 2:1 oversubscription preserved, flow sizes scaled by
0.05 so the shape of the distribution (and its CoV) is retained.
"""

import math
from pathlib import Path

import pytest
from conftest import report

from repro.analysis import relative_to
from repro.runner import run_sweep

pytest.importorskip("yaml", reason="scenario files need PyYAML")
from repro.scenarios import load_scenario  # noqa: E402  (after the gate)

SCENARIO = load_scenario(
    Path(__file__).resolve().parent.parent
    / "scenarios" / "fig9_enterprise.yaml"
)
LOADS = list(SCENARIO.loads)
SCHEMES = list(SCENARIO.schemes)


def _run():
    sweep = run_sweep(SCENARIO.compile(), cache=None)
    return {
        (p.scheme, p.load): p.summary for p in sweep
    }


def test_figure9_enterprise_fct():
    results = _run()
    report(
        "Figure 9(a): enterprise overall avg FCT (normalized to optimal)",
        ["load"] + SCHEMES,
        [
            [load] + [results[(s, load)].mean_normalized for s in SCHEMES]
            for load in LOADS
        ],
    )
    report(
        "Figure 9(b): small flows (<100KB) avg FCT relative to ECMP",
        ["load"] + SCHEMES,
        [
            [load]
            + [
                relative_to(
                    results[(s, load)].mean_fct_small,
                    results[("ecmp", load)].mean_fct_small,
                )
                for s in SCHEMES
            ]
            for load in LOADS
        ],
    )
    report(
        "Figure 9(c): large flows (>10MB) avg FCT relative to ECMP",
        ["load"] + SCHEMES,
        [
            [load]
            + [
                relative_to(
                    results[(s, load)].mean_fct_large,
                    results[("ecmp", load)].mean_fct_large,
                )
                for s in SCHEMES
            ]
            for load in LOADS
        ],
    )
    for load in LOADS:
        # CONGA is never worse than ECMP overall on this workload.
        assert (
            results[("conga", load)].mean_normalized
            <= results[("ecmp", load)].mean_normalized * 1.05
        )
        # MPTCP trails CONGA overall (the paper's Fig. 9a ordering).
        assert (
            results[("conga", load)].mean_normalized
            <= results[("mptcp", load)].mean_normalized * 1.05
        )
    # Large flows: CONGA clearly better than ECMP on average across loads
    # (the paper reports up to ~20% improvement; individual load points are
    # elephant-dominated and noisy, so assert the aggregate).
    ratios = [
        relative_to(
            results[("conga", load)].mean_fct_large,
            results[("ecmp", load)].mean_fct_large,
        )
        for load in LOADS
    ]
    ratios = [r for r in ratios if not math.isnan(r)]
    assert ratios, "no large flows sampled"
    assert sum(ratios) / len(ratios) < 0.95
