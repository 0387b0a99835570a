"""Figure 8: the empirical traffic distributions driving the evaluation.

Prints the flow-size CDF and the byte-weighted CDF for the enterprise and
data-mining workloads and checks the properties §5.2.1 calls out: in the
enterprise workload ~50% of bytes come from flows smaller than 35 MB, while
in data-mining those flows contribute only ~5% (95% of bytes belong to the
~3.6% of flows larger than 35 MB).
"""

from pathlib import Path

import numpy as np
import pytest
from conftest import report

from repro.workloads import DATA_MINING, ENTERPRISE

pytest.importorskip("yaml", reason="scenario files need PyYAML")
from repro.scenarios import load_scenario  # noqa: E402  (after the gate)

SCENARIO = load_scenario(
    Path(__file__).resolve().parent.parent / "scenarios" / "fig8_workloads.yaml"
)
PIVOT_BYTES = SCENARIO.params["pivot_bytes"]


def _run():
    params = SCENARIO.params
    probes = np.logspace(
        params["probe_log10_min"],
        params["probe_log10_max"],
        params["probe_count"],
    )
    table = {}
    from repro.apps import get_workload

    for dist in (get_workload(name) for name in SCENARIO.workloads):
        flow_cdf = []
        byte_cdf = []
        for probe in probes:
            index = np.searchsorted([p[0] for p in dist.points], probe)
            flow_fraction = (
                dist.points[min(index, len(dist.points) - 1)][1]
                if probe >= dist.points[0][0]
                else 0.0
            )
            flow_cdf.append(flow_fraction)
            byte_cdf.append(dist.byte_fraction_below(probe))
        table[dist.name] = (flow_cdf, byte_cdf)
    return probes, table


def test_figure8_workload_distributions():
    probes, table = _run()
    for name, (flow_cdf, byte_cdf) in table.items():
        report(
            f"Figure 8: {name} workload CDFs",
            ["size (B)", "flows <= size", "bytes <= size"],
            [
                [f"{p:.0f}", f"{f:.2f}", f"{b:.2f}"]
                for p, f, b in zip(probes, flow_cdf, byte_cdf)
            ],
        )
    report(
        "5.2.1: byte share of flows below 35 MB",
        ["workload", "paper", "measured"],
        [
            ["enterprise", "~50%",
             f"{ENTERPRISE.byte_fraction_below(PIVOT_BYTES):.0%}"],
            ["data-mining", "~5%",
             f"{DATA_MINING.byte_fraction_below(PIVOT_BYTES):.0%}"],
        ],
    )
    assert ENTERPRISE.byte_fraction_below(PIVOT_BYTES) == pytest.approx(0.5, abs=0.15)
    assert DATA_MINING.byte_fraction_below(PIVOT_BYTES) < 0.15
    # Heavy tails: a small fraction of flows carries most bytes in both.
    assert DATA_MINING.coefficient_of_variation() > ENTERPRISE.coefficient_of_variation() * 0.9
