"""Figure 3: the optimal traffic split depends on the traffic matrix.

Paper scenario: three leaves, two spines, all links 40 Gbps, but L0 only
connects to S0.  The L1→L2 flow must adjust how much it sends through S0
based on how much L0→L2 traffic exists:

* (a) no L0→L2 traffic: L1→L2 can use both spines (about 50/50 is fine);
* (b) 40 Gbps of L0→L2: S0→L2 is consumed, so L1→L2 must move to S1.

No static weight vector handles both matrices — the argument against
oblivious routing (§2.4).
"""

import pytest
from conftest import report

from repro.fluid import (
    FluidAllocation,
    FluidDemand,
    conga_split,
    figure3_network,
)


def _run():
    network = figure3_network()
    outcomes = {}
    for l0_rate in (0.0, 40.0):
        demands = [FluidDemand("L1", "L2", 40.0)]
        if l0_rate:
            demands.append(FluidDemand("L0", "L2", l0_rate))
        allocation = conga_split(network, demands)
        split = allocation.splits[0]
        via_s0 = split[("L1", "S0", "L2")]
        outcomes[l0_rate] = {
            "via_s0": via_s0,
            "via_s1": split[("L1", "S1", "L2")],
            "bottleneck": allocation.max_utilization(),
            "delivered": allocation.total_throughput(),
        }
    # Static weights tuned for case (a) applied to case (b):
    demands_b = [FluidDemand("L1", "L2", 40.0), FluidDemand("L0", "L2", 40.0)]
    static = FluidAllocation(network, demands_b)
    static.splits = [
        {("L1", "S0", "L2"): 20.0, ("L1", "S1", "L2"): 20.0},
        {("L0", "S0", "L2"): 40.0},
    ]
    outcomes["static-weights-case-b"] = {
        "via_s0": 20.0,
        "via_s1": 20.0,
        "bottleneck": static.max_utilization(),
        "delivered": static.total_throughput(),
    }
    return outcomes


def test_figure3_optimal_split_depends_on_traffic_matrix():
    outcomes = _run()
    report(
        "Figure 3: L1->L2 split through S0 vs traffic matrix (Gbps)",
        ["L0->L2 traffic", "via S0", "via S1", "bottleneck util", "delivered"],
        [
            [key, o["via_s0"], o["via_s1"], o["bottleneck"], o["delivered"]]
            for key, o in outcomes.items()
        ],
    )
    # (a) without L0 traffic: an even split is optimal.
    assert outcomes[0.0]["via_s0"] == pytest.approx(20.0, abs=2.0)
    # (b) with 40G of L0->L2: nearly everything must move to S1.
    assert outcomes[40.0]["via_s0"] < 5.0
    assert outcomes[40.0]["bottleneck"] <= 1.01
    # The static weights that were right for (a) congest S0->L2 in (b).
    assert outcomes["static-weights-case-b"]["bottleneck"] > 1.2
