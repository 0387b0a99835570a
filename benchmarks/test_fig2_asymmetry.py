"""Figure 2: congestion-aware load balancing needs non-local information.

Paper scenario: L0 sends 100 Gbps of TCP traffic to L1 over two spines; the
(S1, L1) link has half the capacity of the others.  Paper numbers:

* static ECMP delivers 90 Gbps (50/50 split, lower path capped at 40);
* local congestion-aware delivers only 80 Gbps (40/40 — *worse* than ECMP);
* global congestion-aware (CONGA) delivers 100 Gbps (66.6/33.3).
"""

from conftest import report

from repro.fluid import (
    conga_split,
    ecmp_split,
    figure2_demand,
    figure2_network,
    local_aware_split,
)

PAPER_THROUGHPUT = {"ecmp": 90.0, "local": 80.0, "conga": 100.0}


def _run():
    network = figure2_network()
    demand = figure2_demand()
    results = {}
    for name, allocator in (
        ("ecmp", ecmp_split),
        ("local", local_aware_split),
        ("conga", conga_split),
    ):
        allocation = allocator(network, demand)
        split = allocation.splits[0]
        results[name] = {
            "throughput": allocation.total_throughput(),
            "upper": split[("L0", "S0", "L1")],
            "lower": split[("L0", "S1", "L1")],
        }
    return results


def test_figure2_scheme_throughputs():
    results = _run()
    rows = [
        [
            name,
            PAPER_THROUGHPUT[name],
            values["throughput"],
            values["upper"],
            values["lower"],
        ]
        for name, values in results.items()
    ]
    report(
        "Figure 2: asymmetric scenario throughput (Gbps)",
        ["scheme", "paper", "measured", "via S0", "via S1"],
        rows,
    )
    for name, paper_value in PAPER_THROUGHPUT.items():
        assert results[name]["throughput"] == (
            __import__("pytest").approx(paper_value, abs=1.0)
        )
    # CONGA's split equalizes utilization: 66.6 / 33.3.
    assert results["conga"]["upper"] == __import__("pytest").approx(66.7, abs=1.5)
    # The ordering that motivates global congestion awareness (2.4).
    assert (
        results["local"]["throughput"]
        < results["ecmp"]["throughput"]
        < results["conga"]["throughput"]
    )
