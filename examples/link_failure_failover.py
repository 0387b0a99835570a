#!/usr/bin/env python3
"""Link failure: how each scheme copes with an asymmetric fabric.

Recreates the paper's Figure 7(b)/Figure 11 scenario: one of the two links
between Leaf 1 and Spine 1 fails, leaving 75% of the bisection toward
Leaf 1.  A data-mining workload is pushed from Leaf 0 to Leaf 1 at 60% load
under ECMP, CONGA-Flow, CONGA, and MPTCP, and the example reports average
flow completion times plus the queue at the degraded [Spine1→Leaf1] link.

It also reruns the Figure 2 fluid analysis to show *why* local schemes
cannot handle this: with asymmetry, ECMP strands capacity, a local
congestion-aware scheme is even worse, and only global awareness (CONGA)
delivers the full demand.

Run:  python examples/link_failure_failover.py
"""

from repro.apps import ExperimentSpec, QueueMonitorSpec
from repro.fluid import (
    conga_split,
    ecmp_split,
    figure2_demand,
    figure2_network,
    local_aware_split,
)
from repro.runner import run_sweep, sweep_grid

SCHEMES = ["ecmp", "conga-flow", "conga", "mptcp"]


def fluid_analysis() -> None:
    print("Figure 2 fluid analysis (100 Gbps demand, one half-rate path):")
    network, demand = figure2_network(), figure2_demand()
    for name, allocator in (
        ("ECMP (static)", ecmp_split),
        ("local congestion-aware", local_aware_split),
        ("CONGA (global)", conga_split),
    ):
        allocation = allocator(network, demand)
        print(f"  {name:24s} delivers {allocation.total_throughput():6.1f} Gbps")
    print()


def packet_level_failure() -> None:
    print("Packet-level: data-mining @60% load across the degraded fabric")
    print(f"{'scheme':12s} {'avg FCT (norm)':>15s} {'hotspot mean q':>15s}")

    template = ExperimentSpec(
        scheme="ecmp",
        workload="data-mining",
        load=0.6,
        num_flows=150,
        size_scale=0.05,
        seed=7,
        clients=range(8, 16),  # load the leaf0 -> leaf1 direction
        failed_links=[(1, 1, 0)],
        # Sample the queue at the surviving Spine1->Leaf1 downlink.
        queue_monitor=QueueMonitorSpec(
            tier="spine", direction="down", spine=1, leaf=1
        ),
    )
    sweep = run_sweep(sweep_grid(template, schemes=SCHEMES), cache=None)
    for point in sweep:
        queues = point.queue_series
        queue_kb = queues.mean(queues.port_names[0]) / 1e3
        print(
            f"{point.scheme:12s} {point.summary.mean_normalized:15.1f} "
            f"{queue_kb:12.1f} KB"
        )


def main() -> None:
    fluid_analysis()
    packet_level_failure()


if __name__ == "__main__":
    main()
