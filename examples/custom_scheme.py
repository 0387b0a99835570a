#!/usr/bin/env python3
"""Extending the library: plug in your own load balancing scheme.

Every scheme in this repository is an ``UplinkSelector`` — the single
decision point Figure 1's design tree varies.  This example implements a
custom selector ("least-queued": pick the uplink with the shortest local
egress queue, a common industrial heuristic) and races it against ECMP and
CONGA on the same workload and fabric.

It demonstrates exactly the pitfall §2.4 warns about: a purely local
heuristic can do well in symmetric fabrics yet has no way to see a
downstream bottleneck, while CONGA's leaf-to-leaf feedback handles both.

Run:  python examples/custom_scheme.py
"""

from repro.apps import ExperimentSpec, SchemeSpec, register_scheme
from repro.apps.traffic import tcp_flow_factory
from repro.lb.base import UplinkSelector
from repro.net.packet import Packet


class LeastQueuedSelector(UplinkSelector):
    """Send each packet to the uplink with the least-filled egress queue."""

    name = "least-queued"

    def choose_uplink(
        self, packet: Packet, dst_leaf: int, candidates: list[int]
    ) -> int:
        return min(
            candidates,
            key=lambda index: self.leaf.uplinks[index].queue.byte_occupancy,
        )


def main() -> None:
    # Register the custom scheme alongside the built-ins; after this,
    # "least-queued" works anywhere a scheme name does (ExperimentSpec,
    # run_sweep, the CLI).
    register_scheme(
        SchemeSpec(
            "least-queued",
            make_selector=lambda: LeastQueuedSelector,
            make_flow_factory=tcp_flow_factory,
        )
    )

    base = ExperimentSpec(
        scheme="ecmp",
        workload="data-mining",
        load=0.6,
        num_flows=150,
        size_scale=0.05,
        seed=7,
    )
    for failed, label in (([], "symmetric fabric"), ([(1, 1, 0)], "with a failed link")):
        print(f"\ndata-mining workload @60% load, {label}:")
        for scheme in ("ecmp", "least-queued", "conga"):
            # Dynamically registered schemes only exist in this process,
            # so run the spec inline rather than through a worker pool.
            point = base.with_(
                scheme=scheme,
                clients=range(8, 16) if failed else None,
                failed_links=failed,
            ).run()
            print(
                f"  {scheme:14s} mean FCT (normalized): "
                f"{point.summary.mean_normalized:6.1f}"
            )


if __name__ == "__main__":
    main()
