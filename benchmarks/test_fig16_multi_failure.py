"""Figure 16: multiple link failures in a 288-port fabric.

Paper scenario: 6 leaves × 4 spines, 3×40 Gbps links per leaf-spine pair,
9 randomly chosen links failed, web-search workload at 60% load.  Paper
shape: CONGA balances traffic significantly better than ECMP everywhere,
and the improvement is much larger at the (remote) spine downlinks, because
ECMP spreads load equally on the local leaf uplinks but cannot react to the
downstream asymmetry — queues there are ~10× larger with ECMP.

Scaled: same 6×4 fabric with 3 links per pair (72 fabric links) at 5 Gbps,
4 hosts per leaf, the same 9 random failures for both schemes — injected
declaratively through the fault plane (``RandomLinkDowns`` at t=0, drawn
from the spec seed's named RNG stream, identical for every scheme).
"""

import numpy as np
from conftest import report

from repro.apps import ExperimentSpec, QueueMonitorSpec
from repro.faults import RandomLinkDowns
from repro.runner import run_sweep, sweep_grid
from repro.topology import scaled_testbed

FABRIC_6X4 = scaled_testbed(
    hosts_per_leaf=4,
    num_leaves=6,
    num_spines=4,
    links_per_pair=3,
    host_gbps=10.0,
    fabric_gbps=5.0,
)

TEMPLATE = ExperimentSpec(
    scheme="ecmp",
    workload="web-search",
    load=0.6,
    seed=77,
    num_flows=400,
    size_scale=0.1,
    config=FABRIC_6X4,
    faults=(RandomLinkDowns(time=0, count=9),),
    queue_monitor=QueueMonitorSpec(tier="fabric", direction="both"),
)


def _classify(queue_series):
    """Split the monitored (surviving) fabric ports into the paper's views."""
    leaf_up = [n for n in queue_series.port_names if ".up" in n]
    spine_down = [n for n in queue_series.port_names if n.startswith("spine")]
    return leaf_up, spine_down


def _run():
    sweep = run_sweep(sweep_grid(TEMPLATE, schemes=["ecmp", "conga"]), cache=None)
    results = {}
    for point in sweep:
        leaf_up, spine_down = _classify(point.queue_series)
        results[point.scheme] = {
            "completed": point.completed,
            "arrivals": point.arrivals,
            "mean_fct": point.summary.mean_normalized,
            "leaf_uplink_avg_q": [
                point.queue_series.mean(name) for name in leaf_up
            ],
            "spine_downlink_avg_q": [
                point.queue_series.mean(name) for name in spine_down
            ],
        }
    return results


def test_figure16_multiple_failures():
    results = _run()
    rows = []
    for scheme, data in results.items():
        rows.append(
            [
                scheme,
                data["mean_fct"],
                float(np.mean(data["leaf_uplink_avg_q"])) / 1e3,
                float(np.mean(data["spine_downlink_avg_q"])) / 1e3,
                float(np.max(data["spine_downlink_avg_q"])) / 1e3,
            ]
        )
    report(
        "Figure 16: 6x4 fabric, 9 failed links, web-search @60% "
        "(time-averaged queues)",
        [
            "scheme",
            "avg FCT (norm)",
            "avg leaf-up queue (KB)",
            "avg spine-down queue (KB)",
            "worst spine-down queue (KB)",
        ],
        rows,
    )
    for data in results.values():
        assert data["completed"] == data["arrivals"]
    # CONGA balances substantially better overall (paper: "significantly
    # better than ECMP"): FCT improves by a large factor ...
    assert results["conga"]["mean_fct"] < 0.75 * results["ecmp"]["mean_fct"]
    # ... and total fabric queueing (leaf uplinks + spine downlinks) drops.
    def total_queue(data):
        return np.mean(data["leaf_uplink_avg_q"] + data["spine_downlink_avg_q"])

    assert total_queue(results["conga"]) < 0.85 * total_queue(results["ecmp"])
    # The leaf-uplink story matches the paper exactly: ECMP "spreads load
    # equally on the leaf uplinks" but cannot adapt, so its uplink queues
    # run much deeper than CONGA's.
    assert (
        np.mean(results["conga"]["leaf_uplink_avg_q"])
        < 0.75 * np.mean(results["ecmp"]["leaf_uplink_avg_q"])
    )
