"""§7 extension: CONGA in a multi-pod (3-tier) fabric.

The paper leaves larger topologies to future work but argues CONGA is
"beneficial even in these cases since it balances the traffic within each
pod optimally, which also reduces congestion for inter-pod traffic" and
"even for inter-pod traffic, CONGA makes better decisions than ECMP at the
first hop".  This bench builds a 2-pod × (2 leaves × 2 spines) fabric with
a core tier, degrades one leaf-spine pair inside pod 0, and drives a
web-search workload whose flows are a mix of intra- and inter-pod traffic.
"""

import numpy as np
from conftest import report

from repro.apps import ExperimentSpec
from repro.topology import MultiPodConfig


def _run_scheme(scheme: str):
    config = MultiPodConfig(
        num_pods=2,
        leaves_per_pod=2,
        spines_per_pod=2,
        hosts_per_leaf=4,
        num_cores=2,
        links_per_pair=2,
    )
    live = ExperimentSpec(
        scheme, "web-search", 0.6, seed=44, num_flows=300, size_scale=0.1,
        config=config,
        failed_links=((1, 1, 0),),  # asymmetry inside pod 0
    ).run_live()
    fabric = live.fabric
    records = live.records
    intra = [
        r.normalized_fct
        for r in records
        if fabric.pod_of_leaf(fabric.leaf_of(r.src))
        == fabric.pod_of_leaf(fabric.leaf_of(r.dst))
    ]
    inter = [
        r.normalized_fct
        for r in records
        if fabric.pod_of_leaf(fabric.leaf_of(r.src))
        != fabric.pod_of_leaf(fabric.leaf_of(r.dst))
    ]
    return {
        "completed": live.completed,
        "arrivals": live.arrivals,
        "overall": float(np.mean([r.normalized_fct for r in records])),
        "intra_pod": float(np.mean(intra)) if intra else float("nan"),
        "inter_pod": float(np.mean(inter)) if inter else float("nan"),
        "core_bytes": sum(
            p.tx_bytes for core in fabric.cores for p in core.ports
        ),
    }


def _run():
    return {scheme: _run_scheme(scheme) for scheme in ("ecmp", "conga")}


def test_multipod_extension():
    results = _run()
    report(
        "7 extension: 2-pod fabric, intra-pod failure, web-search @60%",
        ["scheme", "overall FCT", "intra-pod FCT", "inter-pod FCT"],
        [
            [s, d["overall"], d["intra_pod"], d["inter_pod"]]
            for s, d in results.items()
        ],
    )
    for data in results.values():
        assert data["completed"] == data["arrivals"]
        assert data["core_bytes"] > 0  # inter-pod traffic existed
    # CONGA no worse overall and clearly better within the asymmetric pod.
    assert results["conga"]["overall"] <= results["ecmp"]["overall"] * 1.05
    assert results["conga"]["intra_pod"] < results["ecmp"]["intra_pod"]
