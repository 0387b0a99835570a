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

from repro.apps import get_scheme
from repro.apps.traffic import CrossRackTraffic
from repro.sim import Simulator
from repro.topology import MultiPodConfig, build_multipod
from repro.transport import TcpParams
from repro.units import seconds
from repro.workloads import WEB_SEARCH


def _run_scheme(scheme: str):
    sim = Simulator(seed=44)
    config = MultiPodConfig(
        num_pods=2,
        leaves_per_pod=2,
        spines_per_pod=2,
        hosts_per_leaf=4,
        num_cores=2,
        links_per_pair=2,
    )
    fabric = build_multipod(sim, config)
    spec = get_scheme(scheme)
    fabric.finalize(spec.make_selector())
    fabric.fail_link(1, 1, 0)  # asymmetry inside pod 0
    traffic = CrossRackTraffic(
        sim,
        fabric,
        WEB_SEARCH,
        0.6,
        flow_factory=spec.make_flow_factory(TcpParams()),
        num_flows=300,
        size_scale=0.1,
        on_all_done=sim.stop,
    )
    traffic.start()
    sim.run(until=seconds(20))
    records = traffic.stats.records
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
        "completed": traffic.stats.completed,
        "arrivals": traffic.stats.arrivals,
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
