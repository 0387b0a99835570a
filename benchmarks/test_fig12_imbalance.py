"""Figure 12: load balancing efficiency — leaf uplink throughput imbalance.

Paper method: synchronized samples of the four Leaf-0 uplink throughputs at
60% load; the metric is (MAX − MIN)/AVG per window.  Paper shape: CONGA and
MPTCP are dramatically better balanced than ECMP; CONGA beats MPTCP on the
enterprise workload.

Methodology notes for the scaled runs: the senders are *bursty* (application
-paced bursts whose gaps straddle the flowlet timeout, per the §2.6.1
measurements) — continuously-backlogged senders have no flowlet gaps, which
would reduce CONGA to per-flow decisions; windows are 1 ms instead of 10 ms
and only windows during the loaded phase count (the drain tail is idle).
"""

import numpy as np
from conftest import report

from repro.analysis import ThroughputImbalanceMonitor
from repro.apps import get_scheme
from repro.apps.traffic import (
    CrossRackTraffic,
    bursty_tcp_flow_factory,
    mptcp_flow_factory,
)
from repro.sim import Simulator
from repro.topology import build_leaf_spine, scaled_testbed
from repro.transport import TcpParams
from repro.units import milliseconds, seconds
from repro.workloads import ENTERPRISE

SCHEMES = ["ecmp", "conga-flow", "conga", "mptcp"]


def _run_scheme(scheme: str, seed: int) -> np.ndarray:
    sim = Simulator(seed=seed)
    fabric = build_leaf_spine(sim, scaled_testbed())
    spec = get_scheme(scheme)
    fabric.finalize(spec.make_selector())
    if scheme == "mptcp":
        factory = mptcp_flow_factory(TcpParams())
    else:
        factory = bursty_tcp_flow_factory(TcpParams())
    monitor = ThroughputImbalanceMonitor(
        sim, list(fabric.leaves[0].uplinks), milliseconds(1)
    )
    monitor.start()
    traffic = CrossRackTraffic(
        sim,
        fabric,
        ENTERPRISE,
        0.8,
        flow_factory=factory,
        num_flows=1000,
        size_scale=0.1,
        on_all_done=sim.stop,
    )
    traffic.start()
    sim.run(until=seconds(30))
    monitor.stop()
    last_arrival = max(r.start_time for r in traffic.stats.records)
    return np.array(monitor.snapshot().samples_before(last_arrival)) * 100.0


def _run():
    stats = {}
    for scheme in SCHEMES:
        samples = _run_scheme(scheme, 31)
        stats[scheme] = {
            "mean": float(samples.mean()),
            "p50": float(np.percentile(samples, 50)),
            "p90": float(np.percentile(samples, 90)),
            "windows": len(samples),
        }
    return stats


def test_figure12_throughput_imbalance():
    stats = _run()
    report(
        "Figure 12: enterprise uplink throughput imbalance @ high load (%)",
        ["scheme", "mean", "median", "p90", "windows"],
        [
            [s, stats[s]["mean"], stats[s]["p50"], stats[s]["p90"],
             stats[s]["windows"]]
            for s in SCHEMES
        ],
    )
    # The figure's headline: congestion-aware schemes balance much better
    # than static hashing.
    assert stats["conga"]["mean"] < stats["ecmp"]["mean"]
    assert stats["conga-flow"]["mean"] < stats["ecmp"]["mean"]
    assert stats["mptcp"]["mean"] < stats["ecmp"]["mean"]
