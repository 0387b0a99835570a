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
The grid comes from ``scenarios/fig12_imbalance.yaml``.
"""

from pathlib import Path

import numpy as np
import pytest
from conftest import report

from repro.runner import run_sweep

pytest.importorskip("yaml", reason="scenario files need PyYAML")
from repro.scenarios import load_scenario  # noqa: E402  (after the gate)

SCENARIO = load_scenario(
    Path(__file__).resolve().parent.parent / "scenarios" / "fig12_imbalance.yaml"
)
SCHEMES = list(SCENARIO.schemes)


def _run():
    stats = {}
    for point in run_sweep(SCENARIO.compile(), cache=None):
        last_arrival = max(r.start_time for r in point.records)
        samples = np.array(point.imbalance_series.samples_before(last_arrival)) * 100.0
        stats[point.scheme] = {
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
