"""Figure 11: impact of a link failure (the asymmetric topology, Fig. 7b).

Paper shape: with one of the two Leaf1–Spine1 links down, the bisection
toward Leaf 1 is 75% of nominal and ECMP — which keeps hashing half the
Leaf0→Leaf1 traffic through Spine 1 — oversubscribes the surviving link once
offered load passes ~50%, so its FCT deteriorates drastically.  The adaptive
schemes shift traffic through Spine 0 and degrade gracefully; CONGA is best
(up to ~30% better than MPTCP on enterprise, ~2× on data-mining at 70%
load).  Part (c): the queue at the hotspot port [Spine1→Leaf1] is far
smaller with CONGA (4× smaller 90th percentile than MPTCP in the paper).

The run loads the Leaf0→Leaf1 direction (clients under Leaf 1), which is
the direction that crosses the degraded link.
"""

import numpy as np
from conftest import report

from repro.apps import ExperimentSpec, QueueMonitorSpec
from repro.faults import LinkDown
from repro.runner import run_sweep, sweep_grid

LOADS = [0.3, 0.5, 0.7]
SCHEMES = ["ecmp", "conga-flow", "conga", "mptcp"]

# The surviving Spine1->Leaf1 downlink is the hotspot the paper samples.
HOTSPOT = QueueMonitorSpec(tier="spine", direction="down", spine=1, leaf=1)

# The failure scenario goes through the fault plane: one Leaf1-Spine1 link
# down from t=0 (an initial condition, same event stream as the old
# pre-run fail_link call, but declarative / sweepable / cacheable).
FAULTS = (LinkDown(time=0, leaf=1, spine=1, which=0),)


def _specs():
    specs = []
    for workload, scale, flows in (
        ("enterprise", 0.05, 200),
        ("data-mining", 0.02, 150),
    ):
        template = ExperimentSpec(
            scheme="ecmp",
            workload=workload,
            load=0.5,
            num_flows=flows,
            size_scale=scale,
            seed=31,
            clients=range(8, 16),
            faults=FAULTS,
        )
        specs.extend(sweep_grid(template, schemes=SCHEMES, loads=LOADS))
    queue_template = ExperimentSpec(
        scheme="ecmp",
        workload="data-mining",
        load=0.6,
        num_flows=150,
        size_scale=0.05,
        seed=7,
        clients=range(8, 16),
        faults=FAULTS,
        queue_monitor=HOTSPOT,
    )
    specs.extend(sweep_grid(queue_template, schemes=SCHEMES))
    return specs


def _run():
    sweep = run_sweep(_specs(), cache=None)
    fct = {
        (p.workload, p.scheme, p.load): p.summary.mean_normalized
        for p in sweep
        if p.spec.queue_monitor is None
    }
    queues = {}
    for point in sweep.select(load=0.6):
        if point.spec.queue_monitor is None:
            continue
        hotspot = point.queue_series.port_names[0]
        series = np.array(point.queue_series.series(hotspot))
        queues[point.scheme] = {
            "mean": float(series.mean()),
            "p90": float(np.percentile(series, 90)),
        }
    return fct, queues


def test_figure11_link_failure():
    fct, queues = _run()
    for workload in ("enterprise", "data-mining"):
        report(
            f"Figure 11: {workload} avg FCT with link failure (norm. to optimal)",
            ["load"] + SCHEMES,
            [
                [load] + [fct[(workload, s, load)] for s in SCHEMES]
                for load in LOADS
            ],
        )
    report(
        "Figure 11(c): hotspot [Spine1->Leaf1] queue occupancy, data-mining @60%",
        ["scheme", "mean (KB)", "p90 (KB)"],
        [
            [s, queues[s]["mean"] / 1e3, queues[s]["p90"] / 1e3]
            for s in SCHEMES
        ],
    )
    for workload in ("enterprise", "data-mining"):
        # ECMP's degradation beyond 50% load: the FCT gap vs CONGA widens
        # sharply from 0.5 to 0.7 offered load.
        gap_mid = fct[(workload, "ecmp", 0.5)] / fct[(workload, "conga", 0.5)]
        gap_high = fct[(workload, "ecmp", 0.7)] / fct[(workload, "conga", 0.7)]
        assert gap_high > 1.1
        assert gap_high > gap_mid * 0.9
        # CONGA best or tied at the highest load.
        best = min(fct[(workload, s, 0.7)] for s in SCHEMES)
        assert fct[(workload, "conga", 0.7)] <= best * 1.1
    # Part (c): CONGA controls the hotspot queue better than ECMP and MPTCP.
    assert queues["conga"]["mean"] < 0.5 * queues["ecmp"]["mean"]
    assert queues["conga"]["p90"] <= queues["mptcp"]["p90"]
