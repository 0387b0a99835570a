"""Full-scale validation: the paper's testbed size, via the flow-level model.

The packet-level benchmarks scale the testbed down (fewer hosts, smaller
flows) to run in seconds.  This bench cross-checks that scaling by running
the *actual* evaluation scale — 64 hosts, 2×40 Gbps uplinks per pair, and
unscaled data-mining flow sizes — in the dynamic flow-level simulator
(idealized max-min-fair TCP, placement-only scheme differences):

* symmetric fabric: ECMP ≈ CONGA (ideal fair-sharing absorbs collisions —
  the benign end of the paper's Figure 9 observation);
* Figure 7(b) failure, loaded toward the degraded leaf: CONGA's
  congestion-aware placement beats ECMP, with the gap growing in load —
  the same shape the scaled packet-level Figure 11 bench shows, now at
  true scale.

Flow-level gaps are smaller than packet-level ones because max-min fairness
has no queueing, loss, or retransmission penalty; the *direction* and the
load trend are the validated properties.
"""

import numpy as np
from conftest import report

from repro.fluid import run_flow_level
from repro.topology import TESTBED
from repro.workloads import DATA_MINING


def _mean_norm(**kwargs) -> float:
    done = run_flow_level(TESTBED, DATA_MINING, num_flows=1200, **kwargs)
    return float(np.mean([c.normalized_fct for c in done]))


def _run():
    table = {}
    for load in (0.5, 0.6, 0.7):
        for scheme in ("ecmp", "conga"):
            table[("baseline", scheme, load)] = _mean_norm(
                load=load, scheme=scheme, seed=3
            )
            table[("failure", scheme, load)] = _mean_norm(
                load=load, scheme=scheme, seed=3,
                failed_links=[(1, 1, 0)], clients=list(range(32, 64)),
            )
    return table


def test_full_scale_flow_level_validation():
    table = _run()
    rows = []
    for topo in ("baseline", "failure"):
        for load in (0.5, 0.6, 0.7):
            ecmp = table[(topo, "ecmp", load)]
            conga = table[(topo, "conga", load)]
            rows.append([topo, load, ecmp, conga, ecmp / conga])
    report(
        "Full-scale check (64 hosts, unscaled data-mining, flow-level)",
        ["topology", "load", "ecmp", "conga", "ecmp/conga"],
        rows,
    )
    # Symmetric: schemes comparable under idealized fair sharing.
    for load in (0.5, 0.6, 0.7):
        ecmp = table[("baseline", "ecmp", load)]
        conga = table[("baseline", "conga", load)]
        assert abs(ecmp - conga) / conga < 0.1
    # Failure: CONGA ahead at every load, gap growing toward high load.
    gaps = []
    for load in (0.5, 0.6, 0.7):
        ecmp = table[("failure", "ecmp", load)]
        conga = table[("failure", "conga", load)]
        assert conga < ecmp
        gaps.append(ecmp / conga)
    assert gaps[-1] > gaps[0]
