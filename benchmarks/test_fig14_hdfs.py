"""Figure 14: HDFS TestDFSIO-style write benchmark, with and without failure.

Paper shape (40 trials of a 1 TB HDFS write with 3-way replication):

* baseline topology: ECMP and CONGA have nearly identical job completion
  times; MPTCP shows high-outlier trials;
* with the link failure, ECMP's completion times are nearly 2× the
  no-failure case, while CONGA is essentially unaffected; MPTCP is volatile.

Scaled model: every host writes replicated blocks (writer → off-rack
replica → same-rack replica, concurrently), which is the network footprint
of TestDFSIO.  The job here is network-bound, so no background traffic is
added (the paper needed it only because its testbed job was disk-bound).
The grid comes from ``scenarios/fig14_hdfs.yaml``.
"""

from pathlib import Path

import numpy as np
import pytest
from conftest import report

from repro.runner import run_sweep
from repro.units import to_milliseconds

pytest.importorskip("yaml", reason="scenario files need PyYAML")
from repro.scenarios import load_scenario  # noqa: E402  (after the gate)

SCENARIO = load_scenario(
    Path(__file__).resolve().parent.parent / "scenarios" / "fig14_hdfs.yaml"
)
SCHEMES = list(SCENARIO.schemes)


def _run():
    table = {}
    for point in run_sweep(SCENARIO.compile(), cache=None):
        assert point.unfinished == 0, f"{point.scheme} HDFS job did not finish"
        # Every replica transfer starts at time 0: the job ends with the last.
        completion = max(r.start_time + r.fct for r in point.records)
        key = (point.scheme, bool(point.spec.failed_links))
        table.setdefault(key, []).append(to_milliseconds(completion))
    return table


def test_figure14_hdfs_benchmark():
    table = _run()
    rows = []
    for fail in (False, True):
        for scheme in SCHEMES:
            values = np.array(table[(scheme, fail)])
            rows.append(
                [
                    "failure" if fail else "baseline",
                    scheme,
                    float(values.mean()),
                    float(values.min()),
                    float(values.max()),
                ]
            )
    report(
        "Figure 14: HDFS write job completion time (ms), 3 trials",
        ["topology", "scheme", "mean", "min", "max"],
        rows,
    )
    ecmp_base = np.mean(table[("ecmp", False)])
    ecmp_fail = np.mean(table[("ecmp", True)])
    conga_base = np.mean(table[("conga", False)])
    conga_fail = np.mean(table[("conga", True)])
    # Baseline: ECMP and CONGA comparable (within 25%).
    assert abs(ecmp_base - conga_base) / conga_base < 0.25
    # Failure slows ECMP noticeably (the paper's disk-paced 1 TB job sees
    # ~2x; this network-bound scaled job sees a smaller but clear hit) ...
    assert ecmp_fail > 1.1 * ecmp_base
    # ... while CONGA barely notices (paper: "almost no impact").
    assert conga_fail < 1.1 * conga_base
    # And CONGA beats ECMP under failure.
    assert conga_fail < 0.92 * ecmp_fail
