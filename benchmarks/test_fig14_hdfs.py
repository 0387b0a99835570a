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
"""

import numpy as np
from conftest import report

from repro.apps import HdfsWriteJob, mptcp_flow_factory, tcp_flow_factory
from repro.apps import get_scheme
from repro.sim import Simulator
from repro.topology import build_leaf_spine, scaled_testbed
from repro.transport import TcpParams
from repro.units import megabytes, seconds, to_milliseconds

TRIALS = 3
SCHEMES = ["ecmp", "conga", "mptcp"]


def _one(scheme: str, fail: bool, seed: int) -> float:
    sim = Simulator(seed=seed)
    fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=8))
    spec = get_scheme(scheme)
    fabric.finalize(spec.make_selector())
    if fail:
        fabric.fail_link(1, 1, 0)
    job = HdfsWriteJob(
        sim,
        fabric,
        flow_factory=spec.make_flow_factory(TcpParams()),
        block_bytes=megabytes(2),
        blocks_per_writer=1,
    )
    job.start()
    sim.run(until=seconds(30))
    assert job.finished, f"{scheme} HDFS job did not finish"
    return to_milliseconds(job.result.completion_time)


def _run():
    table = {}
    for fail in (False, True):
        for scheme in SCHEMES:
            table[(scheme, fail)] = [
                _one(scheme, fail, seed) for seed in range(1, TRIALS + 1)
            ]
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
