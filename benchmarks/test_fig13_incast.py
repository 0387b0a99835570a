"""Figure 13: Incast — MPTCP's multiple subflows hurt at the edge.

Paper setup: a client requests a 10 MB file striped across N servers that
respond simultaneously; effective throughput at the client is measured for
fan-in 1..63, for minRTO ∈ {200 ms (Linux default), 1 ms (Vasudevan et
al.)} and MTU ∈ {1500 B, 9000 B}.  Paper shape:

* MPTCP degrades badly at high fan-in — under 30% with 1500 B packets and
  just ~5% with jumbo frames at minRTO = 200 ms;
* CONGA+TCP achieves 2–8× MPTCP's throughput in the same settings;
* reducing minRTO to 1 ms mitigates MPTCP's collapse only partially.

This experiment does not stress fabric load balancing (the bottleneck is
the client's access link); the transport is the variable.  In our model the
1500 B / 200 ms configuration survives at the simulated buffer depth (the
collapse threshold shifts with MTU); the jumbo-frame collapse and the
minRTO interplay reproduce clearly.  The grid comes from
``scenarios/fig13_incast.yaml``.
"""

from pathlib import Path

import pytest
from conftest import report

from repro.apps import incast_throughput_percent
from repro.runner import run_sweep
from repro.units import milliseconds

pytest.importorskip("yaml", reason="scenario files need PyYAML")
from repro.scenarios import load_scenario  # noqa: E402  (after the gate)

SCENARIO = load_scenario(
    Path(__file__).resolve().parent.parent / "scenarios" / "fig13_incast.yaml"
)
FAN_INS = [incast.fan_in for incast in dict(SCENARIO.axes)["traffic"]]


def _run():
    table = {}
    for point in run_sweep(SCENARIO.compile(), cache=None):
        tcp = point.spec.tcp_params
        key = (tcp.mss + 40, tcp.min_rto // milliseconds(1), point.scheme)
        table.setdefault(key, []).append(incast_throughput_percent(point))
    return table


def test_figure13_incast():
    table = _run()
    for mtu in (1500, 9000):
        report(
            f"Figure 13: Incast effective throughput %, MTU={mtu}",
            ["config"] + [f"N={n}" for n in FAN_INS],
            [
                [f"CONGA+TCP ({rto}ms)"] + table[(mtu, rto, "conga")]
                for rto in (200, 1)
            ]
            + [
                [f"MPTCP ({rto}ms)"] + table[(mtu, rto, "mptcp")]
                for rto in (200, 1)
            ],
        )
    # Jumbo frames + default minRTO: MPTCP collapses (paper: ~5%), while
    # CONGA+TCP stays high — far beyond the paper's 2-8x claim.
    tcp_9000 = table[(9000, 200, "conga")]
    mptcp_9000 = table[(9000, 200, "mptcp")]
    assert min(tcp_9000[-2:]) > 80.0
    assert max(mptcp_9000[-2:]) < 30.0
    assert min(tcp_9000[-2:]) > 2.0 * max(mptcp_9000[-2:], default=1.0)
    # 1 ms minRTO mitigates MPTCP's jumbo collapse, but does not fully fix
    # it (CONGA+TCP remains ahead).
    mptcp_9000_fast = table[(9000, 1, "mptcp")]
    assert mptcp_9000_fast[-1] > mptcp_9000[-1]
    assert table[(9000, 1, "conga")][-1] > mptcp_9000_fast[-1]
    # CONGA+TCP never collapses at any tested configuration.
    for rto in (200, 1):
        for mtu in (1500, 9000):
            assert min(table[(mtu, rto, "conga")]) > 50.0
