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
minRTO interplay reproduce clearly.
"""

from pathlib import Path

import pytest
from conftest import report

from repro.apps import IncastClient, mptcp_flow_factory, tcp_flow_factory
from repro.lb import CongaSelector, EcmpSelector
from repro.sim import Simulator
from repro.topology import build_leaf_spine
from repro.transport import TcpParams
from repro.units import megabytes, milliseconds, seconds

pytest.importorskip("yaml", reason="scenario files need PyYAML")
from repro.scenarios import load_scenario  # noqa: E402  (after the gate)

SCENARIO = load_scenario(
    Path(__file__).resolve().parent.parent / "scenarios" / "fig13_incast.yaml"
)
PARAMS = SCENARIO.params
FAN_INS = PARAMS["fan_ins"]


def _one(transport: str, fan_in: int, min_rto_ms: int, mtu: int) -> float:
    sim = Simulator(seed=SCENARIO.template.seed)
    fabric = build_leaf_spine(sim, SCENARIO.template.config)
    if transport == "tcp":
        fabric.finalize(CongaSelector.factory())
    else:
        fabric.finalize(EcmpSelector.factory())
    params = TcpParams(
        min_rto=milliseconds(min_rto_ms),
        initial_rto=milliseconds(max(min_rto_ms, 1)),
        mss=mtu - 40,
    )
    factory = (
        tcp_flow_factory(params)
        if transport == "tcp"
        else mptcp_flow_factory(params)
    )
    servers = [h for h in sorted(fabric.hosts) if h != 0][:fan_in]
    client = IncastClient(
        sim,
        fabric,
        client=0,
        servers=servers,
        flow_factory=factory,
        request_bytes=megabytes(PARAMS["request_mb"]),
        repeats=PARAMS["repeats"],
    )
    client.start()
    sim.run(until=seconds(PARAMS["deadline_s"]))
    if not client.finished:
        return 0.0
    return client.result.throughput_percent(fabric.host(0).nic.rate_bps)


def _run():
    table = {}
    for mtu in PARAMS["mtus"]:
        for min_rto in PARAMS["min_rtos_ms"]:
            for transport in PARAMS["transports"]:
                table[(mtu, min_rto, transport)] = [
                    _one(transport, fan_in, min_rto, mtu) for fan_in in FAN_INS
                ]
    return table


def test_figure13_incast():
    table = _run()
    for mtu in PARAMS["mtus"]:
        report(
            f"Figure 13: Incast effective throughput %, MTU={mtu}",
            ["config"] + [f"N={n}" for n in FAN_INS],
            [
                [f"CONGA+TCP ({rto}ms)"] + table[(mtu, rto, "tcp")]
                for rto in (200, 1)
            ]
            + [
                [f"MPTCP ({rto}ms)"] + table[(mtu, rto, "mptcp")]
                for rto in (200, 1)
            ],
        )
    # Jumbo frames + default minRTO: MPTCP collapses (paper: ~5%), while
    # CONGA+TCP stays high — far beyond the paper's 2-8x claim.
    tcp_9000 = table[(9000, 200, "tcp")]
    mptcp_9000 = table[(9000, 200, "mptcp")]
    assert min(tcp_9000[-2:]) > 80.0
    assert max(mptcp_9000[-2:]) < 30.0
    assert min(tcp_9000[-2:]) > 2.0 * max(mptcp_9000[-2:], default=1.0)
    # 1 ms minRTO mitigates MPTCP's jumbo collapse, but does not fully fix
    # it (CONGA+TCP remains ahead).
    mptcp_9000_fast = table[(9000, 1, "mptcp")]
    assert mptcp_9000_fast[-1] > mptcp_9000[-1]
    assert table[(9000, 1, "tcp")][-1] > mptcp_9000_fast[-1]
    # CONGA+TCP never collapses at any tested configuration.
    for rto in (200, 1):
        for mtu in (1500, 9000):
            assert min(table[(mtu, rto, "tcp")]) > 50.0
