#!/usr/bin/env python3
"""Incast: why putting load balancing in the transport backfires (§5.3).

Recreates the paper's Figure 13 micro-benchmark at a few fan-in levels: a
client requests a 10 MB file striped across N servers that all answer at
once.  CONGA+TCP keeps the client's access link busy; MPTCP's 8 subflows
per response multiply the contending windows at the edge and collapse under
jumbo frames with the default 200 ms minRTO.

Run:  python examples/incast_comparison.py
"""

from repro.apps import ExperimentSpec, IncastTraffic, incast_throughput_percent
from repro.topology import scaled_testbed
from repro.transport import TcpParams
from repro.units import megabytes, milliseconds, seconds

FAN_INS = [1, 7, 15, 31]


def run_incast(transport: str, fan_in: int, mtu: int) -> float:
    """Effective client throughput (percent of line rate) for one config."""
    spec = ExperimentSpec(
        # CONGA+TCP, or MPTCP over ECMP; incast reads no workload or load.
        "conga" if transport == "tcp" else "mptcp", "enterprise", 0.5,
        seed=1,
        config=scaled_testbed(hosts_per_leaf=16, host_queue_bytes=8_000_000),
        tcp_params=TcpParams(
            min_rto=milliseconds(200), initial_rto=milliseconds(200), mss=mtu - 40
        ),
        traffic=IncastTraffic(fan_in=fan_in, request_bytes=megabytes(10), requests=3),
        deadline=seconds(60),
    )
    return incast_throughput_percent(spec.run())


def main() -> None:
    for mtu in (1500, 9000):
        print(f"\nIncast effective throughput, MTU {mtu}, minRTO 200 ms:")
        header = "  ".join(f"N={n:<3d}" for n in FAN_INS)
        print(f"  {'transport':12s} {header}")
        for transport, label in (("tcp", "CONGA+TCP"), ("mptcp", "MPTCP")):
            values = [run_incast(transport, n, mtu) for n in FAN_INS]
            cells = "  ".join(f"{v:4.0f}%" for v in values)
            print(f"  {label:12s} {cells}")


if __name__ == "__main__":
    main()
