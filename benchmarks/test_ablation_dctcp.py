"""Ablation: CONGA with DCTCP (the paper's companion transport, [4]).

The paper's testbed runs standard TCP, but its datacenter context —
shallow buffers, burst tolerance, low latency — is built around DCTCP, and
the fabric supports the ECN marking it needs.  This bench shows the two
compose: with ECN marking enabled and DCTCP at the hosts,

* fabric queues collapse to near the marking threshold K at equal
  throughput (the signature DCTCP result), which also de-noises CONGA's
  DRE signal;
* the Incast scenario that breaks plain TCP at low buffer depth stops
  timing out, because DCTCP's graded backoff keeps drops away.
"""

import numpy as np
from conftest import report

from repro.apps import (
    ExperimentSpec,
    IncastClient,
    SchemeSpec,
    dctcp_flow_factory,
    register_scheme,
    tcp_flow_factory,
)
from repro.lb import CongaSelector
from repro.sim import Simulator
from repro.topology import build_leaf_spine, scaled_testbed
from repro.transport import TcpParams
from repro.units import kilobytes, megabytes, seconds

K = kilobytes(100)


def _register_dctcp_scheme() -> None:
    register_scheme(
        SchemeSpec(
            "conga-dctcp",
            CongaSelector.factory,
            lambda params: dctcp_flow_factory(params),
        ),
        replace=True,
    )


def _fct_comparison():
    _register_dctcp_scheme()
    results = {}
    for scheme, ecn in (("conga", None), ("conga-dctcp", K)):
        # conga-dctcp is registered only in this process: run serially.
        point = ExperimentSpec(  # repro-lint: ignore[S204] -- dynamic scheme exists only in-process; pool workers and the cache cannot resolve it
            scheme=scheme,
            workload="enterprise",
            load=0.6,
            config=scaled_testbed(ecn_threshold_bytes=ecn),
            num_flows=250,
            size_scale=0.05,
            seed=31,
        ).run()
        results[scheme] = {
            "fct": point.summary.mean_normalized,
            "max_fabric_queue": point.fabric_max_queue_bytes,
        }
    return results


def _incast(transport_factory, ecn):
    sim = Simulator(seed=1)
    fabric = build_leaf_spine(
        sim,
        scaled_testbed(
            hosts_per_leaf=16,
            host_queue_bytes=1_000_000,  # shallow edge buffer
            ecn_threshold_bytes=ecn,
        ),
    )
    fabric.finalize(CongaSelector.factory())
    servers = [h for h in sorted(fabric.hosts) if h != 0][:31]
    client = IncastClient(
        sim, fabric, client=0, servers=servers,
        flow_factory=transport_factory,
        request_bytes=megabytes(10), repeats=3,
    )
    client.start()
    sim.run(until=seconds(60))
    if not client.finished:
        return 0.0
    return client.result.throughput_percent(fabric.host(0).nic.rate_bps)


def _run():
    fct = _fct_comparison()
    incast = {
        "tcp (1MB buffer)": _incast(tcp_flow_factory(TcpParams()), None),
        "dctcp (1MB buffer, K=100KB)": _incast(
            dctcp_flow_factory(TcpParams()), K
        ),
    }
    return fct, incast


def test_conga_with_dctcp():
    fct, incast = _run()
    report(
        "Ablation: CONGA + DCTCP, enterprise @60%",
        ["transport", "avg FCT (norm)", "max fabric queue (KB)"],
        [
            [k, v["fct"], v["max_fabric_queue"] / 1e3]
            for k, v in fct.items()
        ],
    )
    report(
        "Ablation: Incast (fan-in 31, shallow 1MB edge buffer)",
        ["transport", "effective throughput %"],
        [[k, v] for k, v in incast.items()],
    )
    # DCTCP slashes fabric queueing without hurting FCT.
    assert (
        fct["conga-dctcp"]["max_fabric_queue"]
        < 0.5 * fct["conga"]["max_fabric_queue"]
    )
    assert fct["conga-dctcp"]["fct"] < fct["conga"]["fct"] * 1.2
    # At shallow buffers, plain TCP incasts into timeouts; DCTCP does not.
    assert incast["dctcp (1MB buffer, K=100KB)"] > incast["tcp (1MB buffer)"]
    assert incast["dctcp (1MB buffer, K=100KB)"] > 80.0
