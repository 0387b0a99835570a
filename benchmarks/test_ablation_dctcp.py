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

``conga-dctcp`` is a built-in scheme that marks at K = 100 KB; the grids
come from ``scenarios/ablation_dctcp_fct.yaml`` and
``scenarios/ablation_dctcp_incast.yaml``.
"""

from pathlib import Path

import pytest
from conftest import report

from repro.apps import incast_throughput_percent
from repro.runner import run_sweep

pytest.importorskip("yaml", reason="scenario files need PyYAML")
from repro.scenarios import load_scenario  # noqa: E402  (after the gate)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FCT = load_scenario(SCENARIOS / "ablation_dctcp_fct.yaml")
INCAST = load_scenario(SCENARIOS / "ablation_dctcp_incast.yaml")
INCAST_LABELS = {"conga": "tcp (1MB buffer)", "conga-dctcp": "dctcp (1MB buffer, K=100KB)"}


def _run():
    fct = {
        point.scheme: {
            "fct": point.summary.mean_normalized,
            "max_fabric_queue": point.fabric_max_queue_bytes,
        }
        for point in run_sweep(FCT.compile(), cache=None)
    }
    incast = {
        INCAST_LABELS[point.scheme]: incast_throughput_percent(point)
        for point in run_sweep(INCAST.compile(), cache=None)
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
