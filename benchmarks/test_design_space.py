"""Design-space comparison (paper §2.2 and Figure 1).

The paper's argument for *distributed* load balancing: datacenter traffic
is too volatile for a centralized scheduler's control loop — Hedera runs
every 5 s and "would need to run every 100 ms to approach the performance
of a distributed solution", which CONGA in turn outperforms.  This bench
runs the full design tree on the link-failure scenario:

* static local (ECMP), the §2.4 local-congestion strawman,
* a Hedera-style centralized elephant scheduler at 1/10/100 ms periods
  (with natural-demand estimation and placement stability),
* distributed + global (CONGA).

Expected shape: the centralized scheduler is no better than ECMP at any
realistic period — the scaled flows live on the controller's timescale, so
pins always arrive late — while CONGA's round-trip-timescale reaction is
far ahead.
"""

from conftest import report

from repro.apps import ExperimentSpec, SchemeSpec, register_scheme
from repro.apps.traffic import tcp_flow_factory
from repro.lb import CentralizedScheduler, CentralizedSelector
from repro.units import milliseconds

TEMPLATE = ExperimentSpec(
    scheme="ecmp",
    workload="data-mining",
    load=0.6,
    num_flows=150,
    size_scale=0.05,
    seed=7,
    clients=range(8, 16),
    failed_links=[(1, 1, 0)],
)

INTERVALS_MS = [1, 10, 100]


def _register_hedera(interval_ms: int) -> str:
    name = f"hedera-{interval_ms}ms"
    register_scheme(
        SchemeSpec(
            name,
            lambda: CentralizedSelector,
            tcp_flow_factory,
            post_setup=lambda sim, fabric, ms=interval_ms: CentralizedScheduler(
                sim, fabric, interval=milliseconds(ms)
            ),
        ),
        replace=True,
    )
    return name


def _run():
    # Dynamically registered schemes only exist in this process, so these
    # points run serially via spec.run() rather than through a worker pool.
    results = {}
    for scheme in ("ecmp", "local", "conga"):
        results[scheme] = (
            TEMPLATE.with_(scheme=scheme).run().summary.mean_normalized
        )
    for interval in INTERVALS_MS:
        name = _register_hedera(interval)
        results[name] = (
            TEMPLATE.with_(scheme=name).run().summary.mean_normalized
        )
    return results


def test_design_space_under_asymmetry():
    results = _run()
    report(
        "Design space (2.2): data-mining @60%, failed link — avg FCT (norm)",
        ["scheme", "avg FCT", "vs conga"],
        [[k, v, v / results["conga"]] for k, v in results.items()],
    )
    conga = results["conga"]
    ecmp = results["ecmp"]
    # CONGA clearly ahead of every alternative.
    for scheme, value in results.items():
        if scheme != "conga":
            assert value > conga * 1.1, f"{scheme} unexpectedly matched CONGA"
    # The centralized scheduler cannot beat ECMP meaningfully at any period:
    # its pins chase flows that live on the controller's own timescale.
    for interval in INTERVALS_MS:
        assert results[f"hedera-{interval}ms"] <= ecmp * 1.1
        assert results[f"hedera-{interval}ms"] >= conga
