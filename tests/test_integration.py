"""End-to-end integration tests reproducing the paper's qualitative claims.

These are scaled-down packet-level versions of the headline results; the
full parameter sweeps live in ``benchmarks/``.
"""

import pytest

from repro.apps import ExperimentSpec, ImbalanceMonitorSpec, QueueMonitorSpec
from repro.lb import CongaSelector, EcmpSelector, LocalAwareSelector
from repro.sim import Simulator, run_until_idle
from repro.topology import build_leaf_spine, scaled_testbed
from repro.transport import TcpFlow
from repro.units import gbps, megabytes, seconds


class TestAsymmetryPacketLevel:
    """Packet-level confirmation of the Figure 2 fluid analysis."""

    def _run_throughput(self, selector_factory, seed=3):
        """Aggregate goodput of many long flows over an asymmetric fabric."""
        sim = Simulator(seed=seed)
        # 2 leaves, 2 spines, 1 link per pair; fail nothing but make the
        # S1<->L1 pair half-rate by failing one of two parallel links.
        config = scaled_testbed(hosts_per_leaf=4, links_per_pair=2)
        fabric = build_leaf_spine(sim, config)
        fabric.finalize(selector_factory)
        fabric.fail_link(1, 1, 0)  # Figure 7(b) asymmetry
        flows = []
        for i in range(4):
            flow = TcpFlow(
                sim, fabric.host(i), fabric.host(4 + i), megabytes(4)
            )
            flow.start()
            flows.append(flow)
        sim.run(until=seconds(1))
        done = [f for f in flows if f.finished]
        assert len(done) == len(flows)
        span = max(f.sender.completed_at for f in done)
        return sum(f.size for f in done) * 8 / span  # bits per tick ~ Gbps

    def test_conga_beats_ecmp_under_asymmetry(self):
        ecmp = self._run_throughput(EcmpSelector.factory())
        conga = self._run_throughput(CongaSelector.factory())
        assert conga > ecmp

    def test_spray_completes_under_asymmetry(self):
        # Per-packet spraying still delivers (reordering is absorbed by the
        # receiver's cumulative ACKs, at some FCT cost).
        spray = self._run_throughput(
            __import__("repro.lb", fromlist=["PacketSpraySelector"]).PacketSpraySelector.factory()
        )
        assert spray > 0


class TestLinkFailureFct:
    """Figure 11's shape: with a failed link, CONGA degrades gracefully."""

    @pytest.fixture(scope="class")
    def results(self):
        # Load the leaf0 -> leaf1 direction (clients under leaf 1), which is
        # the direction crossing the degraded [Spine1 -> Leaf1] link.
        spec = ExperimentSpec(
            "ecmp",
            "data-mining",
            0.6,
            num_flows=120,
            size_scale=0.05,
            seed=7,
            clients=range(8, 16),
            failed_links=[(1, 1, 0)],
            queue_monitor=QueueMonitorSpec(tier="spine", spine=1, leaf=1),
        )
        return {name: spec.with_(scheme=name).run_live() for name in ("ecmp", "conga")}

    def test_all_flows_complete(self, results):
        for result in results.values():
            assert result.unfinished == 0

    def test_conga_better_overall_fct(self, results):
        assert (
            results["conga"].summary.mean_normalized
            < results["ecmp"].summary.mean_normalized
        )

    def test_conga_controls_hotspot_queue(self, results):
        """Figure 11(c): the queue at [Spine1->Leaf1] is far smaller with
        CONGA because it steers traffic away before congestion builds."""
        import numpy as np

        means = {}
        for scheme, result in results.items():
            spine1 = result.fabric.spines[1]
            port = spine1.ports[spine1.ports_to_leaf(1)[0]]
            means[scheme] = float(np.mean(result.queue_series.series(port)))
        assert means["conga"] < 0.5 * means["ecmp"]


class TestBaselineFct:
    """Figure 9/10 shape at one load point."""

    def test_conga_at_least_as_good_as_ecmp_datamining(self):
        spec = ExperimentSpec("ecmp", "data-mining", 0.6, num_flows=150, size_scale=0.02, seed=11)
        results = {name: spec.with_(scheme=name).run_live() for name in ("ecmp", "conga")}
        assert (
            results["conga"].summary.mean_normalized
            <= results["ecmp"].summary.mean_normalized * 1.05
        )

    def test_mptcp_hurts_small_flows(self):
        """5.2.1: MPTCP degrades small-flow FCT relative to ECMP."""
        spec = ExperimentSpec("ecmp", "enterprise", 0.5, num_flows=150, size_scale=0.02, seed=13)
        results = {name: spec.with_(scheme=name).run_live() for name in ("ecmp", "mptcp")}
        assert (
            results["mptcp"].summary.mean_fct_small
            > results["ecmp"].summary.mean_fct_small
        )


class TestImbalanceShape:
    """Figure 12's shape: CONGA balances uplinks far better than ECMP."""

    def test_conga_lower_imbalance_than_ecmp(self):
        from repro.units import microseconds

        results = {}
        for scheme in ("ecmp", "conga"):
            result = ExperimentSpec(
                scheme,
                "enterprise",
                0.6,
                num_flows=200,
                size_scale=0.02,
                seed=17,
                imbalance_monitor=ImbalanceMonitorSpec(leaf=0, interval=microseconds(200)),
            ).run_live()
            results[scheme] = result.imbalance_series.mean_percent()
        assert results["conga"] < results["ecmp"]


class TestIncrementalDeployment:
    """7: CONGA can run on a subset of leaves and still work."""

    def test_mixed_selectors_coexist(self):
        sim = Simulator(seed=19)
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
        # Leaf 0 runs CONGA, leaf 1 runs ECMP.
        factories = [CongaSelector.factory(), EcmpSelector.factory()]
        for leaf, factory in zip(fabric.leaves, factories):
            leaf.finalize(factory)
        flows = [
            TcpFlow(sim, fabric.host(0), fabric.host(2), megabytes(1)),
            TcpFlow(sim, fabric.host(3), fabric.host(1), megabytes(1)),
        ]
        for flow in flows:
            flow.start()
        run_until_idle(sim)
        assert all(flow.finished for flow in flows)


class TestFeedbackDynamics:
    def test_metrics_age_out_when_traffic_stops(self):
        result = ExperimentSpec(
            "conga", "web-search", 0.5, num_flows=50, size_scale=0.02, seed=23
        ).run_live()
        leaf0 = result.fabric.leaves[0]
        sim = result.sim
        # Immediately after the run some remote metric is typically set;
        # after 25 ms of silence everything must have aged to zero.
        sim.run(until=sim.now + seconds(1))
        metrics = leaf0.to_leaf_table.metrics_toward(1)
        assert all(m == 0 for m in metrics)

    def test_conga_feedback_flows_in_both_directions(self):
        result = ExperimentSpec(
            "conga", "web-search", 0.5, num_flows=50, size_scale=0.02, seed=29
        ).run_live()
        for leaf in result.fabric.leaves:
            assert leaf.tep.feedback_received > 0
            assert leaf.tep.feedback_sent > 0
