"""Tests for the dynamic flow-level simulator."""

import hashlib
import math

import numpy as np
import pytest

from repro.fluid import (
    ActiveFlow,
    FlowLevelFabric,
    FlowLevelSimulation,
    max_min_rates,
    run_flow_level,
)
from repro.topology import TESTBED, scaled_testbed
from repro.workloads import (
    DATA_MINING,
    ENTERPRISE,
    WEB_SEARCH,
    WORKLOADS,
    FlowSizeDistribution,
)


class TestFlowLevelFabric:
    def test_capacity_inventory(self):
        fabric = FlowLevelFabric(scaled_testbed(hosts_per_leaf=4))
        # 8 hosts x 2 access directions + 2 leaves x 4 uplinks + 2 spines x
        # 2 leaves aggregated downlinks.
        assert len(fabric.capacity) == 16 + 8 + 4

    def test_fail_link_removes_capacity(self):
        fabric = FlowLevelFabric(scaled_testbed(hosts_per_leaf=4))
        before = fabric.capacity[("down", 1, 1)]
        fabric.fail_link(1, 1, 0)
        assert ("up", 1, 2) not in fabric.capacity
        assert fabric.capacity[("down", 1, 1)] == before / 2

    def test_fail_unknown_link_raises(self):
        fabric = FlowLevelFabric(scaled_testbed(hosts_per_leaf=4))
        fabric.fail_link(1, 1, 0)
        with pytest.raises(ValueError):
            fabric.fail_link(1, 1, 0)

    def test_candidate_uplinks_respect_failures(self):
        fabric = FlowLevelFabric(scaled_testbed(hosts_per_leaf=4))
        assert fabric.candidate_uplinks(0, 1) == [0, 1, 2, 3]
        fabric.fail_link(0, 1, 0)
        assert fabric.candidate_uplinks(0, 1) == [0, 1, 3]

    def test_path_links_cross_rack(self):
        fabric = FlowLevelFabric(scaled_testbed(hosts_per_leaf=4))
        links = fabric.path_links(0, 4, uplink=2)
        assert ("up", 0, 2) in links
        assert ("down", 1, 1) in links  # uplink 2 -> spine 1

    def test_intra_rack_path_skips_fabric(self):
        fabric = FlowLevelFabric(scaled_testbed(hosts_per_leaf=4))
        links = fabric.path_links(0, 1, uplink=0)
        assert all(link[0].startswith("acc") for link in links)


class TestMaxMinRates:
    def _flow(self, links, flow_id=1):
        return ActiveFlow(
            flow_id=flow_id, src=0, dst=1, size=1, remaining=1.0,
            links=tuple(links), started_at=0.0,
        )

    def test_single_flow_gets_bottleneck(self):
        flows = [self._flow([("a",), ("b",)])]
        max_min_rates(flows, {("a",): 10.0, ("b",): 4.0})
        assert flows[0].rate == pytest.approx(4.0)

    def test_equal_sharing(self):
        flows = [self._flow([("a",)], i) for i in range(4)]
        max_min_rates(flows, {("a",): 8.0})
        assert all(f.rate == pytest.approx(2.0) for f in flows)

    def test_classic_max_min_example(self):
        # Two links: A (cap 10) shared by f1,f2; B (cap 4) used by f2 only.
        f1 = self._flow([("A",)], 1)
        f2 = self._flow([("A",), ("B",)], 2)
        max_min_rates([f1, f2], {("A",): 10.0, ("B",): 4.0})
        assert f2.rate == pytest.approx(4.0)
        assert f1.rate == pytest.approx(6.0)

    def test_no_link_exceeds_capacity(self):
        rng = np.random.default_rng(0)
        links = [(chr(97 + i),) for i in range(5)]
        capacity = {link: float(rng.uniform(1, 10)) for link in links}
        flows = []
        for i in range(20):
            chosen = rng.choice(5, size=2, replace=False)
            flows.append(self._flow([links[c] for c in chosen], i))
        max_min_rates(flows, capacity)
        for link in links:
            load = sum(f.rate for f in flows if link in f.links)
            assert load <= capacity[link] * (1 + 1e-6)


class TestSimulation:
    def test_all_flows_complete(self):
        done = run_flow_level(
            scaled_testbed(hosts_per_leaf=4), WEB_SEARCH, 0.5,
            scheme="ecmp", num_flows=200, seed=1,
        )
        assert len(done) == 200
        assert all(c.fct > 0 for c in done)
        assert all(c.normalized_fct >= 1.0 - 1e-9 for c in done)

    def test_deterministic(self):
        def once():
            return [
                c.fct
                for c in run_flow_level(
                    scaled_testbed(hosts_per_leaf=4), WEB_SEARCH, 0.5,
                    scheme="conga", num_flows=100, seed=9,
                )
            ]

        assert once() == once()

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            FlowLevelSimulation(TESTBED, WEB_SEARCH, 0.5, scheme="bogus")

    def test_full_scale_testbed_runs_fast(self):
        """The point of the abstraction: the paper's 64-host testbed with
        unscaled data-mining flows completes in seconds."""
        done = run_flow_level(
            TESTBED, DATA_MINING, 0.6, scheme="conga", num_flows=500, seed=2
        )
        assert len(done) == 500

    def test_conga_better_under_failure_full_scale(self):
        """Flow-level confirmation of Figure 11 at the true testbed size."""
        results = {}
        for scheme in ("ecmp", "conga"):
            done = run_flow_level(
                TESTBED, DATA_MINING, 0.7,
                scheme=scheme, num_flows=800, seed=3,
                failed_links=[(1, 1, 0)], clients=list(range(32, 64)),
            )
            results[scheme] = float(
                np.mean([c.normalized_fct for c in done])
            )
        assert results["conga"] < results["ecmp"]

    def test_schemes_tie_on_symmetric_fabric(self):
        """With idealized fair sharing and no failures, ECMP's collisions
        cost little — the flow-level analogue of the paper's enterprise
        baseline result."""
        results = {}
        for scheme in ("ecmp", "conga"):
            done = run_flow_level(
                TESTBED, WEB_SEARCH, 0.5, scheme=scheme,
                num_flows=500, seed=4,
            )
            results[scheme] = float(np.mean([c.normalized_fct for c in done]))
        assert results["conga"] == pytest.approx(results["ecmp"], rel=0.1)


class TestNumFlows:
    @pytest.mark.parametrize("bad", [2.5, 3.0, "200", None])
    def test_refuses_a_non_integer_count(self, bad):
        with pytest.raises(TypeError, match="num_flows"):
            FlowLevelSimulation(TESTBED, WEB_SEARCH, 0.5, num_flows=bad)

    def test_refuses_a_negative_count(self):
        with pytest.raises(ValueError, match="num_flows"):
            FlowLevelSimulation(TESTBED, WEB_SEARCH, 0.5, num_flows=-1)

    def test_zero_flows_is_an_empty_run(self):
        assert run_flow_level(TESTBED, WEB_SEARCH, 0.5, num_flows=0) == []


def _records_digest(done) -> str:
    h = hashlib.sha256()
    for c in done:
        h.update(repr((
            c.flow_id, c.src, c.dst, c.size, c.fct.hex(), c.ideal_fct.hex()
        )).encode())
    return h.hexdigest()


#: ``run_flow_level(scaled_testbed(), ENTERPRISE, 0.6, num_flows=150,
#: seed=7, ...)``, recorded when the simulator drew from
#: ``numpy.random.default_rng``.
PARENT_DIGESTS = {
    ("ecmp", False): "0f65009dcdb4835b43399f0e87a2de70ae483466d2f230402f902806f5c1a2fc",
    ("ecmp", True): "429a5144c6e13bb97d978722bb18321bb3b3af76926947a5e671e3fc52c05fe2",
    ("conga", False): "ccd389065f7673d4396d4e786c8b419985bc6eaf175b361cbf55efdc0b268681",
    ("conga", True): "14b69e3e3b9759606f969c1c22d1aeb7257f931e0ce4c8d529a1779762646278",
}


class TestNumpyParity:
    """The simulator draws from ``PCG64Stream`` what numpy's generator drew.

    Arrivals and sizes against numpy's own vector calls, the size rounding
    against ``np.interp``, a whole run against the same run on a numpy
    ``Generator``, and the records against digests numpy's stream wrote.
    """

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", [0, 1, 3, 42, 2024])
    def test_arrivals_and_sizes_are_numpy_s(self, name, seed):
        workload = WORKLOADS[name]
        sim = FlowLevelSimulation(
            scaled_testbed(), workload, 0.6, num_flows=300, seed=seed
        )
        arrivals, sizes = sim.draw_arrivals_and_sizes()
        rng = np.random.default_rng(seed)
        expected_arrivals = np.cumsum(
            rng.exponential(1.0 / sim.arrival_rate, size=300)
        )
        expected_sizes = workload.sample_many(rng, 300)
        assert arrivals == expected_arrivals.tolist()
        assert sizes == expected_sizes.tolist()
        assert all(type(size) is int for size in sizes)

    @pytest.mark.parametrize(
        "workload",
        [
            *(WORKLOADS[name] for name in sorted(WORKLOADS)),
            # A flat CDF step and a first knot at 0: numpy keeps the last
            # of equal knots.
            FlowSizeDistribution(
                "steps", ((0.5, 0.0), (10.0, 0.25), (20.0, 0.5), (30.0, 0.5), (45.0, 1.0))
            ),
        ],
        ids=lambda workload: workload.name,
    )
    def test_interp_is_np_interp(self, workload):
        knots = [cdf for _, cdf in workload.points]
        probes = [
            u
            for knot in knots
            for u in (math.nextafter(knot, 0.0), knot, math.nextafter(knot, 2.0))
            if 0.0 <= u <= 1.0
        ]
        probes += np.random.default_rng(11).uniform(size=100_000).tolist()
        expected = np.interp(probes, knots, [size for size, _ in workload.points])
        assert [workload.interp(u) for u in probes] == expected.tolist()

    @pytest.mark.parametrize("failed", [False, True])
    @pytest.mark.parametrize("scheme", ["ecmp", "conga"])
    def test_a_numpy_generator_runs_the_same_flows(self, scheme, failed):
        kwargs = dict(
            scheme=scheme, num_flows=150, seed=7,
            failed_links=[(1, 1, 0)] if failed else None,
        )
        ours = run_flow_level(scaled_testbed(), ENTERPRISE, 0.6, **kwargs)
        sim = FlowLevelSimulation(scaled_testbed(), ENTERPRISE, 0.6, **kwargs)
        sim.rng = np.random.default_rng(7)
        theirs = sim.run()
        assert len(ours) == 150
        assert ours == theirs
        assert _records_digest(ours) == PARENT_DIGESTS[scheme, failed]
