"""Tests for topology construction, configuration, and failure injection."""

from dataclasses import replace

import pytest

from repro.apps import TrafficStats
from repro.lb import EcmpSelector
from repro.obs import TimelineCollector, TimelineSpec
from repro.sim import Simulator
from repro.topology import (
    LeafSpineConfig,
    MultiPodConfig,
    TESTBED,
    build_leaf_spine,
    build_multipod,
    fail_random_links,
    scaled_testbed,
)
from repro.units import gbps, microseconds


class TestLeafSpineConfig:
    def test_testbed_matches_figure7(self):
        assert TESTBED.num_leaves == 2
        assert TESTBED.num_spines == 2
        assert TESTBED.hosts_per_leaf == 32
        assert TESTBED.links_per_pair == 2
        assert TESTBED.host_rate_bps == gbps(10)
        assert TESTBED.fabric_rate_bps == gbps(40)

    def test_testbed_oversubscription_is_2_to_1(self):
        assert TESTBED.oversubscription == pytest.approx(2.0)

    def test_uplinks_per_leaf(self):
        assert TESTBED.uplinks_per_leaf == 4
        assert LeafSpineConfig(num_spines=3, links_per_pair=1).uplinks_per_leaf == 3

    def test_leaf_uplink_capacity(self):
        assert TESTBED.leaf_uplink_capacity_bps == 4 * gbps(40)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_leaves": 0},
            {"num_spines": 0},
            {"hosts_per_leaf": 0},
            {"links_per_pair": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LeafSpineConfig(**kwargs)

    def test_scaled_testbed_preserves_oversubscription(self):
        config = scaled_testbed(hosts_per_leaf=8)
        assert config.oversubscription == pytest.approx(2.0)
        config = scaled_testbed(hosts_per_leaf=6, oversubscription=3.0)
        assert config.oversubscription == pytest.approx(3.0)

    def test_scaled_testbed_explicit_fabric_rate(self):
        config = scaled_testbed(hosts_per_leaf=4, fabric_gbps=40.0)
        assert config.fabric_rate_bps == gbps(40)


class TestBuilder:
    def _build(self, config=None):
        sim = Simulator()
        fabric = build_leaf_spine(sim, config or scaled_testbed(hosts_per_leaf=4))
        fabric.finalize(EcmpSelector.factory())
        return sim, fabric

    def test_negative_propagation_delay_fails_at_the_wiring_call(self):
        # Used to build, then die inside Port._advance scheduling into the past.
        config = replace(scaled_testbed(hosts_per_leaf=4), propagation_delay=-5)
        with pytest.raises(ValueError, match="propagation delay between .* and "):
            build_leaf_spine(Simulator(), config)

    def test_counts(self):
        _sim, fabric = self._build()
        assert len(fabric.leaves) == 2
        assert len(fabric.spines) == 2
        assert len(fabric.hosts) == 8

    def test_host_ids_are_leaf_major(self):
        _sim, fabric = self._build()
        assert fabric.leaf_of(0) == 0
        assert fabric.leaf_of(3) == 0
        assert fabric.leaf_of(4) == 1
        assert fabric.hosts_under(1) == [4, 5, 6, 7]

    def test_each_leaf_has_expected_uplinks(self):
        _sim, fabric = self._build()
        for leaf in fabric.leaves:
            assert len(leaf.uplinks) == 4  # 2 spines x 2 links
            assert all(port.connected for port in leaf.uplinks)

    def test_uplinks_alternate_spines(self):
        _sim, fabric = self._build()
        leaf = fabric.leaves[0]
        spine_ids = [spine.spine_id for spine in leaf.uplink_spine]
        assert sorted(spine_ids) == [0, 0, 1, 1]

    def test_spine_ports_to_each_leaf(self):
        _sim, fabric = self._build()
        for spine in fabric.spines:
            assert len(spine.ports_to_leaf(0)) == 2
            assert len(spine.ports_to_leaf(1)) == 2

    def test_hosts_connected_to_leaf(self):
        _sim, fabric = self._build()
        host = fabric.host(0)
        assert host.nic.peer is fabric.leaves[0].host_port(0)

    def test_larger_fabric(self):
        config = scaled_testbed(
            hosts_per_leaf=2, num_leaves=6, num_spines=4, links_per_pair=1
        )
        sim = Simulator()
        fabric = build_leaf_spine(sim, config)
        fabric.finalize(EcmpSelector.factory())
        assert len(fabric.leaves) == 6
        assert len(fabric.spines) == 4
        assert all(len(leaf.uplinks) == 4 for leaf in fabric.leaves)


#: Every fabric shape with parallel links the figures build, and one-link ones.
FABRICS = {
    **{
        f"leaf-spine-x{links}": (build_leaf_spine, scaled_testbed(2, links_per_pair=links))
        for links in (1, 2, 3)
    },
    **{
        f"multipod-x{links}": (build_multipod, MultiPodConfig(hosts_per_leaf=2, links_per_pair=links))
        for links in (1, 2)
    },
}


class TestPortNames:
    """Parallel links never share a port name, so per-port series never merge."""

    @pytest.mark.parametrize("shape", sorted(FABRICS))
    def test_fabric_port_names_are_unique(self, shape):
        build, config = FABRICS[shape]
        names = [port.name for port in build(Simulator(seed=1), config).fabric_ports()]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("shape", sorted(FABRICS))
    def test_a_timeline_has_one_series_per_port(self, shape):
        build, config = FABRICS[shape]
        sim = Simulator(seed=1)
        fabric = build(sim, config)
        fabric.finalize(EcmpSelector.factory())
        # The collector samples DREs only on a running congestion plane.
        fabric.require_congestion_plane()
        collector = TimelineCollector(
            sim, fabric, TimelineSpec(interval=microseconds(10)), stats=TrafficStats()
        )
        collector.start()
        sim.run(until=microseconds(30))
        timeline = collector.snapshot()
        ports = len(list(fabric.fabric_ports()))
        assert len(timeline.port_names) == ports
        for series in (timeline.utilization, timeline.residual, timeline.occupancy, timeline.dre):
            assert len(series) == ports

    def test_one_link_leaf_spine_names_are_unchanged(self):
        fabric = build_leaf_spine(Simulator(seed=1), scaled_testbed(2, links_per_pair=1))
        assert [port.name for port in fabric.fabric_ports()] == [
            "leaf0.up0->spine0", "leaf0.up1->spine1", "leaf1.up0->spine0", "leaf1.up1->spine1",
            "spine0->leaf0", "spine0->leaf1", "spine1->leaf0", "spine1->leaf1",
        ]

    def test_tiers_stay_readable_from_the_name(self):
        build, config = FABRICS["leaf-spine-x3"]
        fabric = build(Simulator(seed=1), config)
        assert all(".up" in port.name for port in fabric.leaf_uplink_ports())
        assert all(port.name.startswith("spine") for port in fabric.spine_ports())
        assert [port.name for port in fabric.spines[1].ports[:3]] == [
            "spine1->leaf0", "spine1->leaf0#1", "spine1->leaf0#2",
        ]


class TestFailureInjection:
    def _build(self):
        sim = Simulator()
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
        fabric.finalize(EcmpSelector.factory())
        return sim, fabric

    def test_fail_link_figure_7b(self):
        _sim, fabric = self._build()
        port = fabric.fail_link(1, 1, 0)
        assert not port.up
        # The parallel link survives, so spine 1 still reaches leaf 1.
        assert fabric.spines[1].can_reach(1)
        assert len(fabric.spines[1].ports_to_leaf(1)) == 1

    def test_fail_both_parallel_links_disconnects_pair(self):
        _sim, fabric = self._build()
        fabric.fail_link(1, 1, 0)
        fabric.fail_link(1, 1, 1)
        assert not fabric.spines[1].can_reach(1)
        # Leaf 0 must then exclude uplinks to spine 1 for traffic to leaf 1.
        assert fabric.leaves[0].candidate_uplinks(1) == [
            index
            for index, spine in enumerate(fabric.leaves[0].uplink_spine)
            if spine.spine_id == 0
        ]

    def test_fail_link_out_of_range(self):
        _sim, fabric = self._build()
        with pytest.raises(ValueError):
            fabric.fail_link(0, 0, 5)

    @pytest.mark.parametrize("index", [-1, 9])
    @pytest.mark.parametrize(
        "lookup, tier",
        [
            (lambda fabric, i: fabric.link(i, 0), "leaf"),
            (lambda fabric, i: fabric.uplink_ports(i, 0), "leaf"),
            (lambda fabric, i: fabric.switch_ports("leaf", i), "leaf"),
            (lambda fabric, i: fabric.link(0, i), "spine"),
            (lambda fabric, i: fabric.core_link(i, 0), "spine"),
            (lambda fabric, i: fabric.switch_ports("spine", i), "spine"),
            (lambda fabric, i: fabric.core_link(0, i), "core"),
            (lambda fabric, i: fabric.switch_ports("core", i), "core"),
            (lambda fabric, i: fabric.link(0, 0, i), "link"),
            (lambda fabric, i: fabric.core_link(0, 0, i), "link"),
        ],
        ids=[
            "link-leaf", "uplink_ports-leaf", "switch_ports-leaf", "link-spine",
            "core_link-spine", "switch_ports-spine", "core_link-core",
            "switch_ports-core", "link-which", "core_link-which",
        ],
    )
    @pytest.mark.parametrize(
        "build, config",
        [(build_leaf_spine, scaled_testbed(hosts_per_leaf=2)), (build_multipod, MultiPodConfig())],
        ids=["leaf-spine", "multipod"],
    )
    def test_every_tier_lookup_refuses_an_index_outside_its_tier(
        self, build, config, lookup, tier, index
    ):
        # -1 used to wrap to the last leaf / spine / parallel link, so a
        # fault built in Python hit a switch other than the one it named;
        # 9 was a bare IndexError everywhere but the core tier.
        fabric = build(Simulator(), config)
        with pytest.raises(ValueError) as refusal:
            lookup(fabric, index)
        if fabric.cores or "no core" not in str(refusal.value):
            assert f"no {tier} {index} " in str(refusal.value)
            assert "(valid: 0.." in str(refusal.value)
        else:  # two tiers: whatever else was asked, there is no core to ask it of
            assert "takes a multi-pod fabric (valid: none)" in str(refusal.value)

    def test_fail_random_links_never_disconnects_leaf(self):
        for seed in range(5):
            sim = Simulator(seed=seed)
            config = scaled_testbed(
                hosts_per_leaf=2, num_leaves=6, num_spines=4, links_per_pair=3
            )
            fabric = build_leaf_spine(sim, config)
            fabric.finalize(EcmpSelector.factory())
            failed = fail_random_links(fabric, 9)
            assert len(failed) == 9
            for leaf in fabric.leaves:
                assert any(port.up for port in leaf.uplinks)

    def test_fail_random_links_too_many(self):
        sim = Simulator()
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
        fabric.finalize(EcmpSelector.factory())
        with pytest.raises(ValueError):
            fail_random_links(fabric, 100)

    def test_restore_after_failure(self):
        _sim, fabric = self._build()
        port = fabric.fail_link(1, 1, 0)
        port.restore()
        assert port.up
        assert len(fabric.spines[1].ports_to_leaf(1)) == 2


class TestIdealFct:
    def test_cross_rack_larger_than_intra(self):
        sim = Simulator()
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=4))
        fabric.finalize(EcmpSelector.factory())
        intra = fabric.ideal_fct(0, 1, 1_000_000)
        cross = fabric.ideal_fct(0, 4, 1_000_000)
        assert cross > intra

    def test_monotone_in_size(self):
        sim = Simulator()
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=4))
        fabric.finalize(EcmpSelector.factory())
        sizes = [1_000, 100_000, 10_000_000]
        fcts = [fabric.ideal_fct(0, 4, s) for s in sizes]
        assert fcts == sorted(fcts)

    def test_dominated_by_access_link_rate(self):
        sim = Simulator()
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=4))
        fabric.finalize(EcmpSelector.factory())
        size = 10_000_000
        fct = fabric.ideal_fct(0, 4, size)
        # Must be at least the plain payload serialization at 10 Gbps.
        assert fct >= size * 8 / 10  # ns at 10 Gbps = bits/10


@pytest.mark.parametrize(
    "config, field",
    [
        (LeafSpineConfig, "host_rate_bps"),
        (LeafSpineConfig, "fabric_rate_bps"),
        (LeafSpineConfig, "host_queue_bytes"),
        (LeafSpineConfig, "fabric_queue_bytes"),
        (LeafSpineConfig, "ecn_threshold_bytes"),
        (MultiPodConfig, "core_rate_bps"),
        (MultiPodConfig, "host_queue_bytes"),
        (MultiPodConfig, "ecn_threshold_bytes"),
    ],
)
def test_a_config_refuses_what_its_fabric_would_refuse(config, field):
    # A zero rate, buffer or threshold used to pass and fail while the
    # fabric was built; None keeps meaning unbounded or off.
    for value in (0, -1):
        with pytest.raises(ValueError, match=rf"^{field} must be positive, got {value}$"):
            config(**{field: value})
    if field.endswith("_bytes"):
        assert getattr(config(**{field: None}), field) is None
