"""``ideal_fct`` charges the configured propagation delay, hop by hop.

For one single-MSS flow on an idle fabric the time beyond ``ideal_fct`` is
serialization of the ACK plus the ACK's return propagation — nothing of the
forward path.  So when every link's delay moves from 500 ns to ``d`` the
excess must move by exactly ``hops * (d - 500)``: the forward propagation
sits wholly inside ``ideal_fct`` (ROADMAP item 2(d), first row).
"""

import pytest

from repro.lb import EcmpSelector
from repro.sim import Simulator, run_until_idle
from repro.topology import (
    LeafSpineConfig,
    MultiPodConfig,
    build_leaf_spine,
    build_multipod,
    scaled_testbed,
)
from repro.transport import TcpFlow
from repro.units import gbps

SIZE = 1_000  # one segment: no pipelining, no window growth


def _excess(build, config, src: int, dst: int) -> int:
    sim = Simulator(seed=1)
    fabric = build(sim, config)
    fabric.finalize(EcmpSelector.factory())
    flow = TcpFlow(sim, fabric.host(src), fabric.host(dst), SIZE)
    flow.start()
    run_until_idle(sim)
    assert flow.finished
    return flow.fct - fabric.ideal_fct(src, dst, SIZE)


def _leaf_spine(delay: int):
    return build_leaf_spine, scaled_testbed(hosts_per_leaf=4, propagation_delay=delay)


def _multipod(delay: int):
    return build_multipod, MultiPodConfig(propagation_delay=delay)


@pytest.mark.parametrize(
    "fabric, src, dst, hops",
    [
        (_leaf_spine, 0, 1, 2),  # intra-leaf
        (_leaf_spine, 0, 4, 4),  # inter-leaf
        (_multipod, 0, 1, 2),  # intra-leaf
        (_multipod, 0, 4, 4),  # inter-leaf, same pod
        (_multipod, 0, 12, 6),  # inter-pod, through a core
    ],
)
@pytest.mark.parametrize("delay", [2_000, 5_000])
def test_excess_over_ideal_is_the_acks_return_trip(fabric, src, dst, hops, delay):
    baseline = _excess(*fabric(500), src, dst)
    assert _excess(*fabric(delay), src, dst) == baseline + hops * (delay - 500)


def test_inter_leaf_numbers_of_the_issue():
    # Parent: ideal 8 148 ns whatever the delay, excess 1 536 + 8 * 4 500.
    assert _excess(*_leaf_spine(500), 0, 4) == 1_536
    assert _excess(*_leaf_spine(5_000), 0, 4) == 1_536 + 4 * 4_500


def test_intra_pod_flow_is_priced_on_the_ports_it_crosses():
    # A pod spine's ports include its core uplinks; the parent took the
    # fastest of them all for the spine->leaf hop and said 90 521 ns here.
    pods = build_multipod(Simulator(seed=1), MultiPodConfig(core_rate_bps=gbps(40)))
    two_tier = build_leaf_spine(
        Simulator(seed=1),
        LeafSpineConfig(
            num_leaves=2, num_spines=2, hosts_per_leaf=4, links_per_pair=1,
            fabric_rate_bps=gbps(10),
        ),
    )
    assert pods.ideal_fct(0, 4, 100_000) == two_tier.ideal_fct(0, 4, 100_000) == 91_460


@pytest.mark.parametrize(
    "overrides, src, dst, ideal",
    [
        ({}, 0, 12, [8_267, 94_964, 1_723_207]),
        (
            {"propagation_delay": 2_000, "links_per_pair": 2, "num_cores": 3},
            3, 9, [17_267, 103_964, 1_732_207],
        ),
    ],
)
def test_inter_pod_ideal_on_uniform_rates_is_the_parents(overrides, src, dst, ideal):
    # Walking the ports must price the six hops as the parent's closed form
    # from the config did: these feed every committed multipod record digest.
    fabric = build_multipod(Simulator(seed=1), MultiPodConfig(**overrides))
    sizes = (1_000, 100_000, 2_000_000)
    assert [fabric.ideal_fct(src, dst, size) for size in sizes] == ideal
