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
    MultiPodConfig,
    build_leaf_spine,
    build_multipod,
    scaled_testbed,
)
from repro.transport import TcpFlow

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
