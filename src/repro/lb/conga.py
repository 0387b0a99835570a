"""CONGA and related congestion-aware uplink selectors.

:class:`CongaSelector` is the paper's mechanism (§3.5): on the first packet
of each flowlet, pick the uplink minimizing ``max(local DRE metric, remote
Congestion-To-Leaf metric)`` (§7's sum under ``CongaParams.path_metric``);
among ties prefer the uplink cached in the (expired) flowlet entry so a flow
only moves when a strictly better path exists, otherwise pick uniformly at
random.  Subsequent packets of an active flowlet reuse the cached uplink.
The choice itself is :func:`least_congested`.

:class:`CongaFlowSelector` is CONGA-Flow from §5: identical logic with a
flowlet timeout larger than any path latency, i.e. one congestion-aware
decision per flow.

:class:`LocalAwareSelector` is the strawman of §2.4 (Flare/LocalFlow-style):
flowlet switching driven by *local* DRE metrics only.  With asymmetry it is
provably worse than ECMP because TCP's control loop makes the uplink feeding
the slow path look idle.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable

from repro.core.flowlet import FlowletTable
from repro.core.params import CONGA_FLOW_PARAMS, CongaParams
from repro.lb.base import UplinkSelector
from repro.net.packet import Packet
from repro.obs.events import FlowletRerouted

if TYPE_CHECKING:
    from repro.sim.pcg64 import PCG64Stream
    from repro.switch.leaf import LeafSwitch


def least_congested(
    candidates: list[int], scores: list, previous: int, rng: "PCG64Stream"
) -> int:
    """§3.5's choice — the one copy every congestion-aware scheme calls.

    The candidate with the minimum score; among equals the ``previous``
    port, so a flow only moves when a strictly better path exists;
    otherwise one of the equals drawn from ``rng``, which is touched in
    that last case only.  ``scores`` parallels ``candidates``.
    """
    best = min(scores)
    ties = [c for c, s in zip(candidates, scores) if s == best]
    if previous in ties:
        return previous
    return ties[rng.integers(len(ties))]


class CongaSelector(UplinkSelector):
    """The CONGA decision logic of §3.5 (flowlets + global congestion)."""

    name = "conga"
    stream = "conga"  # tie-breaks draw from the RNG stream "{stream}-{leaf}"

    def __init__(self, leaf: "LeafSwitch", params: CongaParams | None = None) -> None:
        super().__init__(leaf)
        # The leaf's own block unless given one: the topology config sets
        # Q, tau and T_fl for the fabric and its selectors in one place.
        self.params = params or leaf.params
        self.flowlets = FlowletTable(leaf.sim, self.params)
        self._rng = leaf.sim.rng(f"{self.stream}-{leaf.leaf_id}")
        self.decisions = 0
        #: The path score of one (local, remote) metric pair.
        self._combine: Callable[[int, int], int] = (
            max if self.params.path_metric == "max" else operator.add
        )

    def path_scores(self, dst_leaf: int, candidates: list[int]) -> tuple[list, list, list]:
        """Per candidate: the local metric, the remote metric and their score."""
        leaf = self.leaf
        table = leaf.to_leaf_table
        local = [leaf.local_metric(uplink) for uplink in candidates]
        remote = [table.metric(dst_leaf, uplink) for uplink in candidates]
        return local, remote, list(map(self._combine, local, remote))

    def choose_uplink(self, packet: Packet, dst_leaf: int, candidates: list[int]) -> int:
        entry = self.flowlets.lookup(packet._five_tuple or packet.five_tuple)
        if entry.valid and entry.port in candidates:
            return entry.port
        choice = self._decide(
            dst_leaf, candidates, previous=entry.port, flow_id=packet.flow_id
        )
        self.flowlets.install(entry, choice)
        self.decisions += 1
        return choice

    def _decide(
        self, dst_leaf: int, candidates: list[int], previous: int, flow_id: int = -1
    ) -> int:
        leaf = self.leaf
        local_metrics, remote_metrics, metrics = self.path_scores(dst_leaf, candidates)
        choice = least_congested(candidates, metrics, previous, self._rng)
        tracer = leaf.sim.tracer
        if tracer is not None and tracer.flowlet:
            tracer.record(
                FlowletRerouted, leaf.sim._now, leaf.leaf_id, dst_leaf, flow_id,
                choice, previous,
                tuple(candidates), tuple(local_metrics), tuple(remote_metrics),
            )
        return choice


class CongaFlowSelector(CongaSelector):
    """CONGA-Flow (§5): one congestion-aware decision per flow."""

    name = "conga-flow"

    def __init__(self, leaf: "LeafSwitch", params: CongaParams = CONGA_FLOW_PARAMS) -> None:
        super().__init__(leaf, params)


class LocalAwareSelector(UplinkSelector):
    """Flowlet switching on *local* uplink congestion only (§2.4 strawman)."""

    name = "local"

    def __init__(self, leaf: "LeafSwitch", params: CongaParams | None = None) -> None:
        super().__init__(leaf)
        self.params = params or leaf.params
        self.flowlets = FlowletTable(leaf.sim, self.params)
        self._rng = leaf.sim.rng(f"local-{leaf.leaf_id}")

    def choose_uplink(self, packet: Packet, dst_leaf: int, candidates: list[int]) -> int:
        entry = self.flowlets.lookup(packet._five_tuple or packet.five_tuple)
        if entry.valid and entry.port in candidates:
            return entry.port
        # §3.5 with the remote metric taken as zero: max(local, 0) = local.
        metrics = [self.leaf.local_metric(uplink) for uplink in candidates]
        choice = least_congested(candidates, metrics, entry.port, self._rng)
        self.flowlets.install(entry, choice)
        return choice


__all__ = [
    "CongaFlowSelector",
    "CongaSelector",
    "LocalAwareSelector",
    "least_congested",
]
