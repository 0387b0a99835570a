"""Static hash-based schemes: ECMP, per-packet spraying, weighted random.

ECMP is the baseline the paper measures against: a per-flow hash pins every
flow to one uplink with no congestion awareness.  Per-packet spraying (DRB
[10] style) and static weighted random (oblivious routing, §2.4) are the
other congestion-oblivious points in the design space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lb.base import UplinkSelector
from repro.net.hashing import stable_hash
from repro.net.packet import Packet

if TYPE_CHECKING:
    from repro.switch.leaf import LeafSwitch


def ecmp_hash(five_tuple: tuple, salt: int = 0) -> int:
    """Deterministic flow hash used by leaves and spines for ECMP.

    Built on :func:`repro.net.hashing.stable_hash` so results are identical
    in every interpreter process (Python randomizes string hashes, and the
    5-tuple carries the protocol name).  ``salt`` decorrelates hashing at
    different switches so a collision at one tier does not persist at the
    next.
    """
    return stable_hash(five_tuple, salt=salt)


class EcmpSelector(UplinkSelector):
    """Per-flow static hashing over the available uplinks."""

    name = "ecmp"
    reads_congestion = False

    def choose_uplink(self, packet: Packet, dst_leaf: int, candidates: list[int]) -> int:
        index = stable_hash(packet._five_tuple or packet.five_tuple, self.leaf.leaf_id)
        return candidates[index % len(candidates)]


class PacketSpraySelector(UplinkSelector):
    """Per-packet round-robin spraying (congestion-oblivious, optimal split).

    Corresponds to the "Per Packet" leaf of Figure 1's design tree; it needs
    a reordering-tolerant transport to work well and interacts poorly with
    asymmetry (§2.4).
    """

    name = "spray"
    reads_congestion = False

    def __init__(self, leaf: "LeafSwitch") -> None:
        super().__init__(leaf)
        self._next = 0

    def choose_uplink(self, packet: Packet, dst_leaf: int, candidates: list[int]) -> int:
        choice = candidates[self._next % len(candidates)]
        self._next += 1
        return choice


class WeightedRandomSelector(UplinkSelector):
    """Static weighted random split (oblivious routing, §2.4).

    Weights are per-uplink and fixed for the experiment; Figure 3's point is
    that no static weight vector is right for every traffic matrix.
    """

    name = "weighted"
    reads_congestion = False

    def __init__(self, leaf: "LeafSwitch", weights: list[float]) -> None:
        super().__init__(leaf)
        if len(weights) != len(leaf.uplinks):
            raise ValueError(
                f"need one weight per uplink ({len(leaf.uplinks)}), got {len(weights)}"
            )
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError(f"weights must be non-negative and not all zero: {weights}")
        self.weights = list(weights)
        self._rng = leaf.sim.rng(f"weighted-{leaf.leaf_id}")

    def choose_uplink(self, packet: Packet, dst_leaf: int, candidates: list[int]) -> int:
        live_weights = [self.weights[i] for i in candidates]
        total = sum(live_weights)
        if total <= 0:
            return candidates[0]
        probabilities = [w / total for w in live_weights]
        return candidates[self._rng.choice(len(candidates), p=probabilities)]


__all__ = [
    "EcmpSelector",
    "PacketSpraySelector",
    "WeightedRandomSelector",
    "ecmp_hash",
]
