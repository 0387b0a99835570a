"""Spine switch model.

Spines are deliberately simple in CONGA (§3, Figure 6): they forward on the
overlay header's destination leaf, pick among parallel links to that leaf
with standard ECMP hashing (footnote 3), and run a DRE per egress link that
updates the packet's CE field to the maximum congestion seen so far (§3.3
step 2).  All CONGA decision state lives at the leaves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.dre import DRE
from repro.core.params import CongaParams, DEFAULT_PARAMS
from repro.net import port as _port_mod
from repro.net.hashing import stable_hash
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.port import Port

if TYPE_CHECKING:
    from repro.sim import Simulator


class SpineSwitch(Node):
    """A spine (core) switch in a Leaf-Spine fabric."""

    def __init__(
        self,
        sim: "Simulator",
        spine_id: int,
        params: CongaParams = DEFAULT_PARAMS,
        name: str | None = None,
    ) -> None:
        super().__init__(sim, name or f"spine{spine_id}")
        self.spine_id = spine_id
        self.params = params
        self.dres: list[DRE] = []
        self._leaf_ports: dict[int, list[int]] = {}
        self.dropped_unroutable = 0
        # Routing cache: leaf id -> list of up port indices, valid while the
        # global link up/down epoch is unchanged.  Callers must not mutate
        # the returned lists.
        self._route_cache: dict[int, list[int]] = {}
        self._route_epoch = -1

    # -- wiring ---------------------------------------------------------------

    def add_leaf_port(
        self,
        leaf_id: int,
        rate_bps: int,
        queue_capacity: int | None,
        ecn_threshold: int | None = None,
    ) -> Port:
        """Create a port that will connect to ``leaf_id`` and attach its DRE."""
        port = self.add_port(
            rate_bps, queue_capacity, name=f"{self.name}->leaf{leaf_id}",
            ecn_threshold=ecn_threshold,
        )
        dre = DRE(self.sim, rate_bps, self.params, name=port.name)
        self.dres.append(dre)
        # Hooked into the port by Fabric.require_congestion_plane; rate
        # changes (Port.set_rate) retarget it either way.
        port.dre = dre
        self._leaf_ports.setdefault(leaf_id, []).append(port.index)
        # New wiring changes reachability fabric-wide (leaf candidate caches
        # consult this spine via can_reach), so bump the global epoch.
        _port_mod._bump_topology_epoch()
        return port

    # -- forwarding -----------------------------------------------------------

    def ports_to_leaf(self, leaf_id: int) -> list[int]:
        """Indices of *up* ports toward ``leaf_id``.

        The result is cached per leaf until a link anywhere fails or is
        restored (or a port is added here); do not mutate the returned list.
        """
        if self._route_epoch != _port_mod._topology_epoch:
            self._route_cache.clear()
            self._route_epoch = _port_mod._topology_epoch
        cached = self._route_cache.get(leaf_id)
        if cached is None:
            cached = [
                index
                for index in self._leaf_ports.get(leaf_id, [])
                if self.ports[index].up
            ]
            self._route_cache[leaf_id] = cached
        return cached

    def can_reach(self, leaf_id: int) -> bool:
        """Whether at least one link toward ``leaf_id`` is up."""
        return bool(self.ports_to_leaf(leaf_id))

    def path_health(self, leaf_id: int) -> float:
        """Residual forwarding capacity toward ``leaf_id`` (fraction of nominal).

        1.0 when every parallel downlink is healthy, 0.0 when the leaf is
        unreachable.  Fault-aware selectors (the ``caft`` scheme) multiply
        this into the CONGA path metric so asymmetry their DREs cannot see
        — cut cables, black holes, brownouts past this hop — still repels
        flowlets.
        """
        return _port_mod.residual_capacity(
            self.ports[index] for index in self._leaf_ports.get(leaf_id, ())
        )

    def receive(self, packet: Packet, port: Port) -> None:
        header = packet.overlay
        if header is None:
            # Spines only ever see encapsulated fabric traffic.
            self.dropped_unroutable += 1
            return
        dst_leaf = header.dst_leaf
        candidates = (
            self._route_cache.get(dst_leaf)
            if self._route_epoch == _port_mod._topology_epoch
            else None
        )
        if candidates is None:
            candidates = self.ports_to_leaf(dst_leaf)
        if not candidates:
            self.dropped_unroutable += 1
            return
        if len(candidates) == 1:
            choice = candidates[0]
        else:
            index = stable_hash(
                packet._five_tuple or packet.five_tuple, 1_000_003 + self.spine_id
            )
            choice = candidates[index % len(candidates)]
        self.ports[choice].send(packet)


__all__ = ["SpineSwitch"]
