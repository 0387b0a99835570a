"""Leaf (top-of-rack) switch model.

The leaf implements everything in Figure 6 of the paper: the tunnel endpoint
(encap/decap plus both congestion tables, via
:class:`repro.overlay.TunnelEndpoint`), one DRE per uplink, and the pluggable
uplink selector that embodies the load balancing scheme under test.  Local
traffic (both hosts under the same leaf) is switched directly without
entering the overlay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.dre import DRE
from repro.core.params import CongaParams, DEFAULT_PARAMS
from repro.net import port as _port_mod
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.port import Port
from repro.overlay.vxlan import TunnelEndpoint
from repro.sim.kernel import PeriodicTimer
from repro.switch.spine import add_fabric_port

if TYPE_CHECKING:
    from repro.core.tables import CongestionFromLeafTable, CongestionToLeafTable
    from repro.lb.base import SelectorFactory, UplinkSelector
    from repro.sim import Simulator
    from repro.switch.fabric import Fabric
    from repro.switch.spine import SpineSwitch


_PLANE_OFF = (
    "congestion state read with the congestion plane off: the selector "
    "declares reads_congestion = False (or nothing required the plane)"
)


class LeafSwitch(Node):
    """A leaf switch: overlay TEP, per-uplink DREs, and the LB selector.

    Construction happens in two phases because the selector and tables need
    to know the final uplink count: the topology builder adds ports with
    :meth:`add_host_port` / :meth:`add_uplink`, then calls :meth:`finalize`
    with the selector factory for the experiment.
    """

    def __init__(
        self,
        sim: "Simulator",
        leaf_id: int,
        fabric: "Fabric",
        params: CongaParams = DEFAULT_PARAMS,
        name: str | None = None,
    ) -> None:
        super().__init__(sim, name or f"leaf{leaf_id}")
        self.leaf_id = leaf_id
        self.fabric = fabric
        self.params = params
        self.uplinks: list[Port] = []
        self.uplink_spine: list["SpineSwitch"] = []
        self.uplink_dres: list[DRE] = []
        self._host_ports: dict[int, Port] = {}
        self.tep: TunnelEndpoint | None = None
        self.selector: "UplinkSelector | None" = None
        self.dropped_unroutable = 0
        self.explicit_feedback_sent = 0
        self._feedback_timer: PeriodicTimer | None = None
        # Routing cache: destination leaf -> candidate uplink list, valid
        # while the global link up/down epoch is unchanged.  Callers (the
        # selectors) must not mutate the returned lists.
        self._route_cache: dict[int, list[int]] = {}
        self._route_epoch = -1

    # -- wiring ---------------------------------------------------------------

    def add_host_port(
        self,
        host_id: int,
        rate_bps: int,
        queue_capacity: int | None,
        ecn_threshold: int | None = None,
    ) -> Port:
        """Create the downlink port for ``host_id``."""
        if host_id in self._host_ports:
            raise ValueError(f"host {host_id} already attached to {self.name}")
        port = self.add_port(
            rate_bps, queue_capacity, name=f"{self.name}->h{host_id}",
            ecn_threshold=ecn_threshold,
        )
        self._host_ports[host_id] = port
        return port

    def add_uplink(
        self,
        spine: "SpineSwitch",
        rate_bps: int,
        queue_capacity: int | None,
        ecn_threshold: int | None = None,
    ) -> Port:
        """Create an uplink port toward ``spine``; its index is the LBTag."""
        lbtag = len(self.uplinks)
        port = add_fabric_port(
            self, f"{self.name}.up{lbtag}->{spine.name}", rate_bps,
            queue_capacity, ecn_threshold,
        )
        self.uplinks.append(port)
        self.uplink_spine.append(spine)
        self.uplink_dres.append(port.dre)
        return port

    def finalize(self, selector_factory: "SelectorFactory") -> None:
        """Create the TEP and the uplink selector once all ports exist.

        A selector that reads congestion state needs it measured at every
        leaf and spine, not just here, so it switches the fabric's
        congestion plane on.
        """
        if not self.uplinks:
            raise ValueError(f"{self.name} has no uplinks")
        self.tep = TunnelEndpoint(
            self.sim, self.leaf_id, len(self.uplinks), self.params,
            feedback_loop=self.fabric.congestion_plane,
        )
        self.selector = selector_factory(self)
        if self.selector.reads_congestion:
            self.fabric.require_congestion_plane()

    def enable_explicit_feedback(self, interval: int) -> None:
        """Generate explicit feedback packets every ``interval`` (§3.3).

        The ASIC piggybacks feedback on reverse traffic only — cheap, but a
        leaf pair with one-way traffic starves the sender of remote metrics
        (they age to zero and CONGA degenerates to local-only decisions).
        §3.3 notes explicit feedback packets as the alternative; this
        enables it: whenever metrics are owed to some leaf and ``interval``
        elapses, a 64-byte control packet is sent toward that leaf carrying
        one (FB_LBTag, FB_Metric) pair via the normal encapsulation path.
        Enabling again replaces the interval; ``explicit_feedback_sent``
        keeps counting across re-enables.  Feedback is only ever owed where
        CE is measured, so this requires the fabric's congestion plane
        (:class:`~repro.switch.fabric.CongestionPlaneError` once traffic
        has crossed the fabric without it).
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.fabric.require_congestion_plane()
        self.disable_explicit_feedback()
        self._feedback_timer = PeriodicTimer(
            self.sim, interval, self._emit_explicit_feedback
        )

    def disable_explicit_feedback(self) -> None:
        """Stop generating explicit feedback packets."""
        if self._feedback_timer is not None:
            self._feedback_timer.stop()
            self._feedback_timer = None

    def _emit_explicit_feedback(self) -> None:
        assert self.tep is not None and self.selector is not None
        for peer_leaf in self.tep.from_leaf_table.leaves_owed_feedback():
            candidates = self.candidate_uplinks(peer_leaf)
            if not candidates:
                continue
            control = Packet(
                src=-(1 + self.leaf_id),
                dst=-(1 + peer_leaf),
                size=64,
                protocol="conga-fb",
                sport=self.leaf_id,
                dport=peer_leaf,
                flow_id=-(1 + self.leaf_id),
                created_at=self.sim.now,
            )
            choice = self.selector.choose_uplink(control, peer_leaf, candidates)
            self.tep.encapsulate(control, peer_leaf, lbtag=choice)
            self.uplinks[choice].send(control)
            self.explicit_feedback_sent += 1

    # -- CONGA state accessors --------------------------------------------------

    # The asserts below catch a selector that reads this state while
    # declaring ``reads_congestion = False``: with the plane off nothing is
    # measured, and every read would be a plausible zero.

    def local_metric(self, uplink: int) -> int:
        """Quantized local congestion (DRE) of ``uplink``'s egress (§3.5)."""
        assert self.fabric.congestion_plane, _PLANE_OFF
        return self.uplink_dres[uplink].metric()

    @property
    def to_leaf_table(self) -> "CongestionToLeafTable":
        """The Congestion-To-Leaf table (valid after :meth:`finalize`)."""
        assert self.tep is not None, "leaf not finalized"
        assert self.fabric.congestion_plane, _PLANE_OFF
        return self.tep.to_leaf_table

    @property
    def from_leaf_table(self) -> "CongestionFromLeafTable":
        """The Congestion-From-Leaf table (valid after :meth:`finalize`)."""
        assert self.tep is not None, "leaf not finalized"
        assert self.fabric.congestion_plane, _PLANE_OFF
        return self.tep.from_leaf_table

    def host_port(self, host_id: int) -> Port:
        """The downlink port serving ``host_id``."""
        return self._host_ports[host_id]

    # -- forwarding -----------------------------------------------------------

    def candidate_uplinks(self, dst_leaf: int) -> list[int]:
        """Uplinks that are up and whose spine can still reach ``dst_leaf``.

        The result is cached per destination leaf until a link anywhere
        fails or is restored (or an uplink is added here); do not mutate
        the returned list.
        """
        if self._route_epoch != _port_mod._topology_epoch:
            self._route_cache.clear()
            self._route_epoch = _port_mod._topology_epoch
        cached = self._route_cache.get(dst_leaf)
        if cached is None:
            cached = [
                index
                for index, port in enumerate(self.uplinks)
                if port.up and self.uplink_spine[index].can_reach(dst_leaf)
            ]
            self._route_cache[dst_leaf] = cached
        return cached

    def receive(self, packet: Packet, port: Port) -> None:
        """Forward one packet: the leaf's single per-hop frame (both directions).

        Fabric → host decapsulates (feeding both congestion tables) and falls
        through to the downlink; host → fabric resolves the destination leaf,
        reads the candidate-uplink cache, asks the selector, encapsulates and
        sends.  Intra-leaf traffic skips the overlay.
        """
        tep = self.tep
        if packet.overlay is not None:
            assert tep is not None, f"{self.name} used before finalize()"
            tep.decapsulate(packet)
            if packet.protocol == "conga-fb":
                # Explicit feedback control packets terminate at the leaf;
                # the decapsulation above already consumed their payload.
                return
        else:
            dst_leaf = self.fabric.host_leaf[packet.dst]
            if dst_leaf != self.leaf_id:
                assert tep is not None, f"{self.name} used before finalize()"
                candidates = (
                    self._route_cache.get(dst_leaf)
                    if self._route_epoch == _port_mod._topology_epoch
                    else None
                )
                if candidates is None:
                    candidates = self.candidate_uplinks(dst_leaf)
                if not candidates:
                    self.dropped_unroutable += 1
                    return
                choice = self.selector.choose_uplink(packet, dst_leaf, candidates)
                tep.encapsulate(packet, dst_leaf, choice)
                self.uplinks[choice].send(packet)
                return
        down = self._host_ports.get(packet.dst)
        if down is None:
            self.dropped_unroutable += 1
            return
        down.send(packet)


__all__ = ["LeafSwitch"]
