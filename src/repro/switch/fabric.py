"""Fabric container: the directory tying hosts, leaves, and spines together.

The fabric plays the role of the (out-of-scope for the paper) endpoint
directory: it maps endpoint ids to their leaf switches so source TEPs can
resolve destination TEPs (§2.5).  It also provides the experiment-facing
helpers: link-failure injection, port iteration for statistics, and the
idealized FCT model used to normalize results (§5.2.1).

The fabric also owns the one switch of the *congestion plane* — the DRE
hook on every fabric port, the CE stamp it makes, and the leaf-to-leaf
feedback loop in the TEPs (§3.2–3.3).  In the ASIC that machinery is free
hardware; here it is Python on every hop, so it runs only when something
reads what it measures (:meth:`Fabric.require_congestion_plane`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Iterator

from repro.net.node import Host
from repro.net.packet import HEADER_BYTES
from repro.net.port import Port
from repro.overlay.vxlan import VXLAN_OVERHEAD
from repro.units import transmission_time

if TYPE_CHECKING:
    from repro.lb.base import SelectorFactory, UplinkSelector
    from repro.sim import Simulator
    from repro.switch.leaf import LeafSwitch
    from repro.switch.spine import SpineSwitch


class CongestionPlaneError(RuntimeError):
    """The congestion plane was asked for after unmeasured traffic crossed it."""


def _member(members: list, index: int, what: str, where: str):
    """``members[index]`` — or a ValueError naming what, which and the valid range.

    A negative index never wraps: a fault aimed at ``leaf=-1`` must not
    silently hit the last leaf.
    """
    if not 0 <= index < len(members):
        valid = f"0..{len(members) - 1}" if members else "none"
        raise ValueError(f"no {what} {index} {where} (valid: {valid})")
    return members[index]


class Fabric:
    """All nodes of one simulated datacenter fabric."""

    def __init__(self, sim: "Simulator", config=None) -> None:
        self.sim = sim
        #: The topology config the builder wired this fabric from (None when
        #: wired by hand); ``hedera``'s scheduler reads its period from it.
        self.config = config
        #: Whether fabric ports run their DRE (and so stamp CE) and the TEPs
        #: run the feedback loop.  Off until a reader of that state appears;
        #: switch it on with :meth:`require_congestion_plane`, never directly.
        self.congestion_plane = False
        self.hosts: dict[int, Host] = {}
        self.leaves: list["LeafSwitch"] = []
        self.spines: list["SpineSwitch"] = []
        #: The core tier joining pods (paper §7); empty on a 2-tier fabric.
        self.cores: list["SpineSwitch"] = []
        #: Leaf id -> pod, filled by the topology builder as it wires leaves.
        self.leaf_pod: list[int] = []
        #: Endpoint directory, host id -> leaf id.  Leaves read it directly
        #: on the per-packet path; fill it through :meth:`register_host`.
        self.host_leaf: dict[int, int] = {}

    # -- directory -------------------------------------------------------------

    def register_host(self, host: Host, leaf_id: int) -> None:
        """Record that ``host`` lives under leaf ``leaf_id``."""
        if host.host_id in self.hosts:
            raise ValueError(f"host id {host.host_id} already registered")
        self.hosts[host.host_id] = host
        self.host_leaf[host.host_id] = leaf_id

    def leaf_of(self, host_id: int) -> int:
        """The leaf id serving ``host_id``."""
        return self.host_leaf[host_id]

    def host(self, host_id: int) -> Host:
        """The host object for ``host_id``."""
        return self.hosts[host_id]

    def hosts_under(self, leaf_id: int) -> list[int]:
        """All host ids attached to ``leaf_id``."""
        return [h for h, leaf in sorted(self.host_leaf.items()) if leaf == leaf_id]

    def finalize(self, selector_factory: "SelectorFactory") -> None:
        """Finish construction: instantiate each leaf's TEP and selector.

        A selector that reads congestion state switches the congestion
        plane on as its leaf is finalized; so does a tracer recording the
        ``dre`` or ``table`` categories, which reads it for the trace.
        """
        for leaf in self.leaves:
            leaf.finalize(selector_factory)
        tracer = self.sim.tracer
        if tracer is not None and (tracer.dre or tracer.table):
            self.require_congestion_plane()

    def require_congestion_plane(self) -> None:
        """Switch on DRE measurement, CE stamping and leaf-to-leaf feedback.

        Called by whatever reads that state: a leaf finalized with a
        selector whose ``reads_congestion`` is true, caft's pod-spine
        weighting, a ``dre``/``table`` tracer,
        ``LeafSwitch.enable_explicit_feedback``.  A ``TimelineCollector``
        is no reader: it samples DREs only when the plane already runs.
        Idempotent.  Call it once the fabric is wired — it hooks the ports
        that exist — and before traffic: once a fabric port has transmitted
        unmeasured, a DRE started now would report a half-warm register as
        if it were the link's load, so that raises
        :class:`CongestionPlaneError` instead.
        """
        if self.congestion_plane:
            return
        ports = list(self.fabric_ports())
        for port in ports:
            if port.busy_time:
                raise CongestionPlaneError(
                    f"{port.name} has already transmitted with the congestion "
                    "plane off; whatever reads DREs or congestion tables must "
                    "require the plane before traffic starts"
                )
        self.congestion_plane = True
        for port in ports:
            dre = port.dre
            if dre is not None:
                # The fused hook, bound directly — no per-port closure, one
                # call per packet (decay + increment + CE stamp, §3.2).
                port.on_transmit.append(dre.measure)
        for leaf in self.leaves:
            if leaf.tep is not None:
                leaf.tep.feedback_loop = True

    # -- failure injection -------------------------------------------------------

    def _switch(self, tier: str, index: int) -> "LeafSwitch | SpineSwitch":
        """The ``index``-th switch of ``tier``; the one check of a tier index."""
        tiers = {"leaf": self.leaves, "spine": self.spines, "core": self.cores}
        if tier not in tiers:
            raise ValueError(f"kind must be 'leaf', 'spine', or 'core', got {tier!r}")
        where = "in this fabric"
        if not tiers[tier]:  # only the core tier can be empty
            where += f", a {tier} tier takes a multi-pod fabric"
        return _member(tiers[tier], index, tier, where)

    def uplink_ports(self, leaf_id: int, spine_id: int) -> list[Port]:
        """The leaf-side ports of all (possibly parallel) links leaf↔spine."""
        leaf = self._switch("leaf", leaf_id)
        target = self._switch("spine", spine_id)
        return [
            port
            for port, spine in zip(leaf.uplinks, leaf.uplink_spine)
            if spine is target
        ]

    def link(self, leaf_id: int, spine_id: int, which: int = 0) -> Port:
        """The leaf-side port of the ``which``-th parallel leaf↔spine link."""
        return _member(
            self.uplink_ports(leaf_id, spine_id), which, "link",
            f"between leaf{leaf_id} and spine{spine_id}",
        )

    def fail_link(self, leaf_id: int, spine_id: int, which: int = 0) -> Port:
        """Fail one leaf↔spine link; returns its port so tests can restore it."""
        port = self.link(leaf_id, spine_id, which)
        port.fail()
        return port

    def core_uplink_ports(self, spine_id: int, core_id: int) -> list[Port]:
        """Spine-side ports of the (possibly parallel) links spine↔core."""
        spine = self._switch("spine", spine_id)
        core = self._switch("core", core_id)
        return [port for port in spine.core_uplinks() if port.peer.node is core]

    def core_link(self, spine_id: int, core_id: int, which: int = 0) -> Port:
        """The spine-side port of the ``which``-th parallel spine↔core link."""
        return _member(
            self.core_uplink_ports(spine_id, core_id), which, "link",
            f"between spine{spine_id} and core{core_id}",
        )

    def switch_ports(self, kind: str, switch_id: int) -> list[Port]:
        """Every port of one switch (``kind``: ``"leaf"``, ``"spine"``, ``"core"``).

        For a leaf this includes host downlinks as well as uplinks — a
        blacked-out leaf takes its rack off the network, not just off the
        fabric.
        """
        return list(self._switch(kind, switch_id).ports)

    # -- statistics -------------------------------------------------------------

    def selectors(self) -> Iterator["UplinkSelector"]:
        """Every load-balancing object installed on the fabric's switches."""
        for leaf in self.leaves:
            if leaf.selector is not None:
                yield leaf.selector
        for spine in self.spines:
            if spine.core_selector is not None:
                yield spine.core_selector

    def leaf_uplink_ports(self) -> Iterator[Port]:
        """All leaf-side fabric ports (leaf → spine direction)."""
        for leaf in self.leaves:
            yield from leaf.uplinks

    def spine_core_ports(self) -> Iterator[Port]:
        """All spine-side core-uplink ports, in build order (none on two tiers)."""
        for spine in self.spines:
            yield from spine.core_uplinks()

    def spine_ports(self) -> Iterator[Port]:
        """Every port of every spine: leaf downlinks and, on three tiers, core uplinks."""
        for spine in self.spines:
            yield from spine.ports

    def fabric_ports(self) -> Iterator[Port]:
        """All fabric ports in both directions, at every tier."""
        yield from self.leaf_uplink_ports()
        yield from self.spine_ports()
        for core in self.cores:
            yield from core.ports

    def total_fabric_drops(self) -> int:
        """Packets dropped at fabric queues (congestion) and down links."""
        return sum(port.queue.stats.dropped_packets for port in self.fabric_ports())

    # -- idealized FCT -----------------------------------------------------------

    def ideal_fct(self, src: int, dst: int, size: int, mss: int = 1460) -> int:
        """FCT achievable in an idle network (§5.2.1 normalization baseline).

        Models store-and-forward pipelining: the flow streams at the slowest
        link on the path, plus one segment's serialization at each later hop
        and the propagation delays.
        """
        segments = max(1, -(-size // mss))
        last_segment = min(size, mss)
        stream_time = pipeline = 0
        for hop, (port, overhead) in enumerate(self._ideal_hops(src, dst)):
            rate = port.rate_bps
            # The stream drains at the hop where total wire bytes take longest.
            stream_time = max(
                stream_time, transmission_time(size + segments * overhead, rate)
            )
            if hop:
                pipeline += transmission_time(last_segment + overhead, rate)
            pipeline += port.propagation_delay
        return stream_time + pipeline

    def _ideal_hops(self, src: int, dst: int) -> list[tuple[Port, int]]:
        """(port, per-segment overhead) of each hop an ideal flow crosses.

        Access links carry plain TCP/IP framing, fabric links add the VXLAN
        encapsulation; every hop charges the delay of the port it leaves by.
        """
        src_leaf = self.leaf_of(src)
        dst_leaf = self.leaf_of(dst)
        ports = [(self.hosts[src].nic, HEADER_BYTES)]
        if src_leaf != dst_leaf:
            # Depth by depth, the ports a packet toward dst_leaf could leave
            # by — two hops within a pod, four through a core; each depth is
            # charged at its fastest link.
            last = self.leaves[dst_leaf]
            depth = self.leaves[src_leaf].uplinks
            while depth:
                fastest = max(depth, key=attrgetter("rate_bps"))
                ports.append((fastest, HEADER_BYTES + VXLAN_OVERHEAD))
                switches: list = []
                below: list[Port] = []
                for port in depth:
                    switch = port.peer.node
                    if switch is not last and switch not in switches:
                        switches.append(switch)
                        below += switch.egress_ports(dst_leaf)
                depth = below
        ports.append((self.leaves[dst_leaf].host_port(dst), HEADER_BYTES))
        return ports


__all__ = ["CongestionPlaneError", "Fabric"]
