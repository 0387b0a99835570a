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


class Fabric:
    """All nodes of one simulated datacenter fabric."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Whether fabric ports run their DRE (and so stamp CE) and the TEPs
        #: run the feedback loop.  Off until a reader of that state appears;
        #: switch it on with :meth:`require_congestion_plane`, never directly.
        self.congestion_plane = False
        self.hosts: dict[int, Host] = {}
        self.leaves: list["LeafSwitch"] = []
        self.spines: list["SpineSwitch"] = []
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
        weighting, a ``dre``/``table`` tracer, a ``TimelineCollector``,
        ``LeafSwitch.enable_explicit_feedback``.  Idempotent.  Call it once
        the fabric is wired — it hooks the ports that exist — and before
        traffic: once a fabric port has transmitted unmeasured, a DRE
        started now would report a half-warm register as if it were the
        link's load, so that raises :class:`CongestionPlaneError` instead.
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

    def uplink_ports(self, leaf_id: int, spine_id: int) -> list[Port]:
        """The leaf-side ports of all (possibly parallel) links leaf↔spine."""
        leaf = self.leaves[leaf_id]
        return [
            port
            for port, spine in zip(leaf.uplinks, leaf.uplink_spine)
            if spine.spine_id == spine_id
        ]

    def link(self, leaf_id: int, spine_id: int, which: int = 0) -> Port:
        """The leaf-side port of the ``which``-th parallel leaf↔spine link."""
        ports = self.uplink_ports(leaf_id, spine_id)
        if which >= len(ports):
            raise ValueError(
                f"leaf{leaf_id}<->spine{spine_id} has {len(ports)} links, "
                f"no link {which}"
            )
        return ports[which]

    def fail_link(self, leaf_id: int, spine_id: int, which: int = 0) -> Port:
        """Fail one leaf↔spine link; returns its port so tests can restore it."""
        port = self.link(leaf_id, spine_id, which)
        port.fail()
        return port

    def restore_link(self, leaf_id: int, spine_id: int, which: int = 0) -> Port:
        """Restore one leaf↔spine link; returns its (leaf-side) port."""
        port = self.link(leaf_id, spine_id, which)
        port.restore()
        return port

    def core_link(self, spine_id: int, core_id: int, which: int = 0) -> Port:
        """A spine↔core link's port; MultiPodFabric overrides, 2 tiers have none."""
        raise ValueError(
            "core-tier fault targets need a multi-pod fabric "
            "(this fabric has no spine-core links)"
        )

    def switch_ports(self, kind: str, switch_id: int) -> list[Port]:
        """Every port of one switch (``kind`` is ``"leaf"`` or ``"spine"``).

        For a leaf this includes host downlinks as well as uplinks — a
        blacked-out leaf takes its rack off the network, not just off the
        fabric.
        """
        if kind == "leaf":
            return list(self.leaves[switch_id].ports)
        if kind == "spine":
            return list(self.spines[switch_id].ports)
        if kind == "core":
            # MultiPodFabric overrides; a 2-tier fabric has no core tier.
            raise ValueError("kind 'core' needs a multi-pod fabric (no core tier here)")
        raise ValueError(f"kind must be 'leaf', 'spine', or 'core', got {kind!r}")

    # -- statistics -------------------------------------------------------------

    def selectors(self) -> Iterator["UplinkSelector"]:
        """Every load-balancing object installed on the fabric's switches."""
        for leaf in self.leaves:
            if leaf.selector is not None:
                yield leaf.selector

    def leaf_uplink_ports(self) -> Iterator[Port]:
        """All leaf-side fabric ports (leaf → spine direction)."""
        for leaf in self.leaves:
            yield from leaf.uplinks

    def spine_core_ports(self) -> Iterator[Port]:
        """All spine-side core-uplink ports: none on a 2-tier fabric."""
        return iter(())

    def spine_ports(self) -> Iterator[Port]:
        """All spine-side fabric ports (spine → leaf direction)."""
        for spine in self.spines:
            yield from spine.ports

    def fabric_ports(self) -> Iterator[Port]:
        """All fabric ports in both directions."""
        yield from self.leaf_uplink_ports()
        yield from self.spine_ports()

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
        hops = self._ideal_hops(src, dst)
        segments = max(1, -(-size // mss))
        # The stream drains at the hop where total wire bytes take longest.
        stream_time = max(
            transmission_time(size + segments * overhead, rate)
            for rate, overhead, _ in hops
        )
        last_segment = min(size, mss)
        pipeline = sum(
            transmission_time(last_segment + overhead, rate)
            for rate, overhead, _ in hops[1:]
        )
        return stream_time + pipeline + sum(delay for _, _, delay in hops)

    def _ideal_hops(self, src: int, dst: int) -> list[tuple[int, int, int]]:
        """(rate, per-segment overhead, propagation delay) of each hop.

        Access links carry plain TCP/IP framing, fabric links add the VXLAN
        encapsulation; every hop charges the delay of the port it leaves by.
        """
        src_leaf = self.leaf_of(src)
        dst_leaf = self.leaf_of(dst)
        ports = [(self.hosts[src].nic, HEADER_BYTES)]
        if src_leaf != dst_leaf:
            fabric_overhead = HEADER_BYTES + VXLAN_OVERHEAD
            uplink = max(self.leaves[src_leaf].uplinks, key=attrgetter("rate_bps"))
            ports.append((uplink, fabric_overhead))
            downlink = (
                max(self.spines[0].ports, key=attrgetter("rate_bps"))
                if self.spines
                else uplink
            )
            ports.append((downlink, fabric_overhead))
        ports.append((self.leaves[dst_leaf].host_port(dst), HEADER_BYTES))
        return [
            (port.rate_bps, overhead, port.propagation_delay)
            for port, overhead in ports
        ]


__all__ = ["CongestionPlaneError", "Fabric"]
