"""The one forwarding switch above the leaves.

Spines are deliberately simple in CONGA (§3, Figure 6): they forward on the
overlay header's destination leaf, pick among parallel links toward it with
standard ECMP hashing (footnote 3), and run a DRE per egress link that
updates the packet's CE field to the maximum congestion seen so far (§3.3
step 2).  All CONGA decision state lives at the leaves.

§7's multi-pod extension adds a tier of that same switch, so a 2-tier
spine, a pod spine and a core are all :class:`SpineSwitch` instances that
differ only in what the topology builder wired to them: which destination
leaves each egress port serves, under which hash salt, and — for a port
that climbs to another switch — whose health weights it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core.dre import DRE
from repro.core.params import CongaParams, DEFAULT_PARAMS
from repro.net import port as _port_mod
from repro.net.hashing import stable_hash
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.port import Port

if TYPE_CHECKING:
    from repro.sim import Simulator
    from repro.switch.fabric import Fabric

#: ECMP hash salts, one per kind of hop; a switch adds its own id so no two
#: switches correlate their picks.
LEAF_SALT = 1_000_003  # toward a leaf
CORE_SALT = 3_000_017  # pod spine toward a core
POD_SALT = 7_000_003  # core toward a pod

_NO_ROUTE: tuple[int, tuple[int, ...]] = (0, ())


def add_fabric_port(
    node: Node, name: str, rate_bps: int, queue_capacity: int | None,
    ecn_threshold: int | None,
) -> Port:
    """Add a fabric port to ``node`` with the DRE that measures it (§3.2).

    The estimator hangs off the port: ``Fabric.require_congestion_plane``
    hooks it in, rate changes (``Port.set_rate``) retarget it either way.
    New wiring changes reachability fabric-wide (leaf candidate caches
    consult the spines via ``can_reach``), so bump the global epoch.
    """
    port = node.add_port(
        rate_bps, queue_capacity, name=name, ecn_threshold=ecn_threshold
    )
    port.dre = DRE(node.sim, rate_bps, node.params, name=name)
    _port_mod._bump_topology_epoch()
    return port


class SpineSwitch(Node):
    """A 2-tier spine, a pod spine or a core: what was wired decides which."""

    def __init__(
        self,
        sim: "Simulator",
        spine_id: int,
        fabric: "Fabric",
        params: CongaParams = DEFAULT_PARAMS,
        name: str | None = None,
    ) -> None:
        super().__init__(sim, name or f"spine{spine_id}")
        self.spine_id = spine_id
        self.fabric = fabric
        self.params = params
        self.dropped_unroutable = 0
        # Destination leaf -> (hash salt, indices of every port toward it),
        # as wired.  One route's ports all go down or all climb.
        self._routes: dict[int, tuple[int, list[int]]] = {}
        # Port index -> the switch it climbs to (a pod spine's core uplinks).
        self._via: dict[int, SpineSwitch] = {}
        # Routing cache: destination leaf -> (hash salt, *up* port indices,
        # the core selector's choice function if one decides this hop),
        # valid while the global link up/down epoch is unchanged.  Callers
        # must not mutate the lists.
        self._route_cache: dict[int, tuple[int, list[int], object]] = {}
        self._route_epoch = -1
        #: The flowlet choice a scheme installed for core-bound packets
        #: (caft's ``repro.lb.caft.CaftCoreSelector``); None keeps the
        #: paper's blind hashing at this hop, as under ecmp / conga.
        self.core_selector = None

    # -- wiring ---------------------------------------------------------------

    def add_egress(
        self,
        label: str,
        leaves: Iterable[int],
        salt: int,
        rate_bps: int,
        queue_capacity: int | None,
        ecn_threshold: int | None = None,
        via: "SpineSwitch | None" = None,
    ) -> Port:
        """Create port ``{name}->{label}`` carrying traffic for ``leaves``.

        ``salt`` is the hop kind's hash salt; ``via`` is the switch an
        upward port climbs to (a core), ``None`` for a port going down.
        """
        port = add_fabric_port(
            self, f"{self.name}->{label}", rate_bps, queue_capacity, ecn_threshold
        )
        if via is not None:
            self._via[port.index] = via
        for leaf_id in leaves:
            route = self._routes.setdefault(leaf_id, (salt + self.spine_id, []))
            route[1].append(port.index)
        return port

    def install_core_selector(self, selector) -> None:
        """Route core-bound packets through ``selector.choose_core_port``."""
        self.core_selector = selector
        self._route_epoch = -1  # cached routes hold the previous choice

    # -- routes ---------------------------------------------------------------

    def _up_route(self, leaf_id: int) -> tuple[int, list[int], object]:
        """The cached (salt, up port indices, core choice) toward ``leaf_id``."""
        if self._route_epoch != _port_mod._topology_epoch:
            self._route_cache.clear()
            self._route_epoch = _port_mod._topology_epoch
        cached = self._route_cache.get(leaf_id)
        if cached is None:
            salt, indices = self._routes.get(leaf_id, _NO_ROUTE)
            choose = None
            if self.core_selector is not None and indices and indices[0] in self._via:
                choose = self.core_selector.choose_core_port
            cached = (salt, [i for i in indices if self.ports[i].up], choose)
            self._route_cache[leaf_id] = cached
        return cached

    def ports_to_leaf(self, leaf_id: int) -> list[int]:
        """Indices of *up* ports toward ``leaf_id``, directly or through a core.

        The result is cached per leaf until a link anywhere fails or is
        restored (or a port is added here); do not mutate the returned list.
        """
        return self._up_route(leaf_id)[1]

    def can_reach(self, leaf_id: int) -> bool:
        """Whether at least one link toward ``leaf_id`` is up."""
        return bool(self._up_route(leaf_id)[1])

    def egress_ports(self, leaf_id: int) -> list[Port]:
        """Every port toward ``leaf_id``, up or not, in build order."""
        return [self.ports[i] for i in self._routes.get(leaf_id, _NO_ROUTE)[1]]

    def core_uplinks(self) -> list[Port]:
        """The ports that climb to a core, in build order (none on two tiers)."""
        return [self.ports[index] for index in self._via]

    # -- health ---------------------------------------------------------------

    def path_health(self, leaf_id: int) -> float:
        """Residual forwarding capacity toward ``leaf_id`` (fraction of nominal).

        1.0 when every parallel link is healthy, 0.0 when the leaf is
        unreachable.  Fault-aware selectors (the ``caft`` scheme) multiply
        this into the CONGA path metric so asymmetry their DREs cannot see
        — cut cables, black holes, brownouts past this hop — still repels
        flowlets.  An upward port counts its own residual *times* the
        health of the core it climbs to, so a spine→core black hole, a dead
        core or a browned-out core→pod link all shrink it.
        """
        nominal = 0
        effective = 0.0
        for index in self._routes.get(leaf_id, _NO_ROUTE)[1]:
            rate = self.ports[index].nominal_rate_bps
            nominal += rate
            effective += self.port_health(index, leaf_id) * rate
        return effective / nominal if nominal else 0.0

    def port_health(self, index: int, leaf_id: int) -> float:
        """Residual capacity toward ``leaf_id`` through egress port ``index``."""
        residual = self.ports[index].residual_fraction()
        via = self._via.get(index)
        return residual if via is None else residual * via.path_health(leaf_id)

    # -- forwarding -----------------------------------------------------------

    def receive(self, packet: Packet, port: Port) -> None:
        """Forward one packet: this switch's single per-hop frame, at any tier."""
        header = packet.overlay
        if header is None:
            # Spines only ever see encapsulated fabric traffic.
            self.dropped_unroutable += 1
            return
        dst_leaf = header.dst_leaf
        route = (
            self._route_cache.get(dst_leaf)
            if self._route_epoch == _port_mod._topology_epoch
            else None
        )
        if route is None:
            route = self._up_route(dst_leaf)
        salt, candidates, choose = route
        if not candidates:
            self.dropped_unroutable += 1
            return
        if choose is not None:
            choice = choose(packet, dst_leaf, candidates)
        elif len(candidates) == 1:
            choice = candidates[0]
        else:
            index = stable_hash(packet._five_tuple or packet.five_tuple, salt)
            choice = candidates[index % len(candidates)]
        self.ports[choice].send(packet)


__all__ = ["SpineSwitch"]
