"""Multi-pod (3-tier) Clos topologies — the paper's §7 extension.

The largest datacenters organize the network as multiple *pods*, each a
2-tier Leaf-Spine Clos, joined by a core tier.  §7: CONGA "is beneficial
even in these cases since it balances the traffic within each pod
optimally, which also reduces congestion for inter-pod traffic.  Moreover,
even for inter-pod traffic, CONGA makes better decisions than ECMP at the
first hop."

The model here follows that exactly:

* leaves are unchanged — a leaf's uplinks go to its pod's spines, and its
  CONGA machinery (LBTags, tables, feedback) spans *all* destination
  leaves, intra- or inter-pod;
* pod spines (:class:`PodSpineSwitch`) route intra-pod traffic down as in
  the 2-tier fabric and hash inter-pod traffic across their core uplinks;
* core switches (:class:`CoreSwitch`) route on the destination pod with
  ECMP over the parallel links toward it;
* every fabric link (leaf→spine, spine→core, core→spine, spine→leaf) has
  a DRE that — whenever the fabric's congestion plane is on — CE-marks
  packets, so the leaf-to-leaf feedback loop sees the *maximum* congestion
  along the whole 4-hop inter-pod path — the natural generalization the
  paper sketches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dre import DRE
from repro.core.params import CongaParams, DEFAULT_PARAMS
from repro.net import port as _port_mod
from repro.net.hashing import stable_hash
from repro.net.node import Host, Node
from repro.net.packet import HEADER_BYTES, Packet
from repro.net.port import DEFAULT_PROPAGATION_DELAY, Port, connect, residual_capacity
from repro.overlay.vxlan import VXLAN_OVERHEAD
from repro.sim import Simulator
from repro.switch.fabric import Fabric
from repro.switch.leaf import LeafSwitch
from repro.switch.spine import SpineSwitch
from repro.units import gbps


@dataclass(frozen=True)
class MultiPodConfig:
    """Parameters of a pods-of-Leaf-Spine fabric with a core tier."""

    num_pods: int = 2
    leaves_per_pod: int = 2
    spines_per_pod: int = 2
    hosts_per_leaf: int = 4
    num_cores: int = 2
    links_per_pair: int = 1
    host_rate_bps: int = field(default_factory=lambda: gbps(10))
    fabric_rate_bps: int = field(default_factory=lambda: gbps(10))
    core_rate_bps: int = field(default_factory=lambda: gbps(10))
    host_queue_bytes: int | None = 10_000_000
    fabric_queue_bytes: int | None = 10_000_000
    ecn_threshold_bytes: int | None = None
    propagation_delay: int = DEFAULT_PROPAGATION_DELAY
    params: CongaParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        if min(self.num_pods, self.leaves_per_pod, self.spines_per_pod) < 1:
            raise ValueError("need at least one pod, leaf, and spine")
        if self.hosts_per_leaf < 1 or self.num_cores < 1:
            raise ValueError("need at least one host per leaf and one core")


def _add_dre_port(
    node: Node, name: str, rate_bps: int, queue_capacity: int | None,
    ecn_threshold: int | None,
) -> Port:
    """Add a core-tier port with its DRE, the 2-tier switches' idiom.

    The estimator hangs off the port (``LinkDegrade`` retargets it, the
    congestion plane hooks it in); new wiring bumps the topology epoch.
    """
    port = node.add_port(
        rate_bps, queue_capacity, name=name, ecn_threshold=ecn_threshold
    )
    dre = DRE(node.sim, rate_bps, node.params, name=port.name)
    node.dres.append(dre)
    port.dre = dre
    _port_mod._bump_topology_epoch()
    return port


class CoreSwitch(Node):
    """A core switch joining pods; routes on the destination pod."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        fabric: "MultiPodFabric",
        params: CongaParams = DEFAULT_PARAMS,
    ) -> None:
        super().__init__(sim, f"core{core_id}")
        self.core_id = core_id
        self.fabric = fabric
        self.params = params
        self.dres: list[DRE] = []
        self._pod_ports: dict[int, list[int]] = {}
        self.dropped_unroutable = 0
        self._leaf_pod = fabric.leaf_pod
        # Routing cache, the contract of SpineSwitch's: pod -> up port
        # indices, valid while the global link up/down epoch is unchanged.
        # Callers must not mutate the returned lists.
        self._route_cache: dict[int, list[int]] = {}
        self._route_epoch = -1

    def add_spine_port(
        self,
        pod: int,
        rate_bps: int,
        queue_capacity: int | None,
        ecn_threshold: int | None = None,
    ) -> Port:
        """Create a port toward a spine in ``pod``, with its DRE."""
        port = _add_dre_port(
            self, f"{self.name}->pod{pod}", rate_bps, queue_capacity, ecn_threshold
        )
        self._pod_ports.setdefault(pod, []).append(port.index)
        return port

    def ports_to_pod(self, pod: int) -> list[int]:
        """Indices of *up* ports toward ``pod``.

        Cached per pod until a link anywhere fails or is restored (or a
        port is added here); do not mutate the returned list.
        """
        if self._route_epoch != _port_mod._topology_epoch:
            self._route_cache.clear()
            self._route_epoch = _port_mod._topology_epoch
        cached = self._route_cache.get(pod)
        if cached is None:
            cached = [i for i in self._pod_ports.get(pod, []) if self.ports[i].up]
            self._route_cache[pod] = cached
        return cached

    def pod_health(self, pod: int) -> float:
        """Residual capacity toward ``pod`` as a fraction of nominal.

        Down, black-holed, and degraded downlinks all reduce it — the
        core's contribution to a path's liveness weight under ``caft``.
        """
        return residual_capacity(
            self.ports[index] for index in self._pod_ports.get(pod, ())
        )

    def receive(self, packet: Packet, port: Port) -> None:
        header = packet.overlay
        if header is None:
            self.dropped_unroutable += 1
            return
        pod = self._leaf_pod[header.dst_leaf]
        candidates = (
            self._route_cache.get(pod)
            if self._route_epoch == _port_mod._topology_epoch
            else None
        )
        if candidates is None:
            candidates = self.ports_to_pod(pod)
        if not candidates:
            self.dropped_unroutable += 1
            return
        index = stable_hash(
            packet._five_tuple or packet.five_tuple, 7_000_003 + self.core_id
        )
        self.ports[candidates[index % len(candidates)]].send(packet)


class PodSpineSwitch(SpineSwitch):
    """A pod spine: 2-tier behaviour plus core uplinks for inter-pod traffic."""

    def __init__(
        self,
        sim: Simulator,
        spine_id: int,
        pod: int,
        fabric: "MultiPodFabric",
        params: CongaParams = DEFAULT_PARAMS,
    ) -> None:
        super().__init__(sim, spine_id, params, name=f"pod{pod}-spine{spine_id}")
        self.pod = pod
        self.fabric = fabric
        self._leaf_pod = fabric.leaf_pod
        self._core_ports: list[int] = []
        self._core_of: dict[int, CoreSwitch] = {}
        self._core_route_cache: list[int] | None = None
        self._core_route_epoch = -1
        #: The inter-pod flowlet choice a scheme installed (caft's
        #: ``repro.lb.caft.CaftCoreSelector``); None keeps the paper's blind
        #: first-hop hashing at this tier, as under ecmp / conga.
        self.core_selector = None
        self._fault_aware = False
        self._choose_core_port = None

    def add_core_port(
        self,
        core: CoreSwitch,
        rate_bps: int,
        queue_capacity: int | None,
        ecn_threshold: int | None = None,
    ) -> Port:
        """Create an uplink toward ``core``, with its DRE."""
        port = _add_dre_port(
            self, f"{self.name}->{core.name}", rate_bps, queue_capacity, ecn_threshold
        )
        self._core_ports.append(port.index)
        self._core_of[port.index] = core
        return port

    def up_core_ports(self) -> list[int]:
        """Indices of up core-facing ports (cached per topology epoch)."""
        if self._core_route_epoch != _port_mod._topology_epoch:
            self._core_route_cache = None
            self._core_route_epoch = _port_mod._topology_epoch
        cached = self._core_route_cache
        if cached is None:
            cached = [i for i in self._core_ports if self.ports[i].up]
            self._core_route_cache = cached
        return cached

    def core_uplink_ports(self, core_id: int) -> list[Port]:
        """This spine's ports toward core ``core_id``, in build order."""
        return [
            self.ports[index]
            for index in self._core_ports
            if self._core_of[index].core_id == core_id
        ]

    def core_uplinks(self) -> list[Port]:
        """All core-facing ports of this spine, in build order."""
        return [self.ports[index] for index in self._core_ports]

    def can_reach(self, leaf_id: int) -> bool:
        """Intra-pod: direct downlink; inter-pod: via any up core link."""
        if self.fabric.pod_of_leaf(leaf_id) == self.pod:
            return super().can_reach(leaf_id)
        return bool(self.up_core_ports())

    def path_health(self, leaf_id: int) -> float:
        """Residual capacity toward ``leaf_id`` across this spine's paths.

        Intra-pod this is the 2-tier downlink health; inter-pod each core
        uplink contributes its own residual fraction *times* the core's
        health toward the destination pod, so a spine→core black hole, a
        dead core switch, or a browned-out core→pod link all shrink it.
        """
        pod = self.fabric.pod_of_leaf(leaf_id)
        if pod == self.pod:
            return super().path_health(leaf_id)
        nominal = 0
        effective = 0.0
        for index in self._core_ports:
            rate = self.ports[index].nominal_rate_bps
            nominal += rate
            effective += self.core_path_health(index, pod) * rate
        return effective / nominal if nominal else 0.0

    def core_path_health(self, index: int, pod: int) -> float:
        """Residual capacity toward ``pod`` through core uplink ``index``."""
        return (
            self.ports[index].residual_fraction()
            * self._core_of[index].pod_health(pod)
        )

    def install_core_selector(self, selector) -> None:
        """Route inter-pod packets through ``selector.choose_core_port``."""
        self.core_selector = selector
        self._choose_core_port = selector.choose_core_port
        self._fault_aware = True

    def receive(self, packet: Packet, port: Port) -> None:
        header = packet.overlay
        if header is None:
            self.dropped_unroutable += 1
            return
        if self._leaf_pod[header.dst_leaf] == self.pod:
            super().receive(packet, port)
            return
        candidates = self.up_core_ports()
        if not candidates:
            self.dropped_unroutable += 1
            return
        if self._fault_aware:
            choice = self._choose_core_port(packet, header.dst_leaf, candidates)
            self.ports[choice].send(packet)
            return
        index = stable_hash(
            packet._five_tuple or packet.five_tuple, 3_000_017 + self.spine_id
        )
        self.ports[candidates[index % len(candidates)]].send(packet)


class MultiPodFabric(Fabric):
    """A Fabric with a core tier and a leaf→pod directory."""

    def __init__(self, sim: Simulator, config: MultiPodConfig) -> None:
        super().__init__(sim)
        self.config = config
        self.cores: list[CoreSwitch] = []
        #: Leaf id -> pod, read per packet by the core and pod-spine switches
        #: (the tier-3 counterpart of ``host_leaf``).
        self.leaf_pod: list[int] = [
            self.pod_of_leaf(leaf_id)
            for leaf_id in range(config.num_pods * config.leaves_per_pod)
        ]

    def pod_of_leaf(self, leaf_id: int) -> int:
        """The pod housing ``leaf_id``."""
        return leaf_id // self.config.leaves_per_pod

    def pod_leaves(self, pod: int) -> list[LeafSwitch]:
        """Leaves of ``pod``."""
        per = self.config.leaves_per_pod
        return self.leaves[pod * per : (pod + 1) * per]

    def core_ports(self):
        """All core-switch egress ports."""
        for core in self.cores:
            yield from core.ports

    def spine_core_ports(self):
        """All spine-side core-uplink ports, in build order."""
        for spine in self.spines:
            yield from spine.core_uplinks()

    def fabric_ports(self):
        yield from super().fabric_ports()
        yield from self.core_ports()

    def selectors(self):
        yield from super().selectors()
        for spine in self.spines:
            if spine.core_selector is not None:
                yield spine.core_selector

    # -- failure injection (core tier) ----------------------------------------

    def core_uplink_ports(self, spine_id: int, core_id: int) -> list[Port]:
        """Spine-side ports of the (possibly parallel) links spine↔core."""
        if not 0 <= spine_id < len(self.spines):
            raise ValueError(f"no spine {spine_id} in this fabric")
        if not 0 <= core_id < len(self.cores):
            raise ValueError(f"no core {core_id} in this fabric")
        return self.spines[spine_id].core_uplink_ports(core_id)

    def core_link(self, spine_id: int, core_id: int, which: int = 0) -> Port:
        """The spine-side port of the ``which``-th parallel spine↔core link."""
        ports = self.core_uplink_ports(spine_id, core_id)
        if which >= len(ports):
            raise ValueError(
                f"spine{spine_id}<->core{core_id} has {len(ports)} links, "
                f"no link {which}"
            )
        return ports[which]

    def fail_core_link(self, spine_id: int, core_id: int, which: int = 0) -> Port:
        """Fail one spine↔core link; returns its port so tests can restore it."""
        port = self.core_link(spine_id, core_id, which)
        port.fail()
        return port

    def restore_core_link(self, spine_id: int, core_id: int, which: int = 0) -> Port:
        """Restore one spine↔core link; returns its (spine-side) port."""
        port = self.core_link(spine_id, core_id, which)
        port.restore()
        return port

    def switch_ports(self, kind: str, switch_id: int) -> list[Port]:
        """Every port of one switch; adds ``"core"`` to the 2-tier kinds."""
        if kind == "core":
            if not 0 <= switch_id < len(self.cores):
                raise ValueError(f"no core {switch_id} in this fabric")
            return list(self.cores[switch_id].ports)
        return super().switch_ports(kind, switch_id)

    def _ideal_hops(self, src: int, dst: int) -> list[tuple[int, int, int]]:
        src_leaf = self.leaf_of(src)
        dst_leaf = self.leaf_of(dst)
        if self.pod_of_leaf(src_leaf) == self.pod_of_leaf(dst_leaf):
            return super()._ideal_hops(src, dst)
        # Inter-pod: host -> leaf -> spine -> core -> spine -> leaf -> host.
        config = self.config
        delay = config.propagation_delay
        fabric_overhead = HEADER_BYTES + VXLAN_OVERHEAD
        return [
            (self.hosts[src].nic.rate_bps, HEADER_BYTES, delay),
            (config.fabric_rate_bps, fabric_overhead, delay),
            (config.core_rate_bps, fabric_overhead, delay),
            (config.core_rate_bps, fabric_overhead, delay),
            (config.fabric_rate_bps, fabric_overhead, delay),
            (self.leaves[dst_leaf].host_port(dst).rate_bps, HEADER_BYTES, delay),
        ]


def build_multipod(sim: Simulator, config: MultiPodConfig | None = None) -> MultiPodFabric:
    """Construct a multi-pod fabric; call ``fabric.finalize(...)`` after.

    Leaf ids are global and pod-major; host ids are leaf-major as in the
    2-tier builder.  Every spine connects to every core with
    ``links_per_pair`` parallel links.
    """
    if config is None:
        config = MultiPodConfig()
    fabric = MultiPodFabric(sim, config)
    fabric.cores = [
        CoreSwitch(sim, core_id, fabric, config.params)
        for core_id in range(config.num_cores)
    ]
    leaf_id = 0
    for pod in range(config.num_pods):
        spines = [
            PodSpineSwitch(
                sim, pod * config.spines_per_pod + s, pod, fabric, config.params
            )
            for s in range(config.spines_per_pod)
        ]
        fabric.spines.extend(spines)
        for spine in spines:
            for core in fabric.cores:
                for _ in range(config.links_per_pair):
                    up = spine.add_core_port(
                        core, config.core_rate_bps, config.fabric_queue_bytes,
                        ecn_threshold=config.ecn_threshold_bytes,
                    )
                    down = core.add_spine_port(
                        pod, config.core_rate_bps, config.fabric_queue_bytes,
                        ecn_threshold=config.ecn_threshold_bytes,
                    )
                    connect(up, down, config.propagation_delay)
        for _ in range(config.leaves_per_pod):
            leaf = LeafSwitch(sim, leaf_id, fabric, config.params)
            fabric.leaves.append(leaf)
            for i in range(config.hosts_per_leaf):
                host_id = leaf_id * config.hosts_per_leaf + i
                host = Host(sim, host_id, nic_rate_bps=config.host_rate_bps)
                down = leaf.add_host_port(
                    host_id, config.host_rate_bps, config.host_queue_bytes,
                    ecn_threshold=config.ecn_threshold_bytes,
                )
                connect(host.nic, down, config.propagation_delay)
                fabric.register_host(host, leaf_id)
            for spine in spines:
                for _ in range(config.links_per_pair):
                    up = leaf.add_uplink(
                        spine, config.fabric_rate_bps, config.fabric_queue_bytes,
                        ecn_threshold=config.ecn_threshold_bytes,
                    )
                    down = spine.add_leaf_port(
                        leaf_id, config.fabric_rate_bps, config.fabric_queue_bytes,
                        ecn_threshold=config.ecn_threshold_bytes,
                    )
                    connect(up, down, config.propagation_delay)
            leaf_id += 1
    return fabric


__all__ = [
    "CoreSwitch",
    "MultiPodConfig",
    "MultiPodFabric",
    "PodSpineSwitch",
    "build_multipod",
]
