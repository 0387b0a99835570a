"""Leaf-Spine (2-tier Clos) topology builder.

Builds the fabrics used throughout the evaluation: the 64-server testbed of
Figure 7 (2 leaves × 2 spines, 32×10 Gbps hosts per leaf, 2×40 Gbps parallel
uplinks per leaf-spine pair, 2:1 oversubscription), the 6-leaf × 4-spine
288-port fabric of Figure 16, and arbitrary (leaves, spines, hosts, rates)
combinations for the large-scale sweeps of Figure 15.

A config is part of a spec's description, so this module loads no engine:
the nodes, ports, switches and kernel are imported by the builders, when a
run builds a fabric (DESIGN.md "Import layering").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.params import (
    CongaParams, DEFAULT_CONTROLLER_PERIOD, DEFAULT_PARAMS,
    DEFAULT_PROPAGATION_DELAY, HASH_NEUTRAL_DEFAULT,
)
from repro.units import gbps

if TYPE_CHECKING:
    from repro.sim import Simulator
    from repro.switch.fabric import Fabric
    from repro.switch.spine import SpineSwitch
    from repro.topology.multipod import MultiPodConfig


@dataclass(frozen=True)
class LeafSpineConfig:
    """Parameters of a 2-tier Leaf-Spine fabric.

    ``links_per_pair`` parallel links join each (leaf, spine) pair — the
    testbed uses 2×40 Gbps, which is what makes single-link failures produce
    *partial* asymmetry (Figure 7(b)) instead of disconnection.
    """

    num_leaves: int = 2
    num_spines: int = 2
    hosts_per_leaf: int = 32
    links_per_pair: int = 2
    host_rate_bps: int = field(default_factory=lambda: gbps(10))
    fabric_rate_bps: int = field(default_factory=lambda: gbps(40))
    host_queue_bytes: int | None = 10_000_000
    fabric_queue_bytes: int | None = 10_000_000
    #: DCTCP-style CE marking threshold at all switch queues (None = off).
    ecn_threshold_bytes: int | None = None
    propagation_delay: int = DEFAULT_PROPAGATION_DELAY
    params: CongaParams = DEFAULT_PARAMS
    #: The ``hedera`` scheme's controller period; other schemes ignore it.
    controller_period: int = field(default=DEFAULT_CONTROLLER_PERIOD, metadata=HASH_NEUTRAL_DEFAULT)

    def __post_init__(self) -> None:
        if self.num_leaves < 1 or self.num_spines < 1:
            raise ValueError("need at least one leaf and one spine")
        if self.hosts_per_leaf < 1:
            raise ValueError("need at least one host per leaf")
        if self.links_per_pair < 1:
            raise ValueError("need at least one link per leaf-spine pair")
        if self.controller_period <= 0:
            raise ValueError(f"controller_period must be positive, got {self.controller_period}")
        refuse_non_positive(self, "host_rate_bps", "fabric_rate_bps")

    @property
    def uplinks_per_leaf(self) -> int:
        """Number of uplinks (distinct LBTags) at each leaf."""
        return self.num_spines * self.links_per_pair

    @property
    def leaf_uplink_capacity_bps(self) -> int:
        """Aggregate uplink capacity of one leaf."""
        return self.uplinks_per_leaf * self.fabric_rate_bps

    @property
    def oversubscription(self) -> float:
        """Host capacity over uplink capacity at a leaf (2.0 = "2:1")."""
        return (
            self.hosts_per_leaf * self.host_rate_bps / self.leaf_uplink_capacity_bps
        )


def refuse_non_positive(config, *rates: str) -> None:
    """Refuse what the ports and queues would, before any fabric is built.

    ``None`` keeps meaning unbounded (a queue) or off (ECN marking).
    """
    for name in (*rates, "host_queue_bytes", "fabric_queue_bytes", "ecn_threshold_bytes"):
        value = getattr(config, name)
        if value is not None and value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


#: The paper's hardware testbed (Figure 7(a)): 64 servers, 2:1 oversubscribed.
TESTBED = LeafSpineConfig()


def scaled_testbed(
    hosts_per_leaf: int = 8,
    host_gbps: float = 10.0,
    fabric_gbps: float | None = None,
    oversubscription: float = 2.0,
    **overrides,
) -> LeafSpineConfig:
    """A smaller testbed-shaped fabric for fast simulation runs.

    Keeps the 2-leaf / 2-spine / 2-links-per-pair shape of Figure 7 with
    fewer hosts so packet-level sweeps finish quickly.  Unless
    ``fabric_gbps`` is given explicitly, the fabric link rate is derived to
    preserve the requested leaf ``oversubscription`` ratio (2:1 in the
    testbed), which is what keeps load levels comparable to the paper's
    axis.  Extra keyword arguments override config fields.
    """
    num_spines = overrides.get("num_spines", 2)
    links_per_pair = overrides.get("links_per_pair", 2)
    if fabric_gbps is None:
        uplinks = num_spines * links_per_pair
        fabric_gbps = hosts_per_leaf * host_gbps / (oversubscription * uplinks)
    return LeafSpineConfig(
        hosts_per_leaf=hosts_per_leaf,
        host_rate_bps=gbps(host_gbps),
        fabric_rate_bps=gbps(fabric_gbps),
        **overrides,
    )


def parallel_label(peer: str, which: int) -> str:
    """A spine or core port's label toward ``peer`` over parallel link ``which``.

    Link ``k > 0`` appends ``#k``, so parallel links never share a port name
    (per-port series and ``link-loss:<port name>`` RNG streams are keyed by
    it); link 0 keeps the bare peer name, as on a one-link fabric.
    """
    return f"{peer}#{which}" if which else peer


def wire_pod(
    sim: Simulator,
    fabric: Fabric,
    config: "LeafSpineConfig | MultiPodConfig",
    pod: int,
    spines: list[SpineSwitch],
    num_leaves: int,
) -> None:
    """Append one pod's leaves to ``fabric``: hosts below, ``spines`` above.

    The one pod-wiring loop: the 2-tier fabric is a single pod under
    spines that have no core uplinks.  Leaf ids continue from the leaves
    already built and host ids are ``leaf_id * hosts_per_leaf + i``, so
    tests can address "the k-th server under leaf j" directly.
    """
    from repro.net.node import Host
    from repro.net.port import connect
    from repro.switch.leaf import LeafSwitch
    from repro.switch.spine import LEAF_SALT

    for leaf_id in range(len(fabric.leaves), len(fabric.leaves) + num_leaves):
        leaf = LeafSwitch(sim, leaf_id, fabric, config.params)
        fabric.leaves.append(leaf)
        fabric.leaf_pod.append(pod)
        for i in range(config.hosts_per_leaf):
            host_id = leaf_id * config.hosts_per_leaf + i
            host = Host(
                sim,
                host_id,
                nic_rate_bps=config.host_rate_bps,
                nic_queue_capacity=None,  # window-limited senders
            )
            down = leaf.add_host_port(
                host_id,
                config.host_rate_bps,
                config.host_queue_bytes,
                ecn_threshold=config.ecn_threshold_bytes,
            )
            connect(host.nic, down, config.propagation_delay)
            fabric.register_host(host, leaf_id)
        for spine in spines:
            for which in range(config.links_per_pair):
                up = leaf.add_uplink(
                    spine,
                    config.fabric_rate_bps,
                    config.fabric_queue_bytes,
                    ecn_threshold=config.ecn_threshold_bytes,
                )
                down = spine.add_egress(
                    parallel_label(f"leaf{leaf_id}", which),
                    (leaf_id,),
                    LEAF_SALT,
                    config.fabric_rate_bps,
                    config.fabric_queue_bytes,
                    ecn_threshold=config.ecn_threshold_bytes,
                )
                connect(up, down, config.propagation_delay)


def build_leaf_spine(sim: Simulator, config: LeafSpineConfig = TESTBED) -> Fabric:
    """Construct a Leaf-Spine fabric; call ``fabric.finalize(...)`` after."""
    from repro.switch.fabric import Fabric
    from repro.switch.spine import SpineSwitch

    fabric = Fabric(sim, config)
    fabric.spines = [
        SpineSwitch(sim, spine_id, fabric, config.params)
        for spine_id in range(config.num_spines)
    ]
    wire_pod(sim, fabric, config, 0, fabric.spines, config.num_leaves)
    return fabric


#: Re-export of the shared tier-aware helper (see
#: :mod:`repro.topology.failures`); the leaf-tier draw is bit-identical to
#: the implementation that historically lived here.
from repro.topology.failures import fail_random_links  # noqa: E402

__all__ = [
    "LeafSpineConfig",
    "TESTBED",
    "build_leaf_spine",
    "fail_random_links",
    "parallel_label",
    "scaled_testbed",
]
