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
* pod spines and cores are the 2-tier fabric's
  :class:`~repro.switch.spine.SpineSwitch`, wired differently: a pod spine
  sends its own pod's leaves down as on two tiers and every other leaf up
  its core uplinks; a core sends each leaf down the parallel links toward
  its pod.  ECMP at both, under per-tier hash salts;
* every fabric link (leaf→spine, spine→core, core→spine, spine→leaf) has
  a DRE that — whenever the fabric's congestion plane is on — CE-marks
  packets, so the leaf-to-leaf feedback loop sees the *maximum* congestion
  along the whole 4-hop inter-pod path — the natural generalization the
  paper sketches.

This module is the configuration and the builder only; the fabric it
returns is the same :class:`~repro.switch.fabric.Fabric` with a non-empty
core tier.  As for the 2-tier config, the builder imports the engine, so
a spec carrying a :class:`MultiPodConfig` describes a point without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.params import (
    CongaParams, DEFAULT_CONTROLLER_PERIOD, DEFAULT_PARAMS,
    DEFAULT_PROPAGATION_DELAY, HASH_NEUTRAL_DEFAULT,
)
from repro.topology.leafspine import parallel_label, refuse_non_positive, wire_pod
from repro.units import gbps

if TYPE_CHECKING:
    from repro.sim import Simulator
    from repro.switch.fabric import Fabric


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
    #: The ``hedera`` scheme's controller period; other schemes ignore it.
    controller_period: int = field(default=DEFAULT_CONTROLLER_PERIOD, metadata=HASH_NEUTRAL_DEFAULT)

    def __post_init__(self) -> None:
        if min(self.num_pods, self.leaves_per_pod, self.spines_per_pod) < 1:
            raise ValueError("need at least one pod, leaf, and spine")
        if self.hosts_per_leaf < 1 or self.num_cores < 1:
            raise ValueError("need at least one host per leaf and one core")
        if self.controller_period <= 0:
            raise ValueError(f"controller_period must be positive, got {self.controller_period}")
        refuse_non_positive(self, "host_rate_bps", "fabric_rate_bps", "core_rate_bps")


def build_multipod(sim: Simulator, config: MultiPodConfig | None = None) -> Fabric:
    """Construct a multi-pod fabric; call ``fabric.finalize(...)`` after.

    Leaf ids are global and pod-major; host ids are leaf-major as in the
    2-tier builder.  Every spine connects to every core with
    ``links_per_pair`` parallel links, wired before the pod's leaves so a
    pod spine's core uplinks precede its leaf downlinks.
    """
    from repro.net.port import connect
    from repro.switch.fabric import Fabric
    from repro.switch.spine import CORE_SALT, POD_SALT, SpineSwitch

    if config is None:
        config = MultiPodConfig()
    fabric = Fabric(sim, config)
    fabric.cores = [
        SpineSwitch(sim, core_id, fabric, config.params, name=f"core{core_id}")
        for core_id in range(config.num_cores)
    ]
    per_pod = config.leaves_per_pod
    all_leaves = range(config.num_pods * per_pod)
    for pod in range(config.num_pods):
        local = all_leaves[pod * per_pod : (pod + 1) * per_pod]
        remote = [leaf_id for leaf_id in all_leaves if leaf_id not in local]
        spines = [
            SpineSwitch(
                sim, spine_id, fabric, config.params, name=f"pod{pod}-spine{spine_id}"
            )
            for spine_id in range(
                pod * config.spines_per_pod, (pod + 1) * config.spines_per_pod
            )
        ]
        fabric.spines.extend(spines)
        for spine in spines:
            for core in fabric.cores:
                for which in range(config.links_per_pair):
                    up = spine.add_egress(
                        parallel_label(core.name, which), remote, CORE_SALT,
                        config.core_rate_bps, config.fabric_queue_bytes,
                        ecn_threshold=config.ecn_threshold_bytes, via=core,
                    )
                    down = core.add_egress(
                        parallel_label(spine.name, which), local, POD_SALT,
                        config.core_rate_bps, config.fabric_queue_bytes,
                        ecn_threshold=config.ecn_threshold_bytes,
                    )
                    connect(up, down, config.propagation_delay)
        wire_pod(sim, fabric, config, pod, spines, per_pod)
    return fabric


__all__ = ["MultiPodConfig", "build_multipod"]
