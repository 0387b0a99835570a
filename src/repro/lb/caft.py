"""CAFT: congestion-aware fault tolerance for 3-tier Clos fabrics.

CONGA's feedback loop spans leaf-to-leaf paths, so in a multi-pod fabric a
failed or black-holed spine↔core link creates asymmetry the leaves cannot
attribute to a path: forward packets through the dead link never reach the
destination leaf, its Congestion-From-Leaf cells keep round-robining the
*pre-fault* metric back, and the source's Congestion-To-Leaf table keeps
refreshing with stale-but-low values — CONGA keeps optimistically sending
flowlets into the hole.  CAFT (arXiv:2010.00720) argues congestion-aware
balancing needs an explicit fault-awareness signal in three tiers.

:class:`CaftSelector` implements that as a CONGA extension:

* the §3.5 rule ``min over uplinks of max(local, remote)`` is weighted by
  each path's *residual capacity* — the product of the uplink's own
  liveness/loss/rate residual and the downstream switch's
  :meth:`~repro.switch.spine.SpineSwitch.path_health` toward the
  destination leaf (which, at a pod spine, folds in core-uplink and
  core-switch health).  This models CAFT's fault-notification control
  plane: leaves route around faults their DREs cannot see;
* when feedback for a path goes stale (the Congestion-To-Leaf cell's age
  exceeds ``2 × metric_age_time``), the decayed-to-optimistic metric is no
  longer trusted: the path is penalized below every fresh path, except for
  one *accelerated re-probe* flowlet per probe interval so recovery is
  still detected (§3.3's re-probing, sped up and made explicit);
* pod spines reweight their core uplinks the same way instead of blind
  ECMP hashing (:class:`CaftCoreSelector`, via :func:`enable_fault_awareness`).

On a healthy fabric every weight is 1.0 and no cell is stale, so the
decision rule reduces exactly to CONGA's (same argmin set, same
prefer-previous tie rule); only the tie-break RNG stream differs
(``caft-{leaf}`` instead of ``conga-{leaf}``).

Whenever the weighting *overrides* the congestion argmin — the chosen
uplink's raw CONGA metric is not minimal — the decision increments the
``lb.caft.fault_reroutes`` counter and emits a fault-category
:class:`~repro.obs.events.FaultRerouted` trace event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.flowlet import FlowletTable
from repro.core.params import CongaParams
from repro.lb.conga import CongaSelector, least_congested
from repro.net.packet import Packet
from repro.obs.events import FaultRerouted

if TYPE_CHECKING:
    from repro.net.node import Node
    from repro.switch.fabric import Fabric
    from repro.switch.leaf import LeafSwitch
    from repro.sim import Simulator
    from repro.switch.spine import SpineSwitch


def _account_reroute(
    selector: "CaftSelector | CaftCoreSelector",
    node: "Node",
    dst_leaf: int,
    flow_id: int,
    choice: int,
    candidates: list[int],
    metrics: list[int],
    healths: list[float],
) -> None:
    """Count and trace a choice that fault awareness, not congestion, made.

    A reroute is a ``choice`` whose raw congestion metric is not the
    minimum: pure CONGA would have steered into degraded capacity.
    """
    congestion_best = min(metrics)
    if metrics[candidates.index(choice)] <= congestion_best:
        return
    selector.fault_reroutes += 1
    tracer = node.sim.tracer
    if tracer is not None and tracer.fault:
        congestion_choice = candidates[metrics.index(congestion_best)]
        tracer.record(
            FaultRerouted, node.sim._now, node.name, dst_leaf, flow_id,
            choice, congestion_choice,
            tuple(candidates), tuple(metrics), tuple(healths),
        )


def _weighted(metrics: list[int], healths: list[float]) -> list[float]:
    """Each congestion metric divided by its path's residual capacity.

    Scaling rather than flat-penalizing: an *idle* degraded path still
    scores 0 (CONGA's optimism is preserved and a brownout is not
    over-steered at low load), while under load the same congestion reads
    ``1/health`` times worse on it; a dead path (health 0) sinks to inf.
    """
    return [
        metric / health if health > 0.0 else float("inf")
        for metric, health in zip(metrics, healths)
    ]


class CaftSelector(CongaSelector):
    """CONGA's flowlet rule with liveness weighting and stale re-probing."""

    name = "caft"
    stream = "caft"

    def __init__(self, leaf: "LeafSwitch", params: CongaParams | None = None) -> None:
        super().__init__(leaf, params)
        #: Decisions where liveness weighting overrode the congestion choice.
        self.fault_reroutes = 0
        # Feedback older than this is stale: 2 × metric_age_time is when
        # §3.3's linear decay bottoms out at the optimistic zero.
        self._stale_after = 2 * self.params.metric_age_time
        # One re-probe flowlet per stale path per interval.
        self._probe_interval = 4 * self.params.metric_age_time
        self._last_probe: dict[tuple[int, int], int] = {}

    def path_weight(self, dst_leaf: int, uplink: int) -> float:
        """Residual capacity of path ``uplink`` toward ``dst_leaf`` in [0, 1].

        The uplink's own residual (down/black-holed/degraded) times the
        next-hop switch's health toward the destination — the liveness
        signal CAFT's control plane distributes, queried here directly from
        fabric state.
        """
        leaf = self.leaf
        return (
            leaf.uplinks[uplink].residual_fraction()
            * leaf.uplink_spine[uplink].path_health(dst_leaf)
        )

    def _decide(
        self, dst_leaf: int, candidates: list[int], previous: int, flow_id: int = -1
    ) -> int:
        leaf = self.leaf
        table = leaf.to_leaf_table
        now = leaf.sim._now
        local_metrics = [leaf.local_metric(uplink) for uplink in candidates]
        remote_metrics = [table.metric(dst_leaf, uplink) for uplink in candidates]
        metrics = [max(lo, rm) for lo, rm in zip(local_metrics, remote_metrics)]
        healths = [self.path_weight(dst_leaf, uplink) for uplink in candidates]
        scores = _weighted(metrics, healths)
        probes = set()
        for position, uplink in enumerate(candidates):
            if healths[position] <= 0.0:
                continue
            age = table.age_of(dst_leaf, uplink)
            if age is not None and age > self._stale_after:
                last = self._last_probe.get((dst_leaf, uplink), -1)
                if last >= 0 and now - last < self._probe_interval:
                    # Stale and recently probed: do not trust the decayed
                    # metric; sink below every fresh path (anything beyond
                    # the metric range outranks every healthy one).
                    scores[position] += float(self.params.max_metric + 1)
                else:
                    # Accelerated re-probe: let one flowlet test the path
                    # at face value (recorded below only if chosen).
                    probes.add(uplink)
        choice = least_congested(candidates, scores, previous, self._rng)
        if choice in probes:
            self._last_probe[(dst_leaf, choice)] = now
        _account_reroute(
            self, leaf, dst_leaf, flow_id, choice, candidates, metrics, healths
        )
        return choice


class CaftCoreSelector:
    """caft at a pod spine: the flowlet choice over its core uplinks.

    Inter-pod traffic picks, per flowlet, the core uplink minimizing the
    local DRE metric over the path's residual capacity — so a black-holed
    or degraded spine→core link repels new flowlets even though the leaves'
    feedback loop cannot see it.  Ties draw from ``caft-spine-{id}``.
    """

    def __init__(self, spine: "SpineSwitch", params: CongaParams | None = None) -> None:
        spine.fabric.require_congestion_plane()
        self.spine = spine
        self.flowlets = FlowletTable(spine.sim, params or spine.params)
        self._rng = spine.sim.rng(f"caft-spine-{spine.spine_id}")
        #: Decisions where liveness weighting overrode the congestion choice.
        self.fault_reroutes = 0
        spine.install_core_selector(self)

    def choose_core_port(self, packet: Packet, dst_leaf: int, candidates: list[int]) -> int:
        """The core uplink (port index) to carry ``packet`` toward ``dst_leaf``."""
        entry = self.flowlets.lookup(packet._five_tuple or packet.five_tuple)
        if entry.valid and entry.port in candidates:
            return entry.port
        spine = self.spine
        metrics = [spine.ports[index].dre.metric() for index in candidates]
        healths = [spine.port_health(index, dst_leaf) for index in candidates]
        scores = _weighted(metrics, healths)
        choice = least_congested(candidates, scores, entry.port, self._rng)
        self.flowlets.install(entry, choice)
        _account_reroute(
            self, spine, dst_leaf, packet.flow_id, choice, candidates, metrics, healths
        )
        return choice


def enable_fault_awareness(sim: "Simulator", fabric: "Fabric") -> None:
    """Scheme post-setup hook: a :class:`CaftCoreSelector` wherever spines climb.

    A spine without core uplinks (every spine of a 2-tier fabric) has no
    core-bound packet to choose for; there the leaves' weighting alone
    carries the scheme.
    """
    for spine in fabric.spines:
        if spine.core_uplinks():
            CaftCoreSelector(spine)


__all__ = ["CaftCoreSelector", "CaftSelector", "enable_fault_awareness"]
