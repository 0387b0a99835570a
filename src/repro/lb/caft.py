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
  ECMP hashing — see
  :meth:`repro.topology.multipod.PodSpineSwitch.enable_fault_aware_core_lb`,
  installed by the scheme's post-setup hook.

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

from repro.core.params import CongaParams, DEFAULT_PARAMS
from repro.lb.base import SelectorFactory
from repro.lb.conga import CongaSelector
from repro.obs.events import FaultRerouted

if TYPE_CHECKING:
    from repro.switch.fabric import Fabric
    from repro.switch.leaf import LeafSwitch
    from repro.sim import Simulator


class CaftSelector(CongaSelector):
    """CONGA's flowlet rule with liveness weighting and stale re-probing."""

    name = "caft"

    def __init__(self, leaf: "LeafSwitch", params: CongaParams = DEFAULT_PARAMS) -> None:
        super().__init__(leaf, params)
        # Own tie-break stream; named streams are independent by name, so
        # the parent's (now unused) conga-{leaf} stream draws nothing.
        self._rng = leaf.sim.rng(f"caft-{leaf.leaf_id}")
        #: Decisions where liveness weighting overrode the congestion choice.
        self.fault_reroutes = 0
        # Feedback older than this is stale: 2 × metric_age_time is when
        # §3.3's linear decay bottoms out at the optimistic zero.
        self._stale_after = 2 * params.metric_age_time
        # One re-probe flowlet per stale path per interval.
        self._probe_interval = 4 * params.metric_age_time
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
        # Anything beyond the metric range outranks every healthy path.
        stale_penalty = float(self.params.max_metric + 1)
        healths: list[float] = []
        scores: list[float] = []
        probing: list[bool] = []
        for uplink, metric in zip(candidates, metrics):
            health = self.path_weight(dst_leaf, uplink)
            healths.append(health)
            if health <= 0.0:
                scores.append(float("inf"))
                probing.append(False)
                continue
            # Scale the congestion metric by residual capacity rather than
            # flat-penalizing the path: an *idle* degraded path still
            # scores 0 (CONGA's optimism is preserved and a brownout is
            # not over-steered at low load), while under load the same
            # congestion reads ``1/health`` times worse on it.  Dead paths
            # (health 0) were already sunk to inf above.
            score = metric / health
            probe = False
            age = table.age_of(dst_leaf, uplink)
            if age is not None and age > self._stale_after:
                last = self._last_probe.get((dst_leaf, uplink), -1)
                if last >= 0 and now - last < self._probe_interval:
                    # Stale and recently probed: do not trust the decayed
                    # metric; sink below every fresh path.
                    score += stale_penalty
                else:
                    # Accelerated re-probe: let one flowlet test the path
                    # at face value (recorded below only if chosen).
                    probe = True
            scores.append(score)
            probing.append(probe)
        best = min(scores)
        ties = [u for u, s in zip(candidates, scores) if s == best]
        if previous in ties:
            # §3.5 stickiness: a flow only moves if strictly better exists.
            choice = previous
        else:
            choice = ties[int(self._rng.integers(len(ties)))]
        position = candidates.index(choice)
        if probing[position]:
            self._last_probe[(dst_leaf, choice)] = now
        congestion_best = min(metrics)
        if metrics[position] > congestion_best:
            # Fault awareness, not congestion, steered this flowlet.
            self.fault_reroutes += 1
            tracer = leaf.sim.tracer
            if tracer is not None and tracer.fault:
                congestion_choice = candidates[metrics.index(congestion_best)]
                tracer.record(
                    FaultRerouted, now, leaf.name, dst_leaf, flow_id,
                    choice, congestion_choice,
                    tuple(candidates), tuple(metrics), tuple(healths),
                )
        return choice

    @classmethod
    def factory(cls, params: CongaParams = DEFAULT_PARAMS) -> SelectorFactory:
        """Factory binding a CONGA parameter block."""
        return lambda leaf: cls(leaf, params)


def enable_fault_awareness(sim: "Simulator", fabric: "Fabric") -> None:
    """Scheme post-setup hook: make pod spines fault-aware too.

    On a :class:`~repro.topology.multipod.MultiPodFabric` every pod spine
    swaps blind inter-pod ECMP for caft's weighted flowlet choice; on a
    2-tier fabric there is nothing to install and the leaves' weighting
    alone carries the scheme.
    """
    for spine in fabric.spines:
        enable = getattr(spine, "enable_fault_aware_core_lb", None)
        if enable is not None:
            enable()


__all__ = ["CaftSelector", "enable_fault_awareness"]
