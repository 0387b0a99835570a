"""Drives a fault schedule against a live simulation.

The injector is constructed by :meth:`repro.apps.ExperimentSpec.run_live` right
after the fabric is finalized and *before* monitors attach, with the run's
``faults`` tuple:

* events with ``time == 0`` are applied synchronously at construction —
  they are initial conditions, so declarative monitors (whose port
  selection excludes down links) and route caches see the degraded fabric
  from the first event on;
* later events are scheduled on the kernel as bound-method + arg-slot
  events, one per fault (each bound to its own event, never to a loop
  variable), and fire in schedule order at equal times.

An empty schedule constructs nothing and touches no RNG stream, so runs
with ``faults=()`` are event-for-event identical to runs predating the
fault plane (the golden digests in ``tests/golden/`` pin this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.events import (
    FaultError,
    FaultEvent,
    FeedbackLoss,
    RandomLinkDowns,
    SwitchBlackout,
)
from repro.obs.events import FaultApplied, FaultRestored

if TYPE_CHECKING:
    from repro.net.port import Port
    from repro.sim import Simulator
    from repro.switch.fabric import Fabric


class FaultInjector:
    """Applies a tuple of :class:`FaultEvent` values to one fabric."""

    def __init__(
        self,
        sim: "Simulator",
        fabric: "Fabric",
        faults: tuple[FaultEvent, ...],
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.faults = tuple(faults)
        #: Log of (simulated time, event) pairs in application order.
        self.applied: list[tuple[int, FaultEvent]] = []
        #: Peak per-tier capacity asymmetry observed across the schedule:
        #: tier name -> max over fault applications of the fraction of that
        #: tier's nominal capacity unusable right after the event fired.
        self.peak_tier_asymmetry: dict[str, float] = {}
        for index, event in enumerate(self.faults):
            if not isinstance(event, FaultEvent):
                raise TypeError(
                    f"faults must be FaultEvent instances, got {event!r}"
                )
            try:
                self._resolve(event)
            except ValueError as exc:
                raise FaultError(f"{exc} in fault {event!r}", index) from None
        for event in self.faults:
            if event.time <= sim.now:
                self._apply(event)
            else:
                sim.schedule_at(event.time, self._apply, event)

    def _resolve(self, event: FaultEvent) -> None:
        """Raise ValueError unless every target ``event`` names is in the fabric.

        Run before anything is applied or scheduled, so a bad target fails
        the point up front, not mid-run or never (after the deadline).
        """
        if isinstance(event, FeedbackLoss):
            if event.leaf is not None:
                self.fabric._switch("leaf", event.leaf)
        elif isinstance(event, SwitchBlackout):
            self.fabric._switch(event.kind, event.switch)
        elif isinstance(event, RandomLinkDowns):
            if event.tier == "core" and not self.fabric.cores:
                raise ValueError("tier 'core' needs a multi-pod fabric")
        else:  # the Link* family
            self.target_port(event)

    def _apply(self, event: FaultEvent) -> None:
        try:
            event.apply(self)
        except ValueError as exc:
            # What the spec cannot rule out before the run: a random failure
            # set the links still up at this instant cannot supply.
            index = next(i for i, other in enumerate(self.faults) if other is event)
            raise FaultError(f"{exc} in fault {event!r}", index) from exc
        self.applied.append((self.sim.now, event))
        self._snapshot_asymmetry()
        tracer = self.sim.tracer
        if tracer is not None and tracer.fault:
            cls = FaultRestored if event.restores() else FaultApplied
            tracer.record(cls, self.sim._now, type(event).__name__, repr(event))

    def _snapshot_asymmetry(self) -> None:
        """Fold the fabric's current per-tier asymmetry into the peaks.

        Asymmetry here is 1 − aggregate residual capacity of the tier's
        links (down, black-holed, and browned-out ports all count), the
        quantity :class:`repro.analysis.DegradationSummary` reports per
        tier.  Called once per applied fault event, so it is off every hot
        path.
        """
        from repro.net.port import residual_capacity

        peaks = self.peak_tier_asymmetry
        asymmetry = 1.0 - residual_capacity(self.fabric.leaf_uplink_ports())
        if asymmetry > peaks.get("leaf", 0.0):
            peaks["leaf"] = asymmetry
        core_ports = list(self.fabric.spine_core_ports())
        if core_ports:  # a 2-tier fabric has no core tier to report
            asymmetry = 1.0 - residual_capacity(core_ports)
            if asymmetry > peaks.get("core", 0.0):
                peaks["core"] = asymmetry

    def tier_asymmetry(self) -> tuple[tuple[str, float], ...]:
        """Sorted (tier, peak asymmetry) pairs for the run so far."""
        return tuple(sorted(self.peak_tier_asymmetry.items()))

    # -- helpers used by event.apply() implementations -----------------------

    def target_port(self, event) -> "Port":
        """The near-side port of a Link* event's target, at either link tier."""
        if event.core is not None:
            return self.fabric.core_link(event.spine, event.core, event.which)
        return self.fabric.link(event.leaf, event.spine, event.which)

    def set_feedback_loss(self, leaf: int | None, probability: float) -> None:
        """Configure feedback stripping at one leaf's TEP (or all TEPs)."""
        leaves = (
            self.fabric.leaves if leaf is None else [self.fabric._switch("leaf", leaf)]
        )
        for target in leaves:
            if target.tep is None:
                raise ValueError(
                    f"{target.name} has no TEP; inject faults after finalize()"
                )
            rng = None
            if 0.0 < probability < 1.0:
                rng = self.sim.rng(f"feedback-loss:leaf{target.leaf_id}")
            target.tep.set_feedback_loss(probability, rng)

    # -- scheduled restore callbacks (bound method + arg slot) ----------------

    def _clear_feedback_loss(self, leaf: int | None = None) -> None:
        # The default matters: the kernel calls arg=None events with *no*
        # argument, and leaf=None (all leaves) is stored as arg None.
        self.set_feedback_loss(leaf, 0.0)

    def _restore_switch(self, target: tuple[str, int]) -> None:
        kind, switch = target
        for port in self.fabric.switch_ports(kind, switch):
            port.restore()


__all__ = ["FaultInjector"]
