"""The fault-event algebra: frozen values describing fabric degradation.

Each event is a frozen, hashable dataclass with an integer-nanosecond
``time`` and an :meth:`FaultEvent.apply` method invoked by the
:class:`repro.faults.injector.FaultInjector` when the simulation clock
reaches that time (``time == 0`` events are applied synchronously at
injector construction, i.e. as initial conditions, before monitors attach).

Because events are plain values they ride on
:attr:`repro.apps.ExperimentSpec.faults` — picklable across worker
processes, canonicalizable for the result-cache content hash, and
expressible on the CLI through :func:`parse_fault`.

Paper mapping (see DESIGN.md for the full chapter):

* :class:`LinkDown` / :class:`LinkUp` — the single-failure asymmetry of
  Fig. 7(b) / Fig. 11, now schedulable mid-run;
* :class:`RandomLinkDowns` — the Fig. 16 multi-failure scenario;
* :class:`LinkDegrade` / :class:`LinkLoss` — the degraded-but-alive
  brownouts and grey failures that §3.3's metric aging is designed to
  survive;
* :class:`FeedbackLoss` — severs the piggybacked feedback channel so
  Congestion-To-Leaf entries age out (§3.3) and paths get re-probed;
* :class:`SwitchBlackout` — whole-switch failure, the coarsest asymmetry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.units import _parse_duration

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

_LINK_TARGET = re.compile(r"^l(\d+)-s(\d+)(?:\.(\d+))?$")
_CORE_LINK_TARGET = re.compile(r"^s(\d+)-c(\d+)(?:\.(\d+))?$")
_SWITCH_TARGET = re.compile(r"^(leaf|spine|core)(\d+)$")


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one change to the fabric at simulated time ``time`` (ns)."""

    time: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")

    def apply(self, injector: "FaultInjector") -> None:
        """Apply this event to the injector's fabric.  Subclasses override."""
        raise NotImplementedError

    def restores(self) -> bool:
        """Whether this event (partially) undoes degradation.

        Used by :func:`fault_window` to bracket the degraded interval for
        the analysis-side degradation metrics.
        """
        return False

    def restore_time(self) -> int | None:
        """When this event's effect ends, for duration-bearing events."""
        duration = getattr(self, "duration", None)
        if duration is None:
            return self.time if self.restores() else None
        return self.time + duration


@dataclass(frozen=True)
class LinkDown(FaultEvent):
    """Fail the ``which``-th parallel fabric link (cut-cable, Fig. 7b).

    With ``core=None`` (the default) the target is the leaf↔spine link
    ``(leaf, spine)``; with ``core`` set it is the spine↔core link
    ``(spine, core)`` of a multi-pod fabric and ``leaf`` is ignored.
    """

    leaf: int = 0
    spine: int = 0
    which: int = 0
    core: int | None = None

    def apply(self, injector: "FaultInjector") -> None:
        injector.target_port(self).fail()


@dataclass(frozen=True)
class LinkUp(FaultEvent):
    """Restore a previously failed fabric link (see :class:`LinkDown`)."""

    leaf: int = 0
    spine: int = 0
    which: int = 0
    core: int | None = None

    def apply(self, injector: "FaultInjector") -> None:
        injector.target_port(self).restore()

    def restores(self) -> bool:
        return True


@dataclass(frozen=True)
class LinkDegrade(FaultEvent):
    """Scale one link's rate to ``fraction`` of nominal in both directions.

    ``fraction=1.0`` restores the nominal rate, so a brownout window is a
    ``LinkDegrade(t0, ..., fraction=0.25)`` / ``LinkDegrade(t1, ...,
    fraction=1.0)`` pair.  The attached DREs are retargeted to the new line
    rate, exactly as the ASIC's utilization estimate tracks the configured
    port speed.
    """

    leaf: int = 0
    spine: int = 0
    which: int = 0
    fraction: float = 0.5
    core: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"fraction must be in (0, 1], got {self.fraction}"
            )

    def apply(self, injector: "FaultInjector") -> None:
        injector.target_port(self).degrade(self.fraction)

    def restores(self) -> bool:
        return self.fraction >= 1.0


@dataclass(frozen=True)
class LinkLoss(FaultEvent):
    """Drop each packet on one link with ``probability`` (grey failure).

    Loss applies independently in both directions, after serialization (the
    packet occupies the wire, then vanishes — corrupted-frame semantics).
    Draws come from a per-port named RNG stream
    (``"link-loss:<port name>"``), so loss patterns are deterministic per
    spec seed and independent of every other stream.  ``probability=0``
    clears the fault; ``probability=1`` black-holes the link while the
    routing layer still believes it is up — the failure mode ECMP cannot
    see but CONGA's feedback starves out of.
    """

    leaf: int = 0
    spine: int = 0
    which: int = 0
    probability: float = 0.01
    core: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def apply(self, injector: "FaultInjector") -> None:
        port = injector.target_port(self)
        for side in (port, port.peer):
            if side is None:
                continue
            rng = None
            if 0.0 < self.probability < 1.0:
                rng = injector.sim.rng(f"link-loss:{side.name}")
            side.set_loss(self.probability, rng)

    def restores(self) -> bool:
        return self.probability == 0.0


@dataclass(frozen=True)
class FeedbackLoss(FaultEvent):
    """Strip CONGA's piggybacked feedback arriving at a leaf's TEP (§3.3).

    With ``leaf=None`` every leaf's TEP discards incoming
    ``(FB_LBTag, FB_Metric)`` pairs with ``probability``; the affected
    leaves' Congestion-To-Leaf entries stop refreshing and age linearly to
    zero, which is precisely the staleness scenario §3.3's aging + optimistic
    re-probing is built for.  Forward-path CE measurement is untouched —
    only the reverse feedback channel is lossy.  ``duration`` (ns) schedules
    an automatic clear; ``probability=0`` clears immediately.
    """

    leaf: int | None = None
    probability: float = 1.0
    duration: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")

    def apply(self, injector: "FaultInjector") -> None:
        injector.set_feedback_loss(self.leaf, self.probability)
        if self.duration is not None:
            injector.sim.schedule_at(
                self.time + self.duration,
                injector._clear_feedback_loss,
                self.leaf,
            )

    def restores(self) -> bool:
        return self.probability == 0.0


@dataclass(frozen=True)
class SwitchBlackout(FaultEvent):
    """Fail every port of one switch.

    ``kind`` is ``"leaf"``, ``"spine"``, or ``"core"`` (core switches only
    exist in a multi-pod fabric).  ``duration`` (ns) schedules a restore of
    all the switch's ports; note the restore brings *every* port of the
    switch up, including any failed earlier by other events.
    """

    kind: str = "spine"
    switch: int = 0
    duration: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in ("leaf", "spine", "core"):
            raise ValueError(
                f"kind must be 'leaf', 'spine', or 'core', got {self.kind!r}"
            )
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")

    def apply(self, injector: "FaultInjector") -> None:
        for port in injector.fabric.switch_ports(self.kind, self.switch):
            port.fail()
        if self.duration is not None:
            injector.sim.schedule_at(
                self.time + self.duration,
                injector._restore_switch,
                (self.kind, self.switch),
            )


@dataclass(frozen=True)
class RandomLinkDowns(FaultEvent):
    """Fail ``count`` random links of one fabric tier (the Fig. 16 scenario).

    Uses :func:`repro.topology.fail_random_links`, so the failure set comes
    from the named ``stream`` of the run's own seed — machine- and
    process-stable — and never disconnects a switch from its uplink tier.
    ``tier="leaf"`` draws from leaf↔spine links; ``tier="core"`` from the
    spine↔core links of a multi-pod fabric.
    """

    count: int = 1
    stream: str = "link-failures"
    tier: str = "leaf"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        from repro.topology.failures import TIERS

        if self.tier not in TIERS:
            raise ValueError(f"tier must be one of {TIERS}, got {self.tier!r}")

    def apply(self, injector: "FaultInjector") -> None:
        from repro.topology.failures import fail_random_links

        fail_random_links(injector.fabric, self.count, self.stream, tier=self.tier)


def fault_window(faults: tuple[FaultEvent, ...]) -> tuple[int, int | None] | None:
    """The (start, end) of the degraded interval described by ``faults``.

    ``start`` is the earliest degrading event; ``end`` is the latest
    restore (a restoring event's time, or ``time + duration`` for
    duration-bearing events), or ``None`` when nothing ever restores —
    degradation persists to the end of the run.  Returns ``None`` when
    ``faults`` contains no degrading events at all.
    """
    starts = [f.time for f in faults if not f.restores()]
    if not starts:
        return None
    ends = [t for f in faults if (t := f.restore_time()) is not None]
    return min(starts), (max(ends) if ends else None)


def _parse_link(target: str, kind: str) -> dict[str, int]:
    """Link-target grammar → constructor kwargs for the Link* events.

    ``l<leaf>-s<spine>[.<which>]`` addresses a leaf↔spine link;
    ``s<spine>-c<core>[.<which>]`` a spine↔core link of a multi-pod fabric.
    """
    match = _LINK_TARGET.match(target)
    if match is not None:
        leaf, spine, which = match.groups()
        return {"leaf": int(leaf), "spine": int(spine), "which": int(which or 0)}
    match = _CORE_LINK_TARGET.match(target)
    if match is not None:
        spine, core, which = match.groups()
        return {"spine": int(spine), "core": int(core), "which": int(which or 0)}
    raise ValueError(
        f"{kind} needs a link target like 'l1-s1', 'l1-s1.0', or 's1-c0', "
        f"got {target!r}"
    )


#: The ``=VALUE`` / ``~PROB`` / ``+DURATION`` parts each fault kind takes.
_PARTS = {
    "link_down": "",
    "link_up": "",
    "link_degrade": "=",
    "link_loss": "~",
    "feedback_loss": "~+",
    "blackout": "+",
    "random_downs": "=",
}


def parse_fault(text: str) -> FaultEvent:
    """Parse one CLI fault expression into a :class:`FaultEvent`.

    Grammar: ``kind@TIME[:TARGET][=VALUE][~PROB][+DURATION]`` where TIME and
    DURATION take a unit suffix (``ns``/``us``/``ms``/``s``), TARGET is
    ``l<leaf>-s<spine>[.<which>]`` or ``s<spine>-c<core>[.<which>]`` for
    links, ``leaf<N>`` / ``spine<N>`` / ``core<N>`` for switches, or a tier
    name (``leaf`` / ``core``) for ``random_downs``; VALUE is a rate
    fraction (``link_degrade``) or a count (``random_downs``), and PROB is
    a drop probability.  Core-tier targets need a multi-pod fabric.
    Examples::

        link_down@0.1s:l0-s1         link_degrade@1ms:l1-s1.0=0.25
        link_loss@0s:s1-c0~1.0       feedback_loss@0.5ms:leaf1~0.5+2ms
        blackout@1ms:core1+500us     random_downs@0s:core=3
    """
    kind, sep, rest = text.partition("@")
    if not sep or not kind:
        raise ValueError(f"fault {text!r} must look like kind@time[...]")
    if kind not in _PARTS:
        raise ValueError(
            f"unknown fault kind {kind!r}; known kinds: {', '.join(_PARTS)}"
        )

    parts: dict[str, str] = {}
    for mark, split in (("+", str.rpartition), ("~", str.partition), ("=", str.partition)):
        if mark in rest:
            rest, _, parts[mark] = split(rest, mark)
            if mark not in _PARTS[kind]:
                raise ValueError(
                    f"{kind} takes no '{mark}{parts[mark]}' part (in {text!r})"
                )
    duration = _parse_duration(parts["+"]) if "+" in parts else None

    def number(mark: str) -> float | None:
        if mark not in parts:
            return None
        try:
            return float(parts[mark])
        except ValueError:
            raise ValueError(
                f"{kind} part '{mark}{parts[mark]}' is not a number (in {text!r})"
            ) from None

    prob, value = number("~"), number("=")
    time_text, _, target = rest.partition(":")
    time = _parse_duration(time_text)

    if kind in ("link_down", "link_up"):
        cls = LinkDown if kind == "link_down" else LinkUp
        return cls(time=time, **_parse_link(target, kind))
    if kind == "link_degrade":
        if value is None:
            raise ValueError("link_degrade needs '=<fraction>'")
        return LinkDegrade(time=time, fraction=value, **_parse_link(target, kind))
    if kind == "link_loss":
        if prob is None:
            raise ValueError("link_loss needs '~<probability>'")
        return LinkLoss(time=time, probability=prob, **_parse_link(target, kind))
    if kind == "feedback_loss":
        leaf: int | None = None
        if target:
            match = _SWITCH_TARGET.match(target)
            if match is None or match.group(1) != "leaf":
                raise ValueError(
                    f"feedback_loss target must be 'leaf<N>', got {target!r}"
                )
            leaf = int(match.group(2))
        return FeedbackLoss(
            time=time,
            leaf=leaf,
            probability=1.0 if prob is None else prob,
            duration=duration,
        )
    if kind == "blackout":
        match = _SWITCH_TARGET.match(target)
        if match is None:
            raise ValueError(
                "blackout target must be 'leaf<N>', 'spine<N>', or "
                f"'core<N>', got {target!r}"
            )
        return SwitchBlackout(
            time=time,
            kind=match.group(1),
            switch=int(match.group(2)),
            duration=duration,
        )
    # random_downs, the last kind _PARTS knows
    if value is None:
        raise ValueError("random_downs needs '=<count>'")
    if not value.is_integer():  # also refuses nan and inf
        raise ValueError(f"random_downs count must be an integer, got {value}")
    return RandomLinkDowns(time=time, count=int(value), tier=target or "leaf")


__all__ = [
    "FaultEvent",
    "FeedbackLoss",
    "LinkDegrade",
    "LinkDown",
    "LinkLoss",
    "LinkUp",
    "RandomLinkDowns",
    "SwitchBlackout",
    "fault_window",
    "parse_fault",
]
