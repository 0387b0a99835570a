"""Deterministic fault-injection plane (paper §3.3, Figs. 11/16).

CONGA's headline claim is graceful degradation under asymmetry.  This
package makes every degraded-but-alive scenario a *value*: a frozen,
hashable :class:`FaultEvent` describes one change to the fabric at one
simulated instant, a tuple of them forms a fault schedule that rides on
:class:`repro.apps.ExperimentSpec` (sweepable, cacheable, CLI-expressible),
and :class:`FaultInjector` turns the schedule into kernel events that drive
the partial-degradation hooks on :class:`repro.net.port.Port` and
:class:`repro.switch.fabric.Fabric`.

Determinism contract: a fault schedule is part of the spec, every random
draw a fault makes (per-packet loss, random failure sets) comes from a
named per-simulator RNG stream, and events at equal times apply in schedule
order — so the same spec + seed yields bit-identical results at any worker
count, and an empty schedule leaves the simulation untouched.
"""

from importlib import import_module

from repro.faults.events import (
    FaultError,
    FaultEvent,
    FeedbackLoss,
    LinkDegrade,
    LinkDown,
    LinkLoss,
    LinkUp,
    RandomLinkDowns,
    SwitchBlackout,
    fault_window,
    parse_fault,
)

#: Sibling imported on first access: naming a fault is part of a point's
#: description; the injector that applies it is engine.
_DEFERRED = {
    "injector": ("FaultInjector",),
}


def __getattr__(name: str):
    for module, names in sorted(_DEFERRED.items()):
        if name in names:
            value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "FaultError",
    "FaultEvent",
    "FaultInjector",
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
