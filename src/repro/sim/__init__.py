"""Deterministic discrete-event simulation kernel."""

from importlib import import_module
from typing import Any

#: Sibling imported on first access: ``pcg64`` (a seed plan's draws) needs
#: no kernel, and a process that only describes points runs none.
_DEFERRED = {
    "kernel": (
        "Callback",
        "PeriodicTimer",
        "SimulationError",
        "Simulator",
        "Timer",
        "run_until_idle",
    ),
}


def __getattr__(name: str) -> Any:
    for module, names in sorted(_DEFERRED.items()):
        if name in names:
            value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "Callback",
    "PeriodicTimer",
    "SimulationError",
    "Simulator",
    "Timer",
    "run_until_idle",
]
