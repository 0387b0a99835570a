"""CONGA core machinery: DRE, flowlet table, congestion tables, parameters."""

from importlib import import_module
from typing import Any

from repro.core.params import CONGA_FLOW_PARAMS, DEFAULT_PARAMS, CongaParams

#: Siblings imported on first access: a spec needs only its parameters, the
#: switch state loads with the engine that runs it.
_DEFERRED = {
    "dre": ("DRE",),
    "flowlet": ("FlowletEntry", "FlowletTable"),
    "tables": ("CongestionFromLeafTable", "CongestionToLeafTable"),
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
    "CONGA_FLOW_PARAMS",
    "CongestionFromLeafTable",
    "CongestionToLeafTable",
    "CongaParams",
    "DEFAULT_PARAMS",
    "DRE",
    "FlowletEntry",
    "FlowletTable",
]
