"""Applications and experiment harness: traffic descriptions and generators."""

from importlib import import_module

from repro.apps.spec import (
    ExperimentSpec,
    ImbalanceMonitorSpec,
    PointResult,
    QueueMonitorSpec,
    UnknownWorkloadError,
    get_workload,
)
from repro.obs.config import ObsSpec
from repro.apps.traffic import (
    CrossRackTraffic,
    dctcp_flow_factory,
    FlowFactory,
    HdfsTraffic,
    IncastTraffic,
    PoissonTraffic,
    TrafficStats,
    mptcp_flow_factory,
    tcp_flow_factory,
)

#: Siblings imported on first access: the scheme registry is read only to
#: resolve a name (its entries import the engine when a run calls them);
#: ``hdfs`` and ``incast`` are models no ``ExperimentSpec`` run enters.
_DEFERRED = {
    "experiment": (
        "ExperimentResult",
        "SCHEMES",
        "SchemeSpec",
        "UnknownSchemeError",
        "get_scheme",
        "register_scheme",
    ),
    "hdfs": ("HdfsJobResult", "HdfsWriteJob"),
    "incast": ("IncastClient", "IncastResult", "incast_throughput_percent"),
}


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "CrossRackTraffic",
    "ExperimentResult",
    "ExperimentSpec",
    "FlowFactory",
    "HdfsJobResult",
    "HdfsTraffic",
    "HdfsWriteJob",
    "ImbalanceMonitorSpec",
    "IncastClient",
    "IncastResult",
    "IncastTraffic",
    "ObsSpec",
    "PointResult",
    "PoissonTraffic",
    "QueueMonitorSpec",
    "SCHEMES",
    "SchemeSpec",
    "TrafficStats",
    "UnknownSchemeError",
    "UnknownWorkloadError",
    "dctcp_flow_factory",
    "get_scheme",
    "get_workload",
    "incast_throughput_percent",
    "mptcp_flow_factory",
    "register_scheme",
    "tcp_flow_factory",
]
