"""Applications and experiment harness: traffic generators, Incast, HDFS."""

from importlib import import_module

from repro.apps.experiment import (
    ExperimentResult,
    SCHEMES,
    SchemeSpec,
    UnknownSchemeError,
    get_scheme,
    register_scheme,
)
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
    bursty_tcp_flow_factory,
    dctcp_flow_factory,
    FlowFactory,
    TrafficStats,
    mptcp_flow_factory,
    tcp_flow_factory,
)

#: Siblings imported on first access: models no ``ExperimentSpec`` run enters.
_DEFERRED = {
    "hdfs": ("HdfsJobResult", "HdfsWriteJob"),
    "incast": ("IncastClient", "IncastResult"),
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
    "HdfsWriteJob",
    "ImbalanceMonitorSpec",
    "IncastClient",
    "IncastResult",
    "ObsSpec",
    "PointResult",
    "QueueMonitorSpec",
    "SCHEMES",
    "SchemeSpec",
    "TrafficStats",
    "UnknownSchemeError",
    "UnknownWorkloadError",
    "bursty_tcp_flow_factory",
    "dctcp_flow_factory",
    "get_scheme",
    "get_workload",
    "mptcp_flow_factory",
    "register_scheme",
    "tcp_flow_factory",
]
