"""Transports: NewReno TCP, DCTCP, MPTCP (coupled LIA), and UDP."""

from importlib import import_module

from repro.transport.tcp import (
    CongestionControl,
    DataSource,
    PacedSource,
    FlowRecord,
    INCAST_RECOMMENDED,
    SenderStats,
    TcpFlow,
    TcpParams,
    TcpReceiver,
    TcpSender,
    next_flow_id,
)

#: Siblings imported on first access: every run needs ``tcp``, the rest load
#: with the scheme that names them.
_DEFERRED = {
    "dctcp": ("DEFAULT_K_BYTES", "DctcpCC"),
    "mptcp": ("DEFAULT_SUBFLOWS", "LinkedIncreasesCC", "MptcpConnection"),
    "udp": ("UdpSink", "UdpSource"),
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
    "CongestionControl",
    "DEFAULT_K_BYTES",
    "DEFAULT_SUBFLOWS",
    "DctcpCC",
    "DataSource",
    "FlowRecord",
    "INCAST_RECOMMENDED",
    "LinkedIncreasesCC",
    "MptcpConnection",
    "PacedSource",
    "SenderStats",
    "TcpFlow",
    "TcpParams",
    "TcpReceiver",
    "TcpSender",
    "UdpSink",
    "UdpSource",
    "next_flow_id",
]
