"""Packet-level network substrate: packets, queues, ports, links, nodes."""

from importlib import import_module

from repro.net.packet import (
    ACK_BYTES,
    DEFAULT_MTU,
    HEADER_BYTES,
    JUMBO_MTU,
    OverlayHeader,
    Packet,
)

#: Siblings imported on first access: a spec needs only packet sizes, the
#: nodes, ports and queues load with the engine that runs it.
_DEFERRED = {
    "node": ("Host", "Node", "PacketHandler"),
    "port": ("DEFAULT_PROPAGATION_DELAY", "DEFAULT_QUEUE_CAPACITY", "Port", "connect"),
    "queue": ("DropTailQueue", "QueueStats"),
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
    "ACK_BYTES",
    "DEFAULT_MTU",
    "DEFAULT_PROPAGATION_DELAY",
    "DEFAULT_QUEUE_CAPACITY",
    "DropTailQueue",
    "HEADER_BYTES",
    "Host",
    "JUMBO_MTU",
    "Node",
    "OverlayHeader",
    "Packet",
    "PacketHandler",
    "Port",
    "QueueStats",
    "connect",
]
