"""Packet-level network substrate: packets, queues, ports, links, nodes."""

from repro.net.node import Host, Node, PacketHandler
from repro.net.packet import (
    ACK_BYTES,
    DEFAULT_MTU,
    HEADER_BYTES,
    JUMBO_MTU,
    OverlayHeader,
    Packet,
)
from repro.net.port import (
    DEFAULT_PROPAGATION_DELAY,
    DEFAULT_QUEUE_CAPACITY,
    Port,
    connect,
)
from repro.net.queue import DropTailQueue, QueueStats

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
