"""A minimal UDP model: unreliable, rate-paced datagram streams.

CONGA is transport independent (§2.1, desired property 2); UDP sources are
used in tests and examples to exercise the fabric without any congestion
control in the loop, and as constant-bit-rate background load.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable

from repro.net.node import Host
from repro.net.packet import HEADER_BYTES, Packet
from repro.units import transmission_time

if TYPE_CHECKING:
    from repro.sim import Simulator

_udp_ports = itertools.count(40_000)


class UdpSource:
    """Sends ``size`` bytes of datagrams paced at ``rate_bps``."""

    def __init__(
        self,
        sim: "Simulator",
        src_host: Host,
        dst: int,
        size: int,
        rate_bps: int,
        *,
        flow_id: int | None = None,
        datagram_size: int = 1460,
        on_done: Callable[["UdpSource"], None] | None = None,
    ) -> None:
        if size <= 0 or rate_bps <= 0:
            raise ValueError("size and rate must be positive")
        self.sim = sim
        self.host = src_host
        self.dst = dst
        self.size = size
        self.rate_bps = rate_bps
        self.datagram_size = datagram_size
        self.flow_id = flow_id if flow_id is not None else -next(_udp_ports)
        self.sport = next(_udp_ports)
        self.on_done = on_done
        self.sent_bytes = 0
        self.done = False

    def start(self) -> None:
        """Begin sending."""
        self._send_next()

    def _send_next(self) -> None:
        if self.sent_bytes >= self.size:
            self.done = True
            if self.on_done is not None:
                self.on_done(self)
            return
        length = min(self.datagram_size, self.size - self.sent_bytes)
        packet = Packet(
            src=self.host.host_id,
            dst=self.dst,
            size=length + HEADER_BYTES,
            protocol="udp",
            sport=self.sport,
            dport=9,
            flow_id=self.flow_id,
            seq=self.sent_bytes,
            payload_len=length,
            created_at=self.sim.now,
        )
        self.host.send(packet)
        self.sent_bytes += length
        # Pace at the configured application rate.
        self.sim.schedule(
            transmission_time(packet.size, self.rate_bps), self._send_next
        )


class UdpSink:
    """Counts datagrams received for a flow id."""

    def __init__(self, dst_host: Host, flow_id: int) -> None:
        self.host = dst_host
        self.flow_id = flow_id
        self.received_bytes = 0
        self.received_packets = 0
        self.last_arrival = 0
        dst_host.bind(flow_id, self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        self.received_packets += 1
        self.received_bytes += packet.payload_len
        self.last_arrival = packet.created_at

    def close(self) -> None:
        """Unbind from the host."""
        self.host.unbind(self.flow_id)


__all__ = ["UdpSink", "UdpSource"]
