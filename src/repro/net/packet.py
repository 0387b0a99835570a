"""Packet and header models.

A :class:`Packet` is a single wire unit.  The transport fields model a
simplified TCP/UDP header (byte sequence numbers, cumulative ACKs), and the
optional :class:`OverlayHeader` models the VXLAN-style encapsulation CONGA
piggybacks its congestion state on (§3.1 of the paper): ``lbtag``/``ce`` for
the forward path and ``fb_lbtag``/``fb_metric`` for the reverse feedback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

#: Default maximum transmission unit (standard Ethernet payload), bytes.
DEFAULT_MTU = 1500

#: Jumbo-frame MTU used in the paper's Incast experiments (Fig. 13b).
JUMBO_MTU = 9000

#: Bytes of TCP/IP + Ethernet header overhead per segment we account for.
HEADER_BYTES = 58

#: Bytes of ACK-only packets on the wire.
ACK_BYTES = 64

_packet_ids = itertools.count()


@dataclass(slots=True)
class OverlayHeader:
    """VXLAN-like overlay header carrying CONGA state (paper §3.1).

    Attributes
    ----------
    src_leaf, dst_leaf:
        Tunnel endpoints (leaf switch ids) set by the source leaf.
    lbtag:
        Source-leaf uplink port the packet was sent on (4 bits in the ASIC).
    ce:
        Congestion-extent field, updated to the max link congestion metric
        along the path (3 bits in the ASIC).
    fb_lbtag, fb_metric:
        Piggybacked feedback for the *reverse* leaf pair: the metric of path
        ``fb_lbtag`` from the packet's destination leaf back toward its
        source leaf.  ``fb_valid`` marks whether the fields are meaningful.
    """

    src_leaf: int
    dst_leaf: int
    lbtag: int = 0
    ce: int = 0
    fb_lbtag: int = 0
    fb_metric: int = 0
    fb_valid: bool = False


@dataclass(slots=True)
class Packet:
    """A simulated packet.

    ``size`` is the total wire size in bytes (payload plus header overhead);
    ``payload_len`` is the transport payload carried.  ``seq`` is the byte
    offset of the first payload byte and ``ack_no`` the cumulative ACK.
    """

    src: int
    dst: int
    size: int
    protocol: str = "tcp"
    sport: int = 0
    dport: int = 0
    flow_id: int = 0
    seq: int = 0
    ack_no: int = -1
    payload_len: int = 0
    is_ack: bool = False
    fin: bool = False
    overlay: OverlayHeader | None = None
    created_at: int = 0
    echo: int = -1
    ecn_ce: bool = False
    ecn_echo: bool = False
    packet_id: int = field(default_factory=_packet_ids.__next__)
    # Cached 5-tuple: hashed at every switch hop (ECMP, flowlet slot), and
    # the address fields never change after construction.
    _five_tuple: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def five_tuple(self) -> tuple[int, int, int, int, str]:
        """The flow 5-tuple used for ECMP hashing and flowlet tracking."""
        cached = self._five_tuple
        if cached is None:
            cached = (self.src, self.dst, self.sport, self.dport, self.protocol)
            self._five_tuple = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else ("FIN" if self.fin else "DATA")
        return (
            f"Packet(#{self.packet_id} {kind} flow={self.flow_id} "
            f"{self.src}->{self.dst} seq={self.seq} len={self.payload_len})"
        )


__all__ = [
    "ACK_BYTES",
    "DEFAULT_MTU",
    "HEADER_BYTES",
    "JUMBO_MTU",
    "OverlayHeader",
    "Packet",
]
