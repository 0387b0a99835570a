"""VXLAN-style overlay tunnel endpoint logic (paper §2.5, §3.1, §3.3).

Each leaf switch is a tunnel endpoint (TEP).  On the way into the fabric the
source TEP encapsulates packets with an :class:`~repro.net.packet.OverlayHeader`
that carries CONGA's four fields; on the way out the destination TEP consumes
the header.  This module centralizes that logic so the feedback protocol can
be unit-tested without instantiating switches:

* :meth:`TunnelEndpoint.encapsulate` stamps ``(lbtag, ce=0)`` for the forward
  path and opportunistically piggybacks one ``(fb_lbtag, fb_metric)`` pair
  from the Congestion-From-Leaf table (§3.3 step 4);
* :meth:`TunnelEndpoint.decapsulate` records the arriving CE into the
  Congestion-From-Leaf table (step 3) and feeds piggybacked metrics into the
  Congestion-To-Leaf table (step 5).

Both halves of that feedback loop are skipped on a fabric whose congestion
plane is off (nothing stamps CE there and nothing reads the tables); the
header, its bytes and the ``encapsulated``/``decapsulated`` counts are not.

The ASIC's VXLAN header grows by 46 bytes on the wire; we account for that
in packet size so fabric serialization is faithful.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.params import CongaParams, DEFAULT_PARAMS
from repro.core.tables import CongestionFromLeafTable, CongestionToLeafTable
from repro.net.packet import OverlayHeader, Packet

if TYPE_CHECKING:
    from repro.sim import Simulator

#: VXLAN + outer IP/UDP/Ethernet encapsulation overhead, bytes.
VXLAN_OVERHEAD = 46


class TunnelEndpoint:
    """Overlay TEP state for one leaf switch."""

    def __init__(
        self,
        sim: "Simulator",
        leaf_id: int,
        num_uplinks: int,
        params: CongaParams = DEFAULT_PARAMS,
        feedback_loop: bool = True,
    ) -> None:
        self.sim = sim
        self.leaf_id = leaf_id
        self.num_uplinks = num_uplinks
        self.params = params
        #: Whether arriving CE is recorded and feedback piggybacked and
        #: applied (§3.3 steps 3–5).  A leaf passes its fabric's
        #: ``congestion_plane``; off, only the header and its byte
        #: accounting remain.
        self.feedback_loop = feedback_loop
        self.to_leaf_table = CongestionToLeafTable(sim, num_uplinks, params, owner=leaf_id)
        self.from_leaf_table = CongestionFromLeafTable(num_uplinks)
        self.encapsulated = 0
        self.decapsulated = 0
        self.feedback_sent = 0
        self.feedback_received = 0
        #: Piggybacked feedback pairs discarded by an injected FeedbackLoss
        #: fault before reaching the Congestion-To-Leaf table.
        self.feedback_lost = 0
        self.fb_loss_probability = 0.0
        self._fb_loss_rng = None

    def set_feedback_loss(self, probability: float, rng=None) -> None:
        """Discard arriving piggybacked feedback with ``probability``.

        Models a control-plane grey failure (:mod:`repro.faults`): the
        forward path and its CE measurement keep working, but the reverse
        feedback channel is lossy, so this leaf's Congestion-To-Leaf
        entries stop refreshing and age to zero (§3.3).  ``probability``
        strictly between 0 and 1 requires a seeded ``rng``; 0 clears the
        fault, 1 drops everything without a draw.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if 0.0 < probability < 1.0 and rng is None:
            raise ValueError(
                "probabilistic feedback loss needs a seeded rng"
            )
        self.fb_loss_probability = probability
        self._fb_loss_rng = rng if 0.0 < probability < 1.0 else None

    def encapsulate(self, packet: Packet, dst_leaf: int, lbtag: int) -> None:
        """Attach the overlay header for a packet entering the fabric."""
        if packet.overlay is not None:
            raise ValueError(f"packet already encapsulated: {packet!r}")
        feedback = (
            self.from_leaf_table.select_feedback(dst_leaf)
            if self.feedback_loop
            else None
        )
        # Positional: (src_leaf, dst_leaf, lbtag, ce, fb_lbtag, fb_metric, fb_valid).
        if feedback is None:
            packet.overlay = OverlayHeader(self.leaf_id, dst_leaf, lbtag)
        else:
            packet.overlay = OverlayHeader(
                self.leaf_id, dst_leaf, lbtag, 0, feedback[0], feedback[1], True
            )
            self.feedback_sent += 1
        packet.size += VXLAN_OVERHEAD
        self.encapsulated += 1

    def decapsulate(self, packet: Packet) -> OverlayHeader:
        """Consume the overlay header of a packet leaving the fabric.

        Records the forward-path CE into the Congestion-From-Leaf table and
        applies any piggybacked feedback to the Congestion-To-Leaf table.
        Returns the removed header (useful for instrumentation).
        """
        header = packet.overlay
        if header is None:
            raise ValueError(f"packet is not encapsulated: {packet!r}")
        if header.dst_leaf != self.leaf_id:
            raise ValueError(
                f"packet for leaf {header.dst_leaf} decapsulated at leaf {self.leaf_id}"
            )
        if self.feedback_loop:
            self.from_leaf_table.record(header.src_leaf, header.lbtag, header.ce)
            if header.fb_valid:
                if self.fb_loss_probability > 0.0 and (
                    self.fb_loss_probability >= 1.0
                    or self._fb_loss_rng.random() < self.fb_loss_probability
                ):
                    self.feedback_lost += 1
                else:
                    self.to_leaf_table.update(
                        header.src_leaf, header.fb_lbtag, header.fb_metric
                    )
                    self.feedback_received += 1
        packet.overlay = None
        packet.size -= VXLAN_OVERHEAD
        self.decapsulated += 1
        return header


__all__ = ["TunnelEndpoint", "VXLAN_OVERHEAD"]
