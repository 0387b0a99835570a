"""DCTCP congestion control (Alizadeh et al., SIGCOMM 2010 — the paper's [4]).

CONGA's datacenter context presumes burst-tolerant, low-latency transports;
DCTCP is the canonical one, and the fabric the paper ships in supports the
ECN marking it needs.  This module adds DCTCP on top of the NewReno engine:

* switches CE-mark packets enqueued above a threshold K (enabled via
  ``LeafSpineConfig.ecn_threshold_bytes``);
* receivers echo CE back in ACKs (built into :class:`~repro.transport.tcp.
  TcpReceiver`);
* the sender estimates the marked fraction α with a per-window EWMA,
  ``α ← (1−g)·α + g·F``, and on each marked window cuts
  ``cwnd ← cwnd·(1 − α/2)`` — a *graded* reaction instead of Reno's halving.

DCTCP keeps fabric queues near K, which sharpens CONGA's DRE signal (less
standing-queue noise) and largely removes Incast losses.  The combination
is checked by the ``dctcp.*`` rows of :mod:`repro.analysis.claims`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.transport.tcp import CongestionControl, TcpSender
from repro.units import kilobytes

#: Standard DCTCP marking threshold for 10 Gbps links (~65 packets).
DEFAULT_K_BYTES = kilobytes(100)

#: Standard DCTCP gain for the marked-fraction EWMA.
DEFAULT_G = 1.0 / 16.0


@dataclass
class DctcpState:
    """Observable DCTCP estimator state (exposed for tests/analysis)."""

    alpha: float = 0.0
    window_end: int = 0
    acked_bytes: int = 0
    marked_bytes: int = 0
    reductions: int = 0


class DctcpCC(CongestionControl):
    """DCTCP's ECN-proportional congestion control for one sender.

    Congestion-avoidance *increase* stays Reno (one MSS per RTT); the
    *decrease* is proportional to the EWMA of the marked fraction.  On real
    losses (timeout/fast retransmit) DCTCP falls back to Reno semantics,
    which the base sender already implements.
    """

    def __init__(self, g: float = DEFAULT_G) -> None:
        if not 0.0 < g <= 1.0:
            raise ValueError(f"g must be in (0, 1], got {g}")
        self.g = g
        self.state = DctcpState()

    @property
    def alpha(self) -> float:
        """Current marked-fraction estimate α ∈ [0, 1]."""
        return self.state.alpha

    def on_ack(self, sender: TcpSender, acked_bytes: int, ecn_echo: bool) -> None:
        state = self.state
        state.acked_bytes += acked_bytes
        if ecn_echo:
            state.marked_bytes += acked_bytes
        # A "window" of data ends when the cumulative ACK passes the
        # snd_nxt recorded at the start of the observation window.
        if sender.snd_una >= state.window_end:
            if state.acked_bytes > 0:
                fraction = state.marked_bytes / state.acked_bytes
                state.alpha = (1 - self.g) * state.alpha + self.g * fraction
                if state.marked_bytes > 0:
                    # Graded reduction, at most once per window of data.
                    sender.cwnd = max(
                        sender.cwnd * (1 - state.alpha / 2.0),
                        float(sender.params.mss),
                    )
                    sender.ssthresh = sender.cwnd
                    state.reductions += 1
            state.window_end = sender.snd_nxt
            state.acked_bytes = 0
            state.marked_bytes = 0


__all__ = ["DEFAULT_G", "DEFAULT_K_BYTES", "DctcpCC", "DctcpState"]
