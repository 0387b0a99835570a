"""A NewReno-style TCP model.

The evaluation's TCP-dependent effects all hinge on a congestion-controlled,
loss-recovering transport: Incast timeouts (Fig. 13), the pathological
interaction between TCP's control loop and local-only load balancing (§2.4),
and queue buildup at asymmetric hotspots (Fig. 11c).  This module implements
the sender and receiver halves of such a transport:

* slow start and congestion avoidance with a pluggable
  :class:`CongestionControl` increase policy (Reno here; MPTCP's coupled
  LIA lives in :mod:`repro.transport.mptcp`);
* duplicate-ACK fast retransmit and NewReno fast recovery with partial-ACK
  retransmission;
* retransmission timeouts with Jacobson/Karels RTT estimation, exponential
  backoff, and a configurable ``min_rto`` — the knob the paper turns in the
  Incast experiments (200 ms Linux default vs the 1 ms of Vasudevan et al.);
* RTT samples via echoed timestamps (TCP timestamp-option style).

Data transfer is modelled one-way: a :class:`TcpSender` pushes ``size``
bytes (byte sequence space, MSS-sized segments) to a :class:`TcpReceiver`
that generates cumulative ACKs.  Connection setup is elided — the paper's
traffic generator uses persistent connections (§5.2) — so a "flow" starts
directly in slow start.  The sender's data source may also grow on demand,
which is how MPTCP subflows pull segments from a shared connection pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.net.node import Host
from repro.net.packet import ACK_BYTES, HEADER_BYTES, Packet
from repro.obs.events import RtoFired, TcpStateChanged
from repro.sim.kernel import Timer
from repro.units import microseconds, milliseconds, seconds

if TYPE_CHECKING:
    from repro.sim import Simulator

#: Floor on the variance term of the RTO (clock granularity), ticks.
_RTO_GRANULARITY = float(microseconds(1))


def next_flow_id(sim: "Simulator") -> int:
    """Allocate a flow id unique within ``sim``.

    Flow ids are allocated per simulator (not per process) so that a run's
    5-tuples — and therefore its ECMP hashes — do not depend on experiments
    executed earlier in the same process.
    """
    counter = getattr(sim, "_flow_id_counter", None)
    if counter is None:
        counter = itertools.count(1)
        sim._flow_id_counter = counter
    return next(counter)


@dataclass(frozen=True)
class TcpParams:
    """TCP tunables.

    ``min_rto`` defaults to the Linux 200 ms the paper's testbed uses; the
    Incast experiments also run the 1 ms variant.  ``ack_every`` of 1 acks
    every segment (delayed ACKs off, as typical for latency-sensitive
    datacenter tunings); 2 models standard delayed ACKs (out-of-order data
    and FIN segments are always acked immediately).
    """

    mss: int = 1460
    initial_cwnd_segments: int = 10
    min_rto: int = milliseconds(200)
    max_rto: int = seconds(60)
    initial_rto: int = milliseconds(200)
    dupack_threshold: int = 3
    receive_window: int = 1 << 30
    ack_every: int = 1

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise ValueError(f"mss must be positive, got {self.mss}")
        if self.min_rto <= 0 or self.max_rto < self.min_rto:
            raise ValueError("invalid RTO bounds")
        if self.ack_every < 1:
            raise ValueError("ack_every must be >= 1")

    @property
    def initial_cwnd(self) -> int:
        """Initial congestion window in bytes."""
        return self.initial_cwnd_segments * self.mss


#: Datacenter-tuned variant used by the Incast experiments (Fig. 13).
INCAST_RECOMMENDED = TcpParams(min_rto=milliseconds(1), initial_rto=milliseconds(1))


class CongestionControl:
    """Congestion-avoidance increase policy (Reno: one MSS per RTT)."""

    def ca_increase(self, sender: "TcpSender", acked_bytes: int) -> float:
        """Bytes to add to cwnd for ``acked_bytes`` acked in avoidance mode."""
        return sender.params.mss * acked_bytes / max(sender.cwnd, 1.0)

    def on_loss(self, sender: "TcpSender") -> None:
        """Hook invoked on any loss event (fast retransmit or timeout)."""

    def on_ack(self, sender: "TcpSender", acked_bytes: int, ecn_echo: bool) -> None:
        """Hook invoked on every new ACK before the window increase.

        ECN-reacting congestion controls (DCTCP) override this to track
        marked bytes and apply their own window reductions.
        """


class DataSource:
    """Supplies bytes to a sender; the plain case is a fixed-size flow."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"flow size must be positive, got {size}")
        self._size = size

    def available(self) -> int:
        """Total bytes currently available to send (monotone non-decreasing)."""
        return self._size

    def request(self, sender: "TcpSender", want: int) -> None:
        """Ask for more data; fixed-size sources have nothing to add."""

    def closed(self) -> bool:
        """Whether no more bytes will ever become available."""
        return True


class PacedSource(DataSource):
    """Releases a transfer to the sender in application-paced bursts.

    Datacenter applications emit data in bursts separated by gaps at
    10–100s-of-µs timescales (paper §2.6.1, Figure 5 — NIC offload trains,
    request/response turnarounds).  Those gaps are precisely what creates
    *flowlets*: when a gap exceeds the flowlet timeout, the next burst may
    take a different fabric path without reordering.  A continuously
    backlogged sender has no such gaps, so flowlet-grained schemes collapse
    to per-flow decisions.

    ``burst_bytes`` are released every gap drawn uniformly from
    ``[0.5, 1.5] × mean_gap``; the attached sender is woken when data
    arrives while it sits idle.
    """

    def __init__(
        self,
        sim: "Simulator",
        size: int,
        *,
        burst_bytes: int = 65_536,
        mean_gap: int = microseconds(600),
        stream: str = "paced-source",
    ) -> None:
        super().__init__(size)
        if burst_bytes <= 0 or mean_gap <= 0:
            raise ValueError("burst size and gap must be positive")
        self.sim = sim
        self.burst_bytes = burst_bytes
        self.mean_gap = mean_gap
        self._rng = sim.rng(stream)
        self._released = min(burst_bytes, size)
        self._sender: "TcpSender | None" = None
        if self._released < size:
            self.sim.schedule(self._next_gap(), self._release)

    def attach(self, sender: "TcpSender") -> None:
        """Bind the sender to wake when a burst is released."""
        self._sender = sender

    def available(self) -> int:
        return self._released

    def closed(self) -> bool:
        return self._released >= self._size

    def _next_gap(self) -> int:
        return max(1, round(float(self._rng.uniform(0.5, 1.5)) * self.mean_gap))

    def _release(self) -> None:
        self._released = min(self._released + self.burst_bytes, self._size)
        if self._released < self._size:
            self.sim.schedule(self._next_gap(), self._release)
        if self._sender is not None and not self._sender.finished:
            self._sender.on_data_available()


# Sender states.
OPEN = "open"
RECOVERY = "recovery"


@dataclass
class SenderStats:
    """Per-sender counters for diagnostics and tests."""

    segments_sent: int = 0
    bytes_sent: int = 0
    retransmissions: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0
    rtt_samples: int = 0
    last_rtt: int = 0
    srtt: float = 0.0


class TcpSender:
    """One direction of a TCP connection: paces ``source`` bytes to ``dst``."""

    def __init__(
        self,
        sim: "Simulator",
        src_host: Host,
        dst: int,
        source: DataSource,
        *,
        flow_id: int | None = None,
        sport: int = 0,
        dport: int = 0,
        params: TcpParams = TcpParams(),
        cc: CongestionControl | None = None,
        on_complete: Callable[["TcpSender"], None] | None = None,
    ) -> None:
        self.sim = sim
        self.host = src_host
        self.src = src_host.host_id
        self.dst = dst
        self.source = source
        self.flow_id = flow_id if flow_id is not None else next_flow_id(sim)
        self.sport = sport
        self.dport = dport
        self.params = params
        self.cc = cc or CongestionControl()
        self.on_complete = on_complete
        # Every segment hashes the same 5-tuple at each switch hop; stamping
        # the flow's one tuple on the packet spares it the property frame per
        # hop and a tuple of its own.
        self._five_tuple = (self.src, dst, sport, dport, "tcp")

        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd: float = float(params.initial_cwnd)
        self._rwnd = float(params.receive_window)
        self.ssthresh: float = self._rwnd
        self.state = OPEN
        self.dup_acks = 0
        self.recover = 0  # highest snd_nxt when recovery was entered

        self._srtt: float | None = None
        self._rttvar = 0.0
        self.rto = params.initial_rto
        self._backoff = 1
        self._rto_timer = Timer(sim, self._on_timeout)

        self.started_at = sim.now
        self.completed_at: int | None = None
        self.stats = SenderStats()

        src_host.bind(self.flow_id, self._on_packet)

    # -- public API -------------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting (call once, at the flow's arrival time)."""
        self._try_send()

    def on_data_available(self) -> None:
        """Wake an idle sender because its source released more bytes."""
        if self.completed_at is None:
            self._try_send()

    @property
    def finished(self) -> bool:
        """Whether every byte has been sent and acknowledged."""
        return self.completed_at is not None

    @property
    def inflight(self) -> int:
        """Unacknowledged bytes in the network."""
        return self.snd_nxt - self.snd_una

    @property
    def fct(self) -> int:
        """Flow completion time in ticks (valid once finished)."""
        if self.completed_at is None:
            raise RuntimeError(f"flow {self.flow_id} has not completed")
        return self.completed_at - self.started_at

    @property
    def srtt(self) -> float | None:
        """Smoothed RTT estimate in ticks, or None before the first sample."""
        return self._srtt

    # -- transmit path ------------------------------------------------------------

    def _try_send(self) -> None:
        mss = self.params.mss
        source = self.source
        # cwnd and snd_una are stable for the duration of this burst (they
        # only move on ACK/timeout), so resolve the window once; the
        # source's extent only moves through request(), so re-read it there.
        window = self.cwnd if self.cwnd < self._rwnd else self._rwnd
        available = source.available()
        while True:
            if self.snd_nxt >= available:
                source.request(self, mss)
                available = source.available()
                if self.snd_nxt >= available:
                    break
            segment = available - self.snd_nxt
            if segment > mss:
                segment = mss
            if self.snd_nxt - self.snd_una + segment > window:
                break
            self._send_segment(self.snd_nxt, segment, available)
            self.snd_nxt += segment

    def _send_segment(self, seq: int, length: int, available: int) -> None:
        """Put one segment on the NIC; ``available`` is the source's extent."""
        # Positional Packet: src, dst, size, protocol, sport, dport, flow_id,
        # seq, ack_no, payload_len, is_ack, fin, overlay, created_at.  FIN
        # rides the segment that reaches the end of a closed source.
        packet = Packet(
            self.src, self.dst, length + HEADER_BYTES, "tcp", self.sport,
            self.dport, self.flow_id, seq, -1, length, False,
            seq + length >= available and self.source.closed(),
            None, self.sim._now,
        )
        packet._five_tuple = self._five_tuple
        self.host.nic.send(packet)
        stats = self.stats
        stats.segments_sent += 1
        stats.bytes_sent += length
        if self._rto_timer.expires_at is None:
            self._rto_timer.start(self.rto)

    def _retransmit_head(self) -> None:
        """Resend the first unacknowledged segment and restart the RTO."""
        self._send_segment(
            self.snd_una,
            min(self.params.mss, self.snd_nxt - self.snd_una),
            self.source.available(),
        )
        self.stats.retransmissions += 1
        self._rto_timer.start(self.rto)

    # -- receive path (ACKs) --------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        if not packet.is_ack or self.completed_at is not None:
            return
        ack_no = packet.ack_no
        if ack_no > self.snd_una:
            self._on_new_ack(packet)
        elif ack_no == self.snd_una and self.snd_nxt > ack_no:
            if self.state == RECOVERY:
                self.cwnd += self.params.mss  # window inflation
            else:
                self.dup_acks += 1
                if self.dup_acks >= self.params.dupack_threshold:
                    self._fast_retransmit()
        self._try_send()
        # Completion needs snd_una >= available >= snd_nxt, so the source is
        # only consulted once nothing is in flight.
        if self.snd_una >= self.snd_nxt:
            source = self.source
            if source.closed() and self.snd_una >= source.available():
                self.completed_at = self.sim._now
                self._rto_timer.stop()
                self.host.unbind(self.flow_id)
                if self.on_complete is not None:
                    self.on_complete(self)

    def _on_new_ack(self, packet: Packet) -> None:
        ack_no = packet.ack_no
        acked = ack_no - self.snd_una
        self.snd_una = ack_no
        if packet.echo >= 0:
            self._sample_rtt(self.sim._now - packet.echo)
        self._backoff = 1
        self.cc.on_ack(self, acked, packet.ecn_echo)

        if self.state == RECOVERY:
            if ack_no >= self.recover:
                # Full ACK: leave recovery, deflate to ssthresh.
                self.cwnd = self.ssthresh
                self.state = OPEN
                self.dup_acks = 0
                tracer = self.sim.tracer
                if tracer is not None and tracer.tcp:
                    tracer.record(
                        TcpStateChanged, self.sim._now, self.flow_id,
                        RECOVERY, OPEN, self.cwnd, self.ssthresh,
                    )
            else:
                # NewReno partial ACK: retransmit the next hole, deflate by
                # the amount acked, re-inflate by one MSS.
                self._retransmit_head()
                self.cwnd = max(
                    self.cwnd - acked + self.params.mss, float(self.params.mss)
                )
                return
        else:
            self.dup_acks = 0
            if self.cwnd < self.ssthresh:
                self.cwnd += acked  # slow start (ABC)
            else:
                self.cwnd += self.cc.ca_increase(self, acked)

        if self.snd_nxt > ack_no:
            self._rto_timer.start(self.rto)
        else:
            self._rto_timer.stop()

    def _fast_retransmit(self) -> None:
        mss = self.params.mss
        self.recover = self.snd_nxt
        self.ssthresh = max(self.inflight / 2.0, 2.0 * mss)
        self.cwnd = self.ssthresh + self.params.dupack_threshold * mss
        self.state = RECOVERY
        self.stats.fast_retransmits += 1
        tracer = self.sim.tracer
        if tracer is not None and tracer.tcp:
            tracer.record(
                TcpStateChanged, self.sim._now, self.flow_id,
                OPEN, RECOVERY, self.cwnd, self.ssthresh,
            )
        self.cc.on_loss(self)
        self._retransmit_head()

    # -- timers ------------------------------------------------------------------

    def _on_timeout(self) -> None:
        if self.finished or self.inflight == 0:
            return
        mss = self.params.mss
        old_state = self.state
        inflight = self.inflight
        self.ssthresh = max(self.inflight / 2.0, 2.0 * mss)
        self.cwnd = float(mss)
        self.state = OPEN
        self.dup_acks = 0
        self.snd_nxt = self.snd_una  # go-back-N
        self.stats.timeouts += 1
        self._backoff = min(self._backoff * 2, 64)
        self.cc.on_loss(self)
        tracer = self.sim.tracer
        if tracer is not None and tracer.tcp:
            tracer.record(
                RtoFired, self.sim._now, self.flow_id, self.rto, self._backoff, inflight
            )
            if old_state != OPEN:
                tracer.record(
                    TcpStateChanged, self.sim._now, self.flow_id,
                    old_state, OPEN, self.cwnd, self.ssthresh,
                )
        self._try_send()
        self._rto_timer.start(min(self.rto * self._backoff, self.params.max_rto))

    def _sample_rtt(self, rtt: int) -> None:
        if rtt < 0:
            return
        stats = self.stats
        stats.rtt_samples += 1
        stats.last_rtt = rtt
        srtt = self._srtt
        if srtt is None:
            srtt = float(rtt)
            rttvar = rtt / 2.0
        else:
            rttvar = 0.75 * self._rttvar + 0.25 * abs(srtt - rtt)
            srtt = 0.875 * srtt + 0.125 * rtt
        self._srtt = stats.srtt = srtt
        self._rttvar = rttvar
        # RTO = srtt + max(4·rttvar, granularity), clamped to [min, max]_rto.
        spread = 4.0 * rttvar
        raw = srtt + (spread if spread > _RTO_GRANULARITY else _RTO_GRANULARITY)
        params = self.params
        if raw < params.min_rto:
            raw = params.min_rto
        elif raw > params.max_rto:
            raw = params.max_rto
        self.rto = int(raw)


class TcpReceiver:
    """The ACK-generating half of a connection."""

    def __init__(
        self,
        sim: "Simulator",
        dst_host: Host,
        src: int,
        *,
        flow_id: int,
        sport: int = 0,
        dport: int = 0,
        params: TcpParams = TcpParams(),
    ) -> None:
        self.sim = sim
        self.host = dst_host
        self.src = src  # the data sender's host id
        self.flow_id = flow_id
        self.sport = sport
        self.dport = dport
        self.params = params
        self.rcv_nxt = 0
        self._out_of_order: list[tuple[int, int]] = []  # disjoint, sorted
        self._unacked_segments = 0
        self._pending_ce = False
        self.bytes_received = 0
        self.acks_sent = 0
        self._five_tuple = (dst_host.host_id, src, dport, sport, "tcp")
        dst_host.bind(flow_id, self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        if packet.is_ack:
            return
        self.bytes_received += packet.payload_len
        if packet.ecn_ce:
            self._pending_ce = True
        seq = packet.seq
        end = seq + packet.payload_len
        in_order = seq <= self.rcv_nxt
        if in_order and not self._out_of_order:
            # In-order arrival with no reassembly backlog — the overwhelmingly
            # common case; skip the sort/merge machinery entirely.
            if end > self.rcv_nxt:
                self.rcv_nxt = end
        else:
            self._absorb(seq, end)
        self._unacked_segments += 1
        if (
            in_order
            and not packet.fin
            and self._unacked_segments < self.params.ack_every
        ):
            return  # delayed ACK: out-of-order data and FINs never wait
        self._unacked_segments = 0
        # Positional Packet: src, dst, size, protocol, sport, dport (reverse
        # direction), flow_id, seq, ack_no, payload_len, is_ack, fin, overlay,
        # created_at, echo (the data packet's timestamp, for RTT samples),
        # ecn_ce, ecn_echo.
        ack = Packet(
            self.host.host_id, self.src, ACK_BYTES, "tcp", self.dport,
            self.sport, self.flow_id, 0, self.rcv_nxt, 0, True, False, None,
            self.sim._now, packet.created_at, False, self._pending_ce,
        )
        ack._five_tuple = self._five_tuple
        self._pending_ce = False
        self.host.nic.send(ack)
        self.acks_sent += 1

    def _absorb(self, start: int, end: int) -> None:
        """Merge an arrival into the reassembly backlog (slow path)."""
        if end <= self.rcv_nxt:
            return  # pure duplicate
        self._out_of_order.append((max(start, self.rcv_nxt), end))
        self._out_of_order.sort()
        merged: list[tuple[int, int]] = []
        for interval in self._out_of_order:
            if merged and interval[0] <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], interval[1]))
            else:
                merged.append(interval)
        if merged and merged[0][0] <= self.rcv_nxt:
            self.rcv_nxt = merged.pop(0)[1]
        self._out_of_order = merged

    def close(self) -> None:
        """Unbind from the host (used when tearing down experiments)."""
        self.host.unbind(self.flow_id)


@dataclass
class FlowRecord:
    """Completion record used by experiment harnesses."""

    flow_id: int
    src: int
    dst: int
    size: int
    start_time: int
    fct: int
    ideal_fct: int = 0

    @property
    def normalized_fct(self) -> float:
        """FCT divided by the idle-network optimum (§5.2.1)."""
        if self.ideal_fct <= 0:
            raise ValueError("ideal_fct not set")
        return self.fct / self.ideal_fct


class TcpFlow:
    """Convenience wrapper creating a sender/receiver pair for one transfer."""

    def __init__(
        self,
        sim: "Simulator",
        src_host: Host,
        dst_host: Host,
        size: int,
        *,
        params: TcpParams = TcpParams(),
        sport: int | None = None,
        dport: int = 80,
        source: DataSource | None = None,
        cc: CongestionControl | None = None,
        on_complete: Callable[["TcpFlow"], None] | None = None,
    ) -> None:
        self.sim = sim
        self.size = size
        flow_id = next_flow_id(sim)
        self._user_callback = on_complete
        self.receiver = TcpReceiver(
            sim,
            dst_host,
            src_host.host_id,
            flow_id=flow_id,
            sport=sport if sport is not None else flow_id,
            dport=dport,
            params=params,
        )
        self.sender = TcpSender(
            sim,
            src_host,
            dst_host.host_id,
            source if source is not None else DataSource(size),
            flow_id=flow_id,
            sport=sport if sport is not None else flow_id,
            dport=dport,
            params=params,
            cc=cc,
            on_complete=self._on_sender_done,
        )
        if isinstance(source, PacedSource):
            source.attach(self.sender)

    def start(self) -> None:
        """Start the transfer now."""
        self.sender.start()

    @property
    def flow_id(self) -> int:
        """The flow id shared by both endpoints."""
        return self.sender.flow_id

    @property
    def finished(self) -> bool:
        """Whether the transfer completed."""
        return self.sender.finished

    @property
    def fct(self) -> int:
        """Flow completion time in ticks."""
        return self.sender.fct

    def _on_sender_done(self, sender: TcpSender) -> None:
        self.receiver.close()
        if self._user_callback is not None:
            self._user_callback(self)


__all__ = [
    "CongestionControl",
    "DataSource",
    "PacedSource",
    "FlowRecord",
    "INCAST_RECOMMENDED",
    "OPEN",
    "RECOVERY",
    "SenderStats",
    "TcpFlow",
    "TcpParams",
    "TcpReceiver",
    "TcpSender",
    "next_flow_id",
]
