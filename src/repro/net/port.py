"""Full-duplex ports and the links between them.

A :class:`Port` owns the egress side of one link direction: a drop-tail
queue feeding a store-and-forward transmitter at the port's line rate.  Two
ports are joined with :func:`connect`, which makes each the other's ``peer``;
a packet finishing transmission at one port propagates (after the link's
propagation delay) to the peer port and is handed to the peer's node via
``node.receive(packet, port)``.

Transmission is driven as a *packet train*: while the queue is backlogged,
one self-continuing boundary event (:meth:`Port._advance`) both finishes
the packet on the wire and dequeues its successor at the same instant,
rescheduling itself one serialization delay later.  Every dequeue still
happens at its true boundary time — ECN marking and drop decisions see the
queue occupancy they would under a per-packet (dequeue, finish) event pair
— and the per-packet ``on_transmit`` hooks fire once per packet in FIFO
order, so the batching is invisible to behaviour and to the obs plane (see
DESIGN.md "Event kernel").

Link failures (the asymmetry scenarios of Figs. 7(b), 11, 14, 16) are
injected by :meth:`Port.fail`, which silently discards traffic in both
directions, exactly like a cut cable.  Partial degradation — the
degraded-but-alive scenarios of the fault plane (:mod:`repro.faults`) — is
driven through :meth:`Port.degrade` (rate brownout, both directions) and
:meth:`Port.set_loss` (seeded per-packet drop after serialization).  The
per-port ``on_transmit`` hook list is where CONGA's DREs attach (§3.2)
when the fabric's congestion plane is switched on; switches store each
port's estimator on ``port.dre`` either way so rate changes can retarget it.
"""

from __future__ import annotations

from heapq import heappush
from operator import index
from typing import TYPE_CHECKING, Callable

from repro.core.params import DEFAULT_PROPAGATION_DELAY
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.obs.events import PacketDropped
from repro.units import SECOND, transmission_time

if TYPE_CHECKING:
    from repro.net.node import Node
    from repro.sim import Simulator

#: Default per-port buffering: shallow datacenter switch buffers (§2.1).
DEFAULT_QUEUE_CAPACITY = 10_000_000

#: Generation counter for link up/down state across *all* ports.  Switch
#: routing caches (spine ports-to-leaf, leaf candidate uplinks) are keyed on
#: this: any :meth:`Port.fail` / :meth:`Port.restore` bumps it, which lazily
#: invalidates every cache without the ports knowing who caches what.
_topology_epoch = 0


def _bump_topology_epoch() -> None:
    global _topology_epoch
    _topology_epoch += 1


class Port:
    """One endpoint of a full-duplex link.

    Parameters
    ----------
    sim:
        The simulator this port schedules on.
    node:
        Owning node; inbound packets are delivered to ``node.receive``.
    index:
        Port number local to the node (CONGA's LBTag is such an index).
    rate_bps:
        Egress line rate in bits per second.
    queue_capacity:
        Egress buffer size in bytes (None = unbounded, for host NICs whose
        senders are window-limited).
    """

    __slots__ = (
        "sim",
        "node",
        "index",
        "rate_bps",
        "nominal_rate_bps",
        "queue",
        "name",
        "peer",
        "propagation_delay",
        "up",
        "_transmitting",
        "tx_packets",
        "tx_bytes",
        "rx_packets",
        "rx_bytes",
        "busy_time",
        "lost_packets",
        "_loss_probability",
        "_loss_rng",
        "dre",
        "on_transmit",
        "_ns_per_byte",
        "_serialization_ns",
        "_heap",
        "_advance_ref",
        "_arrive_ref",
        "_receive",
    )

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        index: int,
        rate_bps: int,
        queue_capacity: int | None = DEFAULT_QUEUE_CAPACITY,
        name: str | None = None,
        ecn_threshold: int | None = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        self.sim = sim
        self.node = node
        self.index = index
        self.rate_bps = rate_bps
        #: The as-built line rate; ``degrade`` scales relative to this.
        self.nominal_rate_bps = rate_bps
        self.queue = DropTailQueue(queue_capacity, ecn_threshold_bytes=ecn_threshold)
        self.name = name or f"{node.name}[{index}]"
        self.peer: Port | None = None
        self.propagation_delay = DEFAULT_PROPAGATION_DELAY
        self.up = True
        self._transmitting = False
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.busy_time = 0
        #: Packets dropped by injected per-packet loss (after serialization).
        self.lost_packets = 0
        self._loss_probability = 0.0
        self._loss_rng = None
        #: The DRE measuring this port's egress, if a switch attached one;
        #: ``set_rate`` keeps its full-register target in sync.
        self.dre = None
        #: Callbacks fired with each packet at transmission start (DRE hook).
        self.on_transmit: list[Callable[[Packet], None]] = []
        # Serialization-delay fast path: when the line rate divides 8 Gbit
        # of nanoseconds evenly, ceil(size * 8e9 / rate) collapses to an
        # exact integer multiply; otherwise per-size results are memoized
        # (wire sizes repeat: MTU data, ACKs, trailing segments), so either
        # way the per-packet cost avoids big-integer ceiling division while
        # staying bit-identical to :func:`repro.units.transmission_time`.
        bits_ns = 8 * SECOND
        self._ns_per_byte = bits_ns // rate_bps if bits_ns % rate_bps == 0 else 0
        self._serialization_ns: dict[int, int] = {}
        # Port events are never cancelled, so the port pushes both per-hop
        # events onto the kernel's heap itself, in the handle-free
        # ``(time, seq, None, callback, packet)`` shape with prebound
        # methods, taking one sequence number per push exactly as
        # ``Simulator.schedule_fast`` does (DESIGN.md "One heap, two entry
        # shapes").  The alias stays valid: the kernel rebuilds its heap
        # list in place.  Times stay integral because sizes and propagation
        # delays are checked where they enter (``send``, ``connect``).
        self._heap = sim._heap
        self._advance_ref = self._advance
        self._arrive_ref = self._arrive
        self._receive = node.receive

    # -- wiring ---------------------------------------------------------------

    @property
    def connected(self) -> bool:
        """Whether this port has a peer at the other end of a cable."""
        return self.peer is not None

    def fail(self) -> None:
        """Take the link down in both directions (cut-cable semantics)."""
        self.up = False
        if self.peer is not None:
            self.peer.up = False
        _bump_topology_epoch()

    def restore(self) -> None:
        """Bring a failed link back up in both directions."""
        self.up = True
        if self.peer is not None:
            self.peer.up = True
        _bump_topology_epoch()

    # -- partial degradation (fault plane) -------------------------------------

    def set_rate(self, rate_bps: int) -> None:
        """Change this direction's line rate (serialization recomputed).

        Packets already being serialized finish at the old rate; the change
        takes effect from the next dequeue.  The attached DRE (if any) is
        retargeted so utilization keeps meaning "fraction of current line
        rate".
        """
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if rate_bps == self.rate_bps:
            return
        self.rate_bps = rate_bps
        bits_ns = 8 * SECOND
        self._ns_per_byte = bits_ns // rate_bps if bits_ns % rate_bps == 0 else 0
        self._serialization_ns = {}
        if self.dre is not None:
            self.dre.set_link_rate(rate_bps)

    def degrade(self, fraction: float) -> None:
        """Scale the link to ``fraction`` of nominal rate, both directions.

        ``fraction=1.0`` restores the nominal rate — a brownout window is a
        ``degrade(0.25)`` / ``degrade(1.0)`` pair.  The link stays up, so
        routing still uses it; only CONGA's congestion feedback can see the
        slowdown.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.set_rate(max(1, round(self.nominal_rate_bps * fraction)))
        if self.peer is not None:
            self.peer.set_rate(
                max(1, round(self.peer.nominal_rate_bps * fraction))
            )

    def set_loss(self, probability: float, rng=None) -> None:
        """Drop each transmitted packet with ``probability`` (this direction).

        Drops happen after serialization — the packet occupies the wire,
        then vanishes (corrupted-frame semantics), so the link still looks
        busy to the DRE.  ``probability`` strictly between 0 and 1 requires
        a seeded ``rng`` (a named per-simulator stream) so loss patterns
        are deterministic; 0 clears the fault and 1 black-holes the link
        without any draw.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if 0.0 < probability < 1.0 and rng is None:
            raise ValueError(
                "probabilistic loss needs a seeded rng (sim.rng(stream))"
            )
        self._loss_probability = probability
        self._loss_rng = rng if 0.0 < probability < 1.0 else None

    def residual_fraction(self) -> float:
        """Usable capacity as a fraction of the as-built rate.

        0 when the link is down or administratively black-holed; otherwise
        the current rate scaled by injected loss survival — the liveness /
        residual-rate weight fault-aware load balancing multiplies in.
        """
        if not self.up:
            return 0.0
        return (
            self.rate_bps * (1.0 - self._loss_probability) / self.nominal_rate_bps
        )

    # -- egress ---------------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission; returns False if it was dropped.

        The enqueue mirrors :meth:`DropTailQueue.offer` inline (keep the two
        in sync — the equivalence property in tests/test_net.py drives both):
        every fabric hop passes through here, and the method-call round trip
        was measurable.
        """
        size = packet.size
        if type(size) is not int or size < 0:
            _refuse(size, f"packet size at {self.name}")
        if not self.up or self.peer is None:
            # A down link drops silently; upper layers recover via timeouts.
            self.queue.stats.dropped_packets += 1
            self.queue.stats.dropped_bytes += size
            tracer = self.sim.tracer
            if tracer is not None and tracer.drop:
                self._drop_event(tracer, packet, "link-down")
            return False
        queue = self.queue
        occupancy = queue._bytes
        if (
            queue.capacity_bytes is not None
            and occupancy + size > queue.capacity_bytes
        ):
            stats = queue.stats
            stats.dropped_packets += 1
            stats.dropped_bytes += size
            tracer = self.sim.tracer
            if tracer is not None and tracer.drop:
                self._drop_event(tracer, packet, "queue-full")
            return False
        stats = queue.stats
        if not self._transmitting:
            # Idle transmitter ⇒ empty queue (``_advance`` only goes idle on
            # an empty deque), so the packet starts its train here with no
            # append/popleft round trip; occupancy 0 is below any ECN
            # threshold, and ``max_bytes`` counts the packet as offer() would.
            if size > stats.max_bytes:
                stats.max_bytes = size
            self._transmitting = True
            hooks = self.on_transmit
            if hooks:
                for hook in hooks:
                    hook(packet)
            if self._ns_per_byte:
                serialization = size * self._ns_per_byte
            else:
                serialization = self._serialization_ns.get(size)
                if serialization is None:
                    serialization = transmission_time(size, self.rate_bps)
                    self._serialization_ns[size] = serialization
            self.busy_time += serialization
            sim = self.sim
            sequence = sim._sequence
            sim._sequence = sequence + 1
            heappush(
                self._heap,
                (sim._now + serialization, sequence, None, self._advance_ref, packet),
            )
            return True
        if (
            queue.ecn_threshold_bytes is not None
            and occupancy >= queue.ecn_threshold_bytes
        ):
            packet.ecn_ce = True
            stats.ecn_marked += 1
        queue._queue.append(packet)
        occupancy += size
        queue._bytes = occupancy
        if occupancy > stats.max_bytes:
            stats.max_bytes = occupancy
        return True

    def _drop_event(self, tracer, packet: Packet, reason: str) -> None:
        tracer.record(
            PacketDropped, self.sim._now, self.name, packet.flow_id, packet.size, reason
        )

    def _lose(self, packet: Packet, reason: str) -> None:
        """Count a packet that vanished after occupying the wire."""
        self.lost_packets += 1
        tracer = self.sim.tracer
        if tracer is not None and tracer.drop:
            self._drop_event(tracer, packet, reason)

    def _advance(self, packet: Packet) -> None:
        """Advance the serialization train at one boundary (single event).

        ``packet`` just finished its wire time: finish bookkeeping runs
        (tx counters, injected loss, propagation to the peer), then the next
        queued packet begins serializing immediately — back-to-back packets
        form a *train* driven by this one self-continuing event, with the
        per-packet callbacks (DRE hooks, tracing) replayed in order at each
        packet's true serialization-start time.  Dequeues stay at boundary
        times, so queue-occupancy-dependent behavior (ECN marking, drops)
        is bit-identical to the unfused two-callback implementation.
        """
        self.tx_packets += 1
        self.tx_bytes += packet.size
        sim = self.sim
        now = sim._now
        # The loss draw precedes the link check so a cut mid-wire does not
        # shift the seeded loss stream.
        if self._loss_probability > 0.0 and (
            self._loss_probability >= 1.0
            or self._loss_rng.random() < self._loss_probability
        ):
            self._lose(packet, "loss")
        elif self.up:
            sequence = sim._sequence
            sim._sequence = sequence + 1
            heappush(
                self._heap,
                (now + self.propagation_delay, sequence, None, self.peer._arrive_ref, packet),
            )
        else:
            self._lose(packet, "link-down")
        # Continue the train: inline head dequeue (mirror of poll()).
        queue = self.queue
        pending = queue._queue
        if not pending:
            self._transmitting = False
            return
        packet = pending.popleft()
        size = packet.size
        queue._bytes -= size
        hooks = self.on_transmit
        if hooks:
            for hook in hooks:
                hook(packet)
        if self._ns_per_byte:
            serialization = size * self._ns_per_byte
        else:
            serialization = self._serialization_ns.get(size)
            if serialization is None:
                serialization = transmission_time(size, self.rate_bps)
                self._serialization_ns[size] = serialization
        self.busy_time += serialization
        sequence = sim._sequence
        sim._sequence = sequence + 1
        heappush(self._heap, (now + serialization, sequence, None, self._advance_ref, packet))

    # -- ingress --------------------------------------------------------------

    def _arrive(self, packet: Packet) -> None:
        self.rx_packets += 1
        self.rx_bytes += packet.size
        self._receive(packet, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Port({self.name}, {self.rate_bps / 1e9:g}Gbps, up={self.up})"


def _refuse(value, where: str) -> None:
    """Raise for a ``value`` that is not a non-negative integer.

    The cold path of the two checks that stand in for the kernel's per-push
    one, since a port pushes its events itself: a packet's size in
    :meth:`Port.send` and a cable's delay in :func:`connect`.  An integral
    value of another type (a numpy integer) passes.
    """
    try:
        index(value)
    except TypeError:
        raise TypeError(
            f"{where}: simulation time is integer nanoseconds, got {value!r}"
        ) from None
    if value < 0:
        raise ValueError(f"{where} must be non-negative, got {value}")


def residual_capacity(ports) -> float:
    """Aggregate usable capacity of ``ports`` as a fraction of nominal.

    Sums each port's :meth:`Port.residual_fraction` weighted by its as-built
    rate; 1.0 means the group is fully healthy, 0.0 that every member is
    down (or the group is empty).  Fault-aware load balancing uses this as
    the liveness weight of a port group (e.g. a pod spine's core uplinks).
    """
    nominal = 0
    effective = 0.0
    for port in ports:
        nominal += port.nominal_rate_bps
        effective += port.residual_fraction() * port.nominal_rate_bps
    return effective / nominal if nominal else 0.0


def connect(
    a: Port,
    b: Port,
    propagation_delay: int = DEFAULT_PROPAGATION_DELAY,
) -> None:
    """Join two ports with a full-duplex cable."""
    if a.peer is not None or b.peer is not None:
        raise ValueError(f"port already connected: {a if a.peer else b}")
    if type(propagation_delay) is not int or propagation_delay < 0:
        _refuse(propagation_delay, f"propagation delay between {a.name} and {b.name}")
    a.peer = b
    b.peer = a
    a.propagation_delay = propagation_delay
    b.propagation_delay = propagation_delay


__all__ = [
    "DEFAULT_PROPAGATION_DELAY",
    "DEFAULT_QUEUE_CAPACITY",
    "Port",
    "connect",
    "residual_capacity",
]
