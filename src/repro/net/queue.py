"""Drop-tail output queues with occupancy accounting.

Datacenter switches have shallow buffers (paper §2.1), so queue capacity is
expressed in bytes.  The queue records drop and occupancy statistics that the
evaluation harness uses for Fig. 11(c) and Fig. 16 (queue-length CDFs).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.series import DecimatedSeries
from repro.net.packet import Packet


@dataclass(slots=True)
class QueueStats:
    """Counters accumulated over a queue's lifetime.

    ``samples`` is a bounded :class:`~repro.core.series.DecimatedSeries`
    rather than a raw list, so arbitrarily long runs record occupancy
    without unbounded memory growth; it behaves like a list for reads.

    Enqueue/dequeue totals are derived on read, not stored (DESIGN.md
    "Per-hop budget"): a port has dequeued ``tx_packets`` plus the packet on
    its wire, and enqueued that plus ``len(queue)``.
    """

    dropped_packets: int = 0
    dropped_bytes: int = 0
    ecn_marked: int = 0
    max_bytes: int = 0
    samples: DecimatedSeries = field(default_factory=DecimatedSeries)


class DropTailQueue:
    """A FIFO byte-bounded drop-tail queue, optionally ECN-marking.

    Parameters
    ----------
    capacity_bytes:
        Maximum total bytes the queue may hold; a packet that does not fit
        is dropped in its entirety.  ``None`` means unbounded (used by host
        NIC models where the send buffer applies backpressure instead).
    ecn_threshold_bytes:
        When set, packets enqueued while the occupancy exceeds this
        threshold are CE-marked (DCTCP-style instantaneous marking).
    """

    __slots__ = ("capacity_bytes", "ecn_threshold_bytes", "_queue", "_bytes", "stats")

    def __init__(
        self,
        capacity_bytes: int | None = None,
        ecn_threshold_bytes: int | None = None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        if ecn_threshold_bytes is not None and ecn_threshold_bytes <= 0:
            raise ValueError(
                f"ECN threshold must be positive, got {ecn_threshold_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self._queue: deque[Packet] = deque()
        self._bytes = 0
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def byte_occupancy(self) -> int:
        """Bytes currently queued."""
        return self._bytes

    @property
    def is_empty(self) -> bool:
        """Whether the queue holds no packets."""
        return not self._queue

    def offer(self, packet: Packet) -> bool:
        """Enqueue ``packet`` if it fits; return False (and drop) otherwise."""
        if (
            self.capacity_bytes is not None
            and self._bytes + packet.size > self.capacity_bytes
        ):
            self.stats.dropped_packets += 1
            self.stats.dropped_bytes += packet.size
            return False
        if (
            self.ecn_threshold_bytes is not None
            and self._bytes >= self.ecn_threshold_bytes
        ):
            packet.ecn_ce = True
            self.stats.ecn_marked += 1
        self._queue.append(packet)
        self._bytes += packet.size
        if self._bytes > self.stats.max_bytes:
            self.stats.max_bytes = self._bytes
        return True

    def poll(self) -> Packet | None:
        """Dequeue and return the head packet, or None if empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        return packet

    def sample_occupancy(self) -> None:
        """Record the instantaneous byte occupancy for later CDF analysis."""
        self.stats.samples.append(self._bytes)


__all__ = ["DropTailQueue", "QueueStats"]
