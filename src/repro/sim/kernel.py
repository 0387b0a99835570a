"""Discrete-event simulation kernel.

The scheduler is a two-tier *calendar queue*: a ring of fixed-width time
buckets covers the near future (where almost every event lives — packet
serialization boundaries, propagation delays, RTO restarts), and a binary
heap holds the far-future overflow (long timers, idle-period wakeups).
Events are callbacks scheduled at an integer-nanosecond timestamp; ties are
broken by insertion order so that runs are fully deterministic.  Components
interact with the kernel through :class:`Simulator` (``now``, ``schedule``,
``run``) and through :class:`Timer` for restartable timeouts
(retransmission timers, flowlet age scans, ...).

Hot-path design notes (the evaluation needs millions of events per point):

* Entries are ``(time, sequence, ...)`` tuples, so bucket sorts and heap
  pushes compare integer tuples in C and never call back into Python —
  ``(time, sequence)`` is unique, so trailing elements are never compared.
* The bucket ring gives O(1) scheduling for near-future events: an insert
  is one shift, one subtract, and a ``list.append``.  A bucket is sorted
  *once*, lazily, when the wheel reaches it (near-sorted input, C timsort);
  draining it afterwards is an index increment per event instead of a heap
  sift.  Events landing in the already-active bucket are placed with
  ``bisect.insort`` so the total ``(time, sequence)`` order is preserved
  bit-for-bit against the single-heap implementation.
* The default bucket width (2048 ns, ``bucket_bits=11``) is sized from the
  serialization-delay distribution of the fabric: an MTU-sized frame at
  10 Gbps serializes in ~1.2 µs and propagation is 500 ns, so consecutive
  per-packet events land at most a bucket or two apart and the wheel stays
  dense.  The ring spans ``2**ring_bits`` buckets (~1 ms by default) which
  keeps millisecond-scale retransmission timers on the fast path too.
* Events may carry one ``arg`` delivered to the callback at fire time, so
  per-packet scheduling passes a bound method plus the packet instead of
  allocating a fresh closure per hop.
* :class:`Timer` uses *lazy reprogramming*: restarting a running timer only
  moves a soft deadline; the already-queued entry re-arms itself when it
  surfaces.  A TCP sender restarting its RTO on every ACK therefore costs
  two attribute writes, not a queue insert — while consuming one sequence
  number per restart exactly like the eager implementation did, which keeps
  event tie-breaking (and therefore whole-run results) bit-identical.
  Re-arm bounces are *not* counted in ``events_executed`` (they execute no
  simulation work); they are tracked separately as ``kernel.timer_rearms``
  so the executed-event count of a run is independent of how timers are
  stored — a digest-identical run reports a bit-identical event count.
* The scheduler compacts itself when more than half its entries are lazily
  cancelled, so storms of cancelled timers cannot inflate the pending set
  forever.
"""

from __future__ import annotations

import gc
import heapq
from bisect import insort
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

from repro.units import SECOND

if TYPE_CHECKING:
    import numpy as np

    from repro.obs.trace import Tracer

Callback = Callable[[], None]

#: Internal callback shape: zero-argument, or one-argument when scheduled
#: with the ``arg`` fast path.  ``...`` rather than a union so call sites
#: that dispatch on ``arg is None`` type-check under strict mypy.
_AnyCallback = Callable[..., None]


class SimulationError(RuntimeError):
    """Raised for scheduling errors such as events in the past."""


class _Event:
    """A calendar entry and cancellation handle.

    The scheduler orders ``(time, sequence)`` tuples, not these objects; the
    object rides along as the tuple's third element so cancellation stays an
    O(1) flag write.  ``arg`` is delivered to ``callback`` at fire time when
    not None (the no-allocation path for per-packet events).
    """

    __slots__ = ("time", "sequence", "callback", "arg", "cancelled")

    def __init__(
        self, time: int, sequence: int, callback: _AnyCallback, arg: Any = None
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.arg = arg
        self.cancelled = False

    def __lt__(self, other: "_Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"_Event(t={self.time}, seq={self.sequence}{state})"


#: Pending sets smaller than this are never worth compacting.
_COMPACT_FLOOR = 64

#: Default calendar bucket width, as a power of two of nanoseconds.  2048 ns
#: covers the common per-packet event gaps (serialization ~1.2 µs at 10 Gbps,
#: propagation 500 ns) so trains of back-to-back packets stay within one or
#: two buckets.
_BUCKET_BITS = 11

#: Default ring size, as a power of two of buckets.  512 buckets at 2048 ns
#: give a ~1 ms fast-path horizon — wide enough that minimum-RTO
#: retransmission timers schedule O(1) instead of through the overflow heap.
_RING_BITS = 9

#: Sentinel "no deadline" horizon for :meth:`Simulator.run`'s ``until``.
_FAR = 1 << 62


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the experiment.  Every component obtains its own
        independent, named substream via :meth:`rng`, so adding a new
        stochastic component never perturbs the draws of existing ones.
    bucket_bits:
        log2 of the calendar bucket width in nanoseconds.
    ring_bits:
        log2 of the number of calendar buckets; the fast-path horizon is
        ``2 ** (bucket_bits + ring_bits)`` nanoseconds.
    """

    def __init__(
        self, seed: int = 1, *, bucket_bits: int = _BUCKET_BITS, ring_bits: int = _RING_BITS
    ) -> None:
        if bucket_bits < 0 or ring_bits <= 0:
            raise ValueError(
                f"bucket_bits/ring_bits must be sane, got {bucket_bits}/{ring_bits}"
            )
        # Calendar state.  Entries are (time, sequence, event) for
        # cancellable events and (time, sequence, None, callback, arg) for
        # the no-handle fast path; (time, sequence) is unique so tuple
        # comparisons never reach index 2.  A bucket holds every pending
        # entry whose time lands in its window; the overflow heap holds
        # entries beyond the ring horizon.
        self._shift = bucket_bits
        self._ring_size = 1 << ring_bits
        self._mask = self._ring_size - 1
        self._ring: list[list[tuple[Any, ...]]] = [[] for _ in range(self._ring_size)]
        self._overflow: list[tuple[Any, ...]] = []
        self._cur_tick = 0
        #: Consumed prefix length of the active (current-tick) bucket.
        self._bucket_pos = 0
        #: Whether the active bucket has been activated (overflow adopted
        #: and sorted).  Inserts into an activated bucket use insort so the
        #: (time, sequence) total order survives mid-bucket scheduling.
        self._bucket_sorted = False
        #: Total queued entries (ring + overflow), including lazily
        #: cancelled ones not yet discarded.
        self._pending = 0
        self._now = 0
        self._sequence = 0
        self._seed = seed
        self._rngs: dict[str, np.random.Generator] = {}
        self._stopped = False
        self._compact_at = _COMPACT_FLOOR
        #: Timer re-arm bounces since construction (see :class:`Timer`);
        #: snapshot-diffed by :meth:`run` to keep ``events_executed``
        #: storage-independent.
        self._rearms = 0
        # Perf counters, written once per run() call and once per compaction
        # (never per event); reporting only.  They become the ``kernel.*``
        # metrics in :func:`repro.obs.metrics.collect_run_metrics`.
        #: Simulation callbacks executed across all :meth:`run` calls.  Timer
        #: re-arm bounces are excluded — they execute no simulation work — so
        #: the count equals what eager cancel-and-repush timers would report.
        self.events_executed = 0
        #: Parked-timer re-arm bounces absorbed by lazy reprogramming.
        self.timer_rearms = 0
        #: Wall-clock seconds spent inside :meth:`run` so far.
        self.wall_seconds = 0.0
        #: Lazy-cancel scheduler compactions performed so far.
        self.heap_compactions = 0
        #: Structured trace sink (see :mod:`repro.obs`).  ``None`` — the
        #: default — is the zero-overhead disabled state: instrumented hot
        #: paths gate every emission on ``sim.tracer is not None``.
        self.tracer: "Tracer | None" = None

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in integer nanoseconds."""
        return self._now

    # -- randomness ---------------------------------------------------------

    @property
    def seed(self) -> int:
        """The master seed this simulator was constructed with."""
        return self._seed

    def rng(self, stream: str) -> np.random.Generator:
        """Return the named deterministic random stream for ``stream``.

        Repeated calls with the same name return the same generator, so a
        component can call ``sim.rng("ecmp")`` wherever convenient.
        """
        generator = self._rngs.get(stream)
        if generator is None:
            import numpy as np

            from repro.net.hashing import stable_string_seed

            seed_seq = np.random.SeedSequence((self._seed, stable_string_seed(stream)))
            generator = np.random.default_rng(seed_seq)
            self._rngs[stream] = generator
        return generator

    # -- scheduling ----------------------------------------------------------

    def _insert(self, time: int, entry: tuple[Any, ...]) -> None:
        """Place ``entry`` (whose [0] is ``time``) into the calendar."""
        tick = time >> self._shift
        cur = self._cur_tick
        if tick - cur < self._ring_size:
            bucket = self._ring[tick & self._mask]
            if tick == cur and self._bucket_sorted:
                # Sequences are globally increasing, so a new entry sorts
                # after every queued entry at the same time: it belongs at
                # the tail unless an entry at a strictly later time exists.
                if bucket and time < bucket[-1][0]:
                    insort(bucket, entry, lo=self._bucket_pos)
                else:
                    bucket.append(entry)
            else:
                bucket.append(entry)
        else:
            heapq.heappush(self._overflow, entry)
        self._pending += 1

    def schedule(self, delay: int, callback: _AnyCallback, arg: Any = None) -> _Event:
        """Schedule ``callback`` to run ``delay`` ticks from now.

        When ``arg`` is not None the callback is invoked as ``callback(arg)``
        — the allocation-free alternative to binding the value in a closure.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule event at {self._now + delay} "
                f"before current time {self._now}"
            )
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = _Event(time, sequence, callback, arg)
        if self._pending >= self._compact_at:
            self._compact()
        self._insert(time, (time, sequence, event))
        return event

    def schedule_at(self, time: int, callback: _AnyCallback, arg: Any = None) -> _Event:
        """Schedule ``callback`` to run at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        return self.schedule(time - self._now, callback, arg)

    def schedule_fast(self, delay: int, callback: Callable[[Any], None], arg: Any) -> None:
        """Schedule a *non-cancellable* ``callback(arg)`` with no handle.

        The per-packet path schedules two events per hop, none of which is
        ever cancelled; this variant skips the :class:`_Event` allocation
        entirely and places a bare ``(time, sequence, None, callback, arg)``
        entry.  It consumes one sequence number exactly like
        :meth:`schedule`, so mixing the two paths cannot perturb event
        tie-breaking.  Use only when the event will never be cancelled.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule event at {self._now + delay} "
                f"before current time {self._now}"
            )
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        tick = time >> self._shift
        cur = self._cur_tick
        if tick - cur < self._ring_size:
            bucket = self._ring[tick & self._mask]
            if tick == cur and self._bucket_sorted and bucket and time < bucket[-1][0]:
                insort(bucket, (time, sequence, None, callback, arg), lo=self._bucket_pos)
            else:
                bucket.append((time, sequence, None, callback, arg))
        else:
            heapq.heappush(self._overflow, (time, sequence, None, callback, arg))
        self._pending += 1

    @staticmethod
    def cancel(event: _Event) -> None:
        """Cancel a pending event (lazy deletion)."""
        event.cancelled = True

    def _compact(self) -> None:
        """Drop lazily-cancelled entries when they outnumber live ones.

        Called from :meth:`schedule` at geometrically spaced pending-set
        sizes, so the scan amortizes to O(1) per insert; the rebuild itself
        only happens when at least half the calendar is dead weight.
        """
        total = self._pending
        live: list[tuple[Any, ...]] = []
        pos = self._bucket_pos
        cur_bucket = self._ring[self._cur_tick & self._mask]
        for bucket in self._ring:
            start = pos if bucket is cur_bucket else 0
            for i in range(start, len(bucket)):
                entry = bucket[i]
                event = entry[2]
                if event is None or not event.cancelled:
                    live.append(entry)
        for entry in self._overflow:
            event = entry[2]
            if event is None or not event.cancelled:
                live.append(entry)
        if len(live) * 2 <= total:
            for bucket in self._ring:
                bucket.clear()
            self._overflow.clear()
            self._bucket_pos = 0
            self._bucket_sorted = False
            self._pending = 0
            for entry in live:
                self._insert(entry[0], entry)
            self.heap_compactions += 1
        self._compact_at = max(_COMPACT_FLOOR, 2 * self._pending)

    # -- execution -----------------------------------------------------------

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run until the calendar drains, ``until`` is reached, or stopped.

        Returns the simulation time at exit.  ``until`` is an absolute time;
        when it is hit the clock is advanced exactly to it so that subsequent
        ``run`` calls resume cleanly.
        """
        self._stopped = False
        executed = 0
        rearms_start = self._rearms
        limit = _FAR if until is None else until
        shift = self._shift
        mask = self._mask
        ring = self._ring
        overflow = self._overflow
        pop = heapq.heappop
        # The event loop allocates container objects (entry tuples, packets,
        # headers) at a rate that makes CPython's gen-0 collector fire
        # thousands of times per simulated second, yet nearly everything is
        # freed by refcounting (cyclic garbage over a whole run is a few
        # hundred objects).  Pause collection for the duration of the loop;
        # object lifetimes are unchanged, so behavior is identical.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        started = perf_counter()  # repro-lint: ignore[D101] -- feeds wall_seconds, reporting only
        try:
            while self._pending and not self._stopped:
                tick = self._cur_tick
                bucket = ring[tick & mask]
                if not self._bucket_sorted:
                    # Activate: adopt due overflow entries, then order the
                    # bucket once so draining is an index walk.
                    if overflow and (overflow[0][0] >> shift) <= tick:
                        bound = (tick + 1) << shift
                        while overflow and overflow[0][0] < bound:
                            bucket.append(pop(overflow))
                    if len(bucket) > 1:
                        bucket.sort()
                    self._bucket_sorted = True
                pos = self._bucket_pos
                if pos >= len(bucket):
                    # Bucket drained: advance the wheel (jumping straight to
                    # the overflow head when the whole ring is empty).
                    if pos:
                        bucket.clear()
                        self._bucket_pos = 0
                    self._bucket_sorted = False
                    if self._pending == len(overflow):
                        self._cur_tick = overflow[0][0] >> shift
                    else:
                        self._cur_tick = tick + 1
                    continue
                entry = bucket[pos]
                time = entry[0]
                if time > limit:
                    self._now = until  # type: ignore[assignment]
                    # Rewind the wheel so events scheduled between runs at
                    # times before this (future) bucket still land ahead of
                    # the scan position.  pos > 0 implies the deadline falls
                    # inside the active bucket, where no rewind is needed.
                    new_tick = limit >> shift
                    if new_tick != tick:
                        self._cur_tick = new_tick
                        self._bucket_sorted = False
                    return self._now
                self._bucket_pos = pos + 1
                self._pending -= 1
                event = entry[2]
                if event is None:  # bare (time, seq, None, callback, arg)
                    self._now = time
                    entry[3](entry[4])
                elif event.cancelled:
                    continue  # discarded without advancing the clock
                else:
                    self._now = time
                    arg = event.arg
                    if arg is None:
                        event.callback()
                    else:
                        event.callback(arg)
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
        finally:
            rearms = self._rearms - rearms_start
            self.events_executed += executed - rearms
            self.timer_rearms += rearms
            self.wall_seconds += perf_counter() - started  # repro-lint: ignore[D101] -- reporting only
            if gc_was_enabled:
                gc.enable()
        if until is not None and not self._pending and self._now < until:
            self._now = until
        return self._now

    def stop(self) -> None:
        """Stop the current :meth:`run` loop after the executing event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of scheduled (possibly cancelled) events still queued."""
        return self._pending

    def _next_pending(self) -> tuple[list[tuple[Any, ...]] | None, int, tuple[Any, ...] | None]:
        """Locate the globally next pending entry without moving the wheel.

        Returns ``(container, index, entry)`` where ``container`` is the
        ring bucket holding the entry (``None`` when it lives at the head of
        the overflow heap).  Cold path — used only by bookkeeping such as
        :attr:`pending_live_events`.
        """
        overflow = self._overflow
        best: tuple[Any, ...] | None = overflow[0] if overflow else None
        cur = self._cur_tick
        for offset in range(self._ring_size):
            bucket = self._ring[(cur + offset) & self._mask]
            start = self._bucket_pos if offset == 0 else 0
            if start >= len(bucket):
                continue
            if offset == 0 and self._bucket_sorted:
                candidate = bucket[start]
                index = start
            else:
                index = min(range(start, len(bucket)), key=bucket.__getitem__)
                candidate = bucket[index]
            if best is None or candidate < best:  # type: ignore[operator]
                return self._ring[(cur + offset) & self._mask], index, candidate
            break  # earlier ring entries cannot exist in later buckets
        if best is not None:
            return None, 0, best
        return None, 0, None

    @property
    def pending_live_events(self) -> int:
        """Number of queued events that are not lazily cancelled, seen from
        the front of the schedule.

        Prunes cancelled events off the schedule front first, so a calendar
        holding *only* cancelled entries reports zero (and frees them)
        instead of making idle-detection loops spin until their timestamps
        pass.  Cancelled events buried under live ones are still counted —
        they are discarded cheaply when they surface.  A parked
        :class:`Timer` event whose soft deadline moved counts as one live
        event, exactly like the eager event it replaces.
        """
        while self._pending:
            container, index, entry = self._next_pending()
            if entry is None:  # pragma: no cover - pending implies an entry
                break
            event = entry[2]
            if event is None or not event.cancelled:
                break
            if container is None:
                heapq.heappop(self._overflow)
            elif index == self._bucket_pos and container is self._ring[
                self._cur_tick & self._mask
            ]:
                self._bucket_pos = index + 1
            else:
                del container[index]
            self._pending -= 1
        return self._pending

    @property
    def events_per_sec(self) -> float:
        """Average event throughput of all :meth:`run` calls so far."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_executed / self.wall_seconds


class Timer:
    """A restartable one-shot timer bound to a simulator.

    Typical uses: TCP retransmission timers, CONGA metric-aging scans, and
    DRE decay ticks (via :meth:`PeriodicTimer`-style rescheduling in the
    callback).  ``start`` on a running timer restarts it.

    Restarts are *lazily reprogrammed*: pushing the expiry later only moves
    ``expires_at`` and records the restart's sequence number; the entry
    already queued at the old expiry re-arms itself at the new deadline when
    it surfaces.  Each restart still consumes exactly one kernel sequence
    number — the same count the eager cancel-and-repush implementation
    consumed — so event tie-breaking, and with it whole-run determinism, is
    unchanged while per-ACK RTO restarts stop touching the calendar at all.
    Only a restart that pulls the expiry *earlier* than the queued entry
    (e.g. an RTT collapse shrinking the RTO) pays for a cancel and re-push.
    Re-arm bounces increment ``Simulator.timer_rearms`` instead of
    ``events_executed`` — see the kernel module docstring.
    """

    __slots__ = ("_sim", "_callback", "_event", "expires_at", "_seq")

    def __init__(self, sim: Simulator, callback: Callback) -> None:
        self._sim = sim
        self._callback = callback
        self._event: _Event | None = None
        #: Absolute expiry time, or None if not running.  A plain attribute
        #: so per-packet callers test it without a property frame; only
        #: :meth:`start`, :meth:`stop` and the expiry itself write it.
        self.expires_at: int | None = None
        self._seq = 0

    @property
    def running(self) -> bool:
        """Whether the timer currently has a pending expiry."""
        return self.expires_at is not None

    def start(self, delay: int) -> None:
        """(Re)arm the timer to fire ``delay`` ticks from now."""
        if delay < 0:
            raise SimulationError(f"cannot start a timer {-delay} ticks in the past")
        sim = self._sim
        deadline = sim._now + delay
        sequence = sim._sequence
        sim._sequence = sequence + 1
        self.expires_at = deadline
        self._seq = sequence
        event = self._event
        if event is not None:
            if event.time <= deadline:
                return  # soft move: the queued entry re-arms on surfacing
            event.cancelled = True  # pulled earlier: the entry is useless
        event = _Event(deadline, sequence, self._fire)
        self._event = event
        sim._insert(deadline, (deadline, sequence, event))

    def stop(self) -> None:
        """Disarm the timer if it is running."""
        event = self._event
        if event is not None:
            event.cancelled = True
            self._event = None
        self.expires_at = None

    def _fire(self) -> None:
        deadline = self.expires_at
        if deadline is None:  # pragma: no cover - stop() cancels the entry
            self._event = None
            return
        sim = self._sim
        event = self._event
        assert event is not None  # invariant: a deadline implies a queued entry
        sequence = self._seq
        if deadline > sim._now or sequence != event.sequence:
            # The soft deadline moved while we were queued: re-arm at the
            # deadline, reusing this entry's object and the sequence number
            # allocated by the restart that moved it.  The sequence check
            # matters when the restart landed exactly on the queued expiry
            # (deadline == now): the eager implementation would have fired
            # at the restart's sequence position among same-time events, so
            # re-push rather than firing early at the stale position.
            event.time = deadline
            event.sequence = sequence
            sim._rearms += 1
            sim._insert(deadline, (deadline, sequence, event))
            return
        self._event = None
        self.expires_at = None
        self._callback()


class PeriodicTimer:
    """Fires a callback every ``period`` ticks until stopped.

    Used for DRE multiplicative decay and the flowlet-table age-bit scan,
    both of which the CONGA ASIC implements as free-running hardware timers.
    """

    def __init__(
        self,
        sim: Simulator,
        period: int,
        callback: Callback,
        *,
        start: bool = True,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._sim = sim
        self.period = period
        self._callback = callback
        self._event: _Event | None = None
        if start:
            self.start()

    @property
    def running(self) -> bool:
        """Whether the periodic timer is active."""
        return self._event is not None

    def start(self) -> None:
        """Start ticking; the first tick occurs one period from now."""
        if self._event is None:
            self._event = self._sim.schedule(self.period, self._fire)

    def stop(self) -> None:
        """Stop ticking."""
        if self._event is not None:
            Simulator.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        self._event = self._sim.schedule(self.period, self._fire)
        self._callback()


def run_until_idle(sim: Simulator, quantum: int = SECOND, max_quanta: int = 10_000) -> int:
    """Drive ``sim`` in fixed quanta until no events remain.

    Convenience for tests and examples that want "run to completion" without
    picking a horizon in advance.  Uses :attr:`Simulator.pending_live_events`
    so a calendar holding only cancelled timers (e.g. a disarmed 60 s RTO)
    counts as idle immediately instead of burning one quantum per tick until
    the stale timestamps pass.
    """
    quanta = 0
    while sim.pending_live_events:
        sim.run(until=sim.now + quantum)
        quanta += 1
        if quanta >= max_quanta:
            raise SimulationError("simulation did not go idle within the quanta budget")
    return sim.now


__all__ = [
    "Callback",
    "PeriodicTimer",
    "SimulationError",
    "Simulator",
    "Timer",
    "run_until_idle",
]
