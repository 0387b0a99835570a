"""Discrete-event simulation kernel.

The scheduler is one binary heap (``heapq``) of ``(time, sequence, ...)``
entries.  Events are callbacks scheduled at an integer-nanosecond timestamp;
ties are broken by insertion order so that runs are fully deterministic.
Components interact with the kernel through :class:`Simulator` (``now``,
``schedule``, ``run``) and through :class:`Timer` for restartable timeouts
(retransmission timers, flowlet age scans, ...).

Hot-path design notes (the evaluation needs millions of events per point):

* Entries are ``(time, sequence, event)`` for cancellable events and
  ``(time, sequence, None, callback, arg)`` for the no-handle fast path, so
  heap pushes and pops compare integer tuples in C and never call back into
  Python — ``(time, sequence)`` is unique, so index 2 is never compared.
* Exactly two places push the bare shape: :meth:`Simulator.schedule_fast`
  for cold callers, and ``repro.net.port.Port`` for the two events of every
  packet hop (the train boundary and the arrival at the peer), which it
  pushes itself to save a Python frame per event.  Each such push takes
  one number from ``_sequence`` and appends to ``_heap``, an alias the port
  binds once: the list is only ever mutated in place, never replaced.  A
  port push refuses nothing, so the port checks the values its times are
  built from where they enter (packet size, propagation delay).
* One heap is the whole calendar.  The mean pending set of every run shape
  the repo ships is in the hundreds, where a push and a pop are a handful
  of C-level comparisons each; DESIGN.md "Event kernel" has the
  measurements and the run shape that would call for a bucketed calendar.
* Times are integer nanoseconds: a float delay or time is refused with a
  ``TypeError`` (numpy integers pass), so the clock can never go fractional.
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
from heapq import heapify, heappop, heappush
from operator import index
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

from repro.units import SECOND

if TYPE_CHECKING:
    from repro.obs.trace import Tracer
    from repro.sim.pcg64 import PCG64Stream

Callback = Callable[[], None]

#: Internal callback shape: zero-argument, or one-argument when scheduled
#: with the ``arg`` fast path.  ``...`` rather than a union so call sites
#: that dispatch on ``arg is None`` type-check under strict mypy.
_AnyCallback = Callable[..., None]


class SimulationError(RuntimeError):
    """Raised for scheduling errors such as events in the past."""


class _Event:
    """A heap entry's cancellation handle.

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"_Event(t={self.time}, seq={self.sequence}{state})"


#: Pending sets smaller than this are never worth compacting.
_COMPACT_FLOOR = 64

#: Sentinel "no limit" for :meth:`Simulator.run`'s deadline and event budget.
_FAR = 1 << 62


def _refuse(value: Any, now: int, *, delay: bool = True, action: str = "schedule event at") -> None:
    """Raise for a non-integral ``value`` or for a time before ``now``.

    The cold path of every call whose delay or time is not a plain ``int``
    at or after ``now``; an integral value of another type (a numpy
    integer, a bool) passes.
    """
    try:
        index(value)
    except TypeError:
        raise TypeError(f"simulation time is integer nanoseconds, got {value!r}") from None
    time = now + value if delay else value
    if time < now:
        raise SimulationError(f"cannot {action} {time} before current time {now}")


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the experiment.  Every component obtains its own
        independent, named substream via :meth:`rng`, so adding a new
        stochastic component never perturbs the draws of existing ones.
    """

    def __init__(self, seed: int = 1) -> None:
        #: The pending set, a ``heapq`` min-heap of ``(time, sequence, ...)``
        #: entries, lazily cancelled ones included.
        self._heap: list[tuple[Any, ...]] = []
        self._now = 0
        self._sequence = 0
        self._seed = seed
        self._rngs: dict[str, PCG64Stream] = {}
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

    def rng(self, stream: str) -> PCG64Stream:
        """Return the named deterministic random stream for ``stream``.

        Repeated calls with the same name return the same generator, so a
        component can call ``sim.rng("ecmp")`` wherever convenient.  The
        stream is seeded by ``(seed, stable_string_seed(stream))`` and draws
        what numpy's ``default_rng`` would from that entropy (see
        :mod:`repro.sim.pcg64`).
        """
        generator = self._rngs.get(stream)
        if generator is None:
            from repro.net.hashing import stable_string_seed
            from repro.sim.pcg64 import PCG64Stream

            generator = PCG64Stream(self._seed, stable_string_seed(stream))
            self._rngs[stream] = generator
        return generator

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: int, callback: _AnyCallback, arg: Any = None) -> _Event:
        """Schedule ``callback`` to run ``delay`` ticks from now.

        When ``arg`` is not None the callback is invoked as ``callback(arg)``
        — the allocation-free alternative to binding the value in a closure.
        """
        if type(delay) is not int or delay < 0:
            _refuse(delay, self._now)
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = _Event(time, sequence, callback, arg)
        if len(self._heap) >= self._compact_at:
            self._compact()
        heappush(self._heap, (time, sequence, event))
        return event

    def schedule_at(self, time: int, callback: _AnyCallback, arg: Any = None) -> _Event:
        """Schedule ``callback`` to run at absolute time ``time``."""
        if type(time) is not int or time < self._now:
            _refuse(time, self._now, delay=False)
        return self.schedule(time - self._now, callback, arg)

    def schedule_fast(self, delay: int, callback: Callable[[Any], None], arg: Any) -> None:
        """Schedule a *non-cancellable* ``callback(arg)`` with no handle.

        Skips the :class:`_Event` allocation entirely and pushes a bare
        ``(time, sequence, None, callback, arg)`` entry.  It consumes one
        sequence number exactly like :meth:`schedule`, so mixing the two
        paths cannot perturb event tie-breaking.  Use only when the event
        will never be cancelled.  The per-packet path does not come through
        here: ``Port`` pushes the same entry shape itself, one sequence
        number per push (see the module docstring).
        """
        if type(delay) is not int or delay < 0:
            _refuse(delay, self._now)
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._heap, (self._now + delay, sequence, None, callback, arg))

    @staticmethod
    def cancel(event: _Event) -> None:
        """Cancel a pending event (lazy deletion)."""
        event.cancelled = True

    def _compact(self) -> None:
        """Drop lazily-cancelled entries when they outnumber live ones.

        Called from :meth:`schedule` at geometrically spaced pending-set
        sizes, so the scan amortizes to O(1) per insert; the rebuild itself
        only happens when at least half the heap is dead weight.  The list
        is rebuilt in place: the run loop and every ``Port`` hold an alias
        to it.
        """
        heap = self._heap
        live = [entry for entry in heap if entry[2] is None or not entry[2].cancelled]
        if len(live) * 2 <= len(heap):
            heap[:] = live
            heapify(heap)
            self.heap_compactions += 1
        self._compact_at = max(_COMPACT_FLOOR, 2 * len(heap))

    # -- execution -----------------------------------------------------------

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run until the heap drains, ``until`` is reached, or stopped.

        Returns the simulation time at exit.  ``until`` is an absolute time
        no earlier than ``now``; when it is hit the clock is advanced exactly
        to it so that subsequent ``run`` calls resume cleanly.  ``max_events``
        bounds the callbacks run, timer re-arm bounces included; 0 runs
        nothing.
        """
        if until is None:
            limit = _FAR
        else:
            if type(until) is not int or until < self._now:
                _refuse(until, self._now, delay=False, action="run until")
            limit = until
        if max_events is None:
            budget = _FAR
        elif max_events < 0:
            raise ValueError(f"max_events must be non-negative, got {max_events}")
        else:
            budget = max_events
        self._stopped = False
        executed = 0
        rearms_start = self._rearms
        heap = self._heap
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
            while heap and executed < budget and not self._stopped:
                entry = heappop(heap)
                time = entry[0]
                if time > limit:
                    heappush(heap, entry)
                    self._now = limit
                    return limit
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
        finally:
            rearms = self._rearms - rearms_start
            self.events_executed += executed - rearms
            self.timer_rearms += rearms
            self.wall_seconds += perf_counter() - started  # repro-lint: ignore[D101] -- reporting only
            if gc_was_enabled:
                gc.enable()
        if until is not None and not heap:
            self._now = until
        return self._now

    def stop(self) -> None:
        """Stop the current :meth:`run` loop after the executing event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of scheduled (possibly cancelled) events still queued."""
        return len(self._heap)

    @property
    def pending_live_events(self) -> int:
        """Number of queued events that are not lazily cancelled, seen from
        the front of the schedule.

        Prunes cancelled events off the heap's head first, so a heap
        holding *only* cancelled entries reports zero (and frees them)
        instead of making idle-detection loops spin until their timestamps
        pass.  Cancelled events buried under live ones are still counted —
        they are discarded cheaply when they surface.  A parked
        :class:`Timer` event whose soft deadline moved counts as one live
        event, exactly like the eager event it replaces.
        """
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event is None or not event.cancelled:
                break
            heappop(heap)
        return len(heap)

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
    unchanged while per-ACK RTO restarts stop touching the heap at all.
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
        sim = self._sim
        if type(delay) is not int or delay < 0:
            _refuse(delay, sim._now)
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
        heappush(sim._heap, (deadline, sequence, event))

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
            heappush(sim._heap, (deadline, sequence, event))
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
    so a heap holding only cancelled timers (e.g. a disarmed 60 s RTO)
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
