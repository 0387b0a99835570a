"""Tests for the discrete-event simulation kernel."""

import heapq
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import (
    PeriodicTimer,
    SimulationError,
    Simulator,
    Timer,
    run_until_idle,
)


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulator().now == 0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(42, lambda l=label: order.append(l))
        sim.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [100]
        assert sim.now == 100

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(77, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [77]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_events_scheduled_during_execution(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(5, lambda: order.append("nested"))

        sim.schedule(10, first)
        sim.schedule(12, lambda: order.append("second"))
        sim.run()
        # nested was scheduled for t=15, after "second" at t=12
        assert order == ["first", "second", "nested"]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, lambda: fired.append(1))
        Simulator.cancel(event)
        sim.run()
        assert fired == []

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.events_executed == 7


class TestRunControl:
    def test_run_until_pauses_clock(self):
        sim = Simulator()
        sim.schedule(1000, lambda: None)
        assert sim.run(until=500) == 500
        assert sim.now == 500
        sim.run()
        assert sim.now == 1000

    def test_run_until_resumes(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append("a"))
        sim.schedule(300, lambda: seen.append("b"))
        sim.run(until=200)
        assert seen == ["a"]
        sim.run(until=400)
        assert seen == ["a", "b"]

    def test_run_until_with_empty_heap_advances_clock(self):
        sim = Simulator()
        sim.run(until=1234)
        assert sim.now == 1234

    def test_stop(self):
        sim = Simulator()
        seen = []
        sim.schedule(1, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2, lambda: seen.append(2))
        sim.run()
        assert seen == [1]
        sim.run()
        assert seen == [1, 2]

    def test_max_events(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.schedule(i + 1, lambda i=i: seen.append(i))
        sim.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_run_until_idle(self):
        sim = Simulator()
        seen = []
        sim.schedule(5, lambda: sim.schedule(5, lambda: seen.append("done")))
        run_until_idle(sim)
        assert seen == ["done"]
        assert sim.pending_events == 0

    @pytest.mark.parametrize(
        "kwargs, error, match",
        [
            ({"until": 500}, SimulationError, r"500 before current time 2000"),
            ({"until": 2500.5}, TypeError, r"2500\.5"),
            ({"max_events": -1}, ValueError, r"-1"),
            ({"max_events": 0}, None, None),
        ],
    )
    def test_the_clock_never_runs_backwards(self, kwargs, error, match):
        sim = Simulator()
        fired = []
        sim.schedule(1000, fired.append, 1000)
        sim.schedule(3000, fired.append, 3000)
        assert sim.run(until=2000) == 2000
        if error is None:
            assert sim.run(**kwargs) == 2000  # runs nothing
        else:
            with pytest.raises(error, match=match):
                sim.run(**kwargs)
        assert sim.now == 2000
        assert fired == [1000]
        assert sim.pending_events == 1
        with pytest.raises(SimulationError):
            sim.schedule_at(600, fired.append, 600)
        sim.run()
        assert fired == [1000, 3000]


class TestIntegerTime:
    def test_non_integral_delays_and_times_are_refused(self):
        import numpy as np

        sim = Simulator()
        timer = Timer(sim, lambda: None)
        refused = [
            (lambda value: sim.schedule(value, print), 1.5),
            (lambda value: sim.schedule_at(value, print), 600.25),
            (lambda value: sim.schedule_fast(value, print, "x"), 2.0),
            (timer.start, 0.5),
        ]
        for call, value in refused:
            with pytest.raises(TypeError, match=repr(value)):
                call(value)
        assert sim.pending_events == 0
        fired = []
        sim.schedule(np.int64(5), fired.append, "numpy delay")
        sim.schedule_at(np.int32(7), fired.append, "numpy time")
        sim.schedule_fast(True, fired.append, "bool delay")
        Timer(sim, lambda: fired.append("numpy timer")).start(np.uint16(9))
        sim.run()
        assert fired == ["bool delay", "numpy delay", "numpy time", "numpy timer"]
        assert sim.now == 9


class TestRandomStreams:
    def test_named_streams_are_stable(self):
        sim = Simulator(seed=5)
        a = sim.rng("x")
        assert sim.rng("x") is a

    def test_streams_are_independent_of_creation_order(self):
        sim1 = Simulator(seed=5)
        first = sim1.rng("a").integers(1000)
        sim2 = Simulator(seed=5)
        sim2.rng("b")  # creating another stream first must not matter
        second = sim2.rng("a").integers(1000)
        assert first == second

    def test_different_seeds_differ(self):
        rng1, rng2 = Simulator(seed=1).rng("x"), Simulator(seed=2).rng("x")
        draws1 = [rng1.integers(2**30) for _ in range(8)]
        draws2 = [rng2.integers(2**30) for _ in range(8)]
        assert list(draws1) != list(draws2)

    def test_seed_property(self):
        assert Simulator(seed=99).seed == 99


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(50)
        sim.run()
        assert fired == [50]

    def test_restart_replaces_expiry(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(50)
        sim.schedule(30, lambda: timer.start(100))
        sim.run()
        assert fired == [130]

    def test_stop(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(50)
        timer.stop()
        sim.run()
        assert fired == []
        assert not timer.running

    def test_running_and_expiry(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.running
        assert timer.expires_at is None
        timer.start(10)
        assert timer.running
        assert timer.expires_at == 10


class TestPeriodicTimer:
    def test_fires_every_period(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 10, lambda: fired.append(sim.now))
        sim.run(until=35)
        timer.stop()
        assert fired == [10, 20, 30]

    def test_stop_and_restart(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 10, lambda: fired.append(sim.now))
        sim.run(until=15)
        timer.stop()
        sim.run(until=50)
        assert fired == [10]
        timer.start()
        sim.run(until=75)
        timer.stop()
        assert fired == [10, 60, 70]

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), 0, lambda: None)


class TestDeterminism:
    @given(delays=st.lists(st.integers(min_value=0, max_value=10**6), max_size=50))
    def test_arbitrary_schedules_execute_sorted(self, delays):
        sim = Simulator()
        seen = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: seen.append(d))
        sim.run()
        assert seen == sorted(delays, key=lambda d: (d,))
        # Stable for equal keys: equal delays keep insertion order.
        assert seen == sorted(delays)

    def test_identical_runs_produce_identical_traces(self):
        def run():
            sim = Simulator(seed=11)
            trace = []
            rng = sim.rng("w")

            def tick():
                trace.append((sim.now, int(rng.integers(100))))
                if sim.now < 1000:
                    sim.schedule(1 + rng.integers(49), tick)

            sim.schedule(1, tick)
            sim.run()
            return trace

        assert run() == run()


class TestLazyTimerReprogramming:
    """The lazy-restart fast path must be observationally identical to an
    eager cancel-and-repush timer while doing O(1) heap work per restart."""

    def test_restart_storm_keeps_one_heap_entry(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5)
        baseline = sim.pending_events
        for _ in range(10_000):
            timer.start(100)  # each restart pushes the deadline later
        # Lazy reprogramming: restarts move the soft deadline without
        # touching the heap, so the storm leaves no debris behind.
        assert sim.pending_events == baseline
        sim.run()
        assert fired == [100]

    def test_restart_storm_consumes_one_sequence_per_start(self):
        # Sequence-number parity with the eager implementation is what keeps
        # same-time event tie-breaking (and whole runs) bit-identical.
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        before = sim._sequence
        timer.start(5)
        for _ in range(1000):
            timer.start(100)
        assert sim._sequence - before == 1001

    def test_restart_earlier_fires_at_new_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(500)
        sim.schedule(10, lambda: timer.start(20))  # pull expiry earlier
        sim.run()
        assert fired == [30]

    def test_restart_onto_parked_expiry_keeps_restart_order(self):
        # A restart landing exactly on the queued expiry must fire at the
        # *restart's* sequence position among same-time events, as eager
        # would — not at the parked entry's older position.
        sim = Simulator()
        order = []
        timer = Timer(sim, lambda: order.append("timer"))
        timer.start(30)  # parked entry at t=30, oldest sequence
        sim.schedule(30, lambda: order.append("rival"))
        sim.schedule(20, lambda: timer.start(10))  # deadline 30 == parked
        sim.run()
        # Eager semantics: the restart re-inserts the timer *after* the
        # rival, so the rival fires first despite the older parked entry.
        assert order == ["rival", "timer"]

    def test_stop_start_interleavings(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(50)
        sim.schedule(10, timer.stop)
        sim.schedule(20, lambda: timer.start(15))   # refire at 35
        sim.schedule(30, lambda: timer.start(100))  # push to 130
        sim.schedule(40, timer.stop)
        sim.schedule(60, lambda: timer.start(5))    # refire at 65
        sim.run()
        assert fired == [65]

    def test_restart_from_callback_rearms(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(10)

        timer._callback = tick
        timer.start(10)
        sim.run()
        assert fired == [10, 20, 30]

    def test_running_and_expiry_track_soft_deadline(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(50)
        sim.schedule(10, lambda: timer.start(100))
        sim.run(until=20)
        assert timer.running
        assert timer.expires_at == 110
        sim.run()
        assert not timer.running
        assert timer.expires_at is None

    def test_negative_delay_rejected(self):
        timer = Timer(Simulator(), lambda: None)
        with pytest.raises(SimulationError):
            timer.start(-1)

    def test_pending_live_events_counts_parked_timer_once(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(10)
        for _ in range(100):
            timer.start(50)
        assert sim.pending_live_events == 1
        timer.stop()
        assert sim.pending_live_events == 0

    def test_run_until_idle_with_parked_timers(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(10)
        timer.start(250)
        run_until_idle(sim, quantum=100)
        assert fired == [250]


class TestHeapCompaction:
    def test_cancelled_storm_triggers_compaction(self):
        sim = Simulator()
        events = [sim.schedule(1000 + i, lambda: None) for i in range(5000)]
        for event in events:
            Simulator.cancel(event)
        # Pushing more events crosses the compaction threshold and sheds the
        # dead entries instead of carrying them in every push/pop.
        for i in range(5000):
            sim.schedule(10 + i, lambda: None)
        assert sim.heap_compactions >= 1
        assert sim.pending_events < 10_000

    def test_compaction_during_run_keeps_draining_new_events(self):
        # Regression: compaction must not replace the heap list object out
        # from under the run loop's local alias, or every event scheduled
        # after the compaction silently never fires.
        sim = Simulator()
        for i in range(300):
            Simulator.cancel(sim.schedule(10_000 + i, lambda: None))
        seen = []

        def chain(n):
            seen.append(n)
            if n < 50:
                sim.schedule(10, lambda: chain(n + 1))

        sim.schedule(1, lambda: chain(0))
        sim.run()
        assert sim.heap_compactions >= 1
        assert seen == list(range(51))

    def test_compaction_preserves_order(self):
        sim = Simulator()
        doomed = [sim.schedule(500, lambda: None) for _ in range(500)]
        order = []
        for delay in (40, 10, 30, 20):
            sim.schedule(delay, lambda d=delay: order.append(d))
        for event in doomed:
            Simulator.cancel(event)
        for i in range(100):  # trigger the compaction scan
            sim.schedule(60 + i, lambda: None)
        sim.run()
        assert order == [10, 20, 30, 40]


class TestEventArg:
    def test_schedule_with_arg_invokes_callback_with_it(self):
        sim = Simulator()
        seen = []
        sim.schedule(5, seen.append, "payload")
        sim.schedule_at(7, seen.append, "absolute")
        sim.run()
        assert seen == ["payload", "absolute"]

    def test_arg_events_cancel(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(5, seen.append, "nope")
        Simulator.cancel(event)
        sim.run()
        assert seen == []


class TestCalendarQueue:
    """Orderings a bucketed calendar must handle case by case — bucket
    rollover, runs that stop short of a queued event, timers moving far out
    and back — kept as regression cases for whatever stores the schedule
    (DESIGN.md "Event kernel")."""

    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=3_000_000), min_size=1, max_size=80
        ),
    )
    def test_pop_order_matches_heap_reference(self, delays):
        sim = Simulator()
        reference = []
        for seq, delay in enumerate(delays):
            heapq.heappush(reference, (delay, seq))
        popped = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: popped.append((sim.now, d)))
        sim.run()
        expected = []
        while reference:
            time, seq = heapq.heappop(reference)
            expected.append((time, delays[seq]))
        assert popped == expected

    @given(
        jobs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200_000),
                st.integers(min_value=0, max_value=200_000),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_reentrant_schedules_match_heap_reference(self, jobs):
        # Events scheduled from inside callbacks land ahead of (or tied
        # with) entries already queued while the run loop is mid-drain.  The
        # reference model allocates sequence numbers in the same order the
        # kernel does: initial jobs first, then one per fired job.
        sim = Simulator()
        popped = []

        def follow():
            popped.append(sim.now)

        def fire(second):
            popped.append(sim.now)
            sim.schedule(second, follow)

        for first, second in jobs:
            sim.schedule(first, fire, second)
        sim.run()

        ref_heap = []
        seq = 0
        followup = {}
        for first, second in jobs:
            heapq.heappush(ref_heap, (first, seq))
            followup[seq] = second
            seq += 1
        expected = []
        while ref_heap:
            time, s = heapq.heappop(ref_heap)
            expected.append(time)
            if s in followup:
                heapq.heappush(ref_heap, (time + followup.pop(s), seq))
                seq += 1
        assert popped == expected

    def test_until_exit_inside_future_bucket_preserves_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1000, lambda: order.append("far"))
        assert sim.run(until=500) == 500
        assert order == []
        # The run stopped short of a queued event; an event scheduled between
        # runs at an earlier time must still run first.
        sim.schedule(10, lambda: order.append("near"))  # fires at t=510
        sim.run()
        assert order == ["near", "far"]
        assert sim.now == 1000

    def test_repeated_until_steps_across_bucket_rollover(self):
        # Step the run deadline across a stream of events at a stride that
        # never lines up with it; each exit parks the clock between events
        # and the next run must resume without skipping or reordering.
        sim = Simulator()
        fired = []
        for t in range(0, 400, 7):
            sim.schedule_at(t, fired.append, t)
        clock = 0
        while sim.pending_live_events:
            clock = sim.run(until=clock + 13)
        assert fired == list(range(0, 400, 7))

    def test_timer_restart_into_overflow_region(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5)  # a near entry
        timer.start(1_000_000)  # soft move far out: the entry re-arms there
        sim.run()
        assert fired == [1_000_000]

    def test_timer_restart_from_overflow_back_into_ring(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1_000_000)  # a far entry
        timer.start(3)  # earlier deadline must take effect immediately
        sim.run()
        assert fired == [3]

    def test_timer_lazy_restart_interleaved_with_run(self):
        # Keepalive pattern: periodic traffic keeps pushing the deadline
        # out, so the stale entry bounces (re-arms) several times
        # before the timer finally fires once, 40 ns after the last poke.
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(20)
        for t in range(0, 200, 10):
            sim.schedule_at(t, lambda _=None: timer.start(40))
        sim.run()
        assert fired == [190 + 40]
        # Re-arm bounces are kernel bookkeeping, not simulation work: the
        # executed-event count must see 20 pokes + 1 firing, nothing more.
        assert sim.events_executed == 21
        assert sim.timer_rearms > 0


class _World:
    """What the kernel and the reference share: a fired event logs
    ``(label, now)`` and then performs its action through the world's own
    scheduling calls, so callbacks schedule, restart timers and stop runs."""

    PERIODS = (23, 41)

    def __init__(self):
        self.fired = []

    def act(self, payload):
        label, (kind, *args) = payload
        self.fired.append((label, self.now))
        if kind == "stop":
            self.stop()
        elif kind == "spawn":
            self.schedule("schedule_fast", args[0], (label + "+", ("none",)))
        elif kind == "timer":
            self.timer_start(*args)
        elif kind == "untimer":
            self.timer_stop(*args)

    def flood(self, delay):
        """Schedule 80 events and cancel three in four: enough dead weight
        for the kernel to compact with live entries scattered through it."""
        for i in range(80):
            self.schedule("schedule", (delay + 37 * i) % 64, (f"flood{i}", ("none",)))
            if i % 4:
                self.cancel(-1)


class _Kernel(_World):
    def __init__(self):
        super().__init__()
        sim = self.sim = Simulator()
        self.handles = []
        self.timers = [Timer(sim, partial(self.act, (f"timer{i}", ("none",)))) for i in (0, 1)]
        self.periodics = [
            PeriodicTimer(sim, period, partial(self.act, (f"tick{i}", ("none",))), start=False)
            for i, period in enumerate(self.PERIODS)
        ]

    @property
    def now(self):
        return self.sim.now

    def schedule(self, kind, delay, payload):
        if kind == "schedule_fast":
            self.sim.schedule_fast(delay, self.act, payload)
        elif kind == "schedule":
            self.handles.append(self.sim.schedule(delay, self.act, payload))
        else:
            self.handles.append(self.sim.schedule_at(self.sim.now + delay, self.act, payload))

    def cancel(self, k):
        if self.handles:
            Simulator.cancel(self.handles[k % len(self.handles)])

    def timer_start(self, i, delay):
        self.timers[i].start(delay)

    def timer_stop(self, i):
        self.timers[i].stop()

    def periodic(self, i, on):
        (self.periodics[i].start if on else self.periodics[i].stop)()

    def stop(self):
        self.sim.stop()


class _Reference(_World):
    """The kernel's contract with nothing lazy: one heapq of ``(time, seq,
    fire)`` entries, a set of cancelled sequence numbers, and timers that
    cancel and re-push on every restart."""

    def __init__(self):
        super().__init__()
        self.heap, self.cancelled, self.handles = [], set(), []
        self.now = self.seq = self.executed = 0
        self.timers, self.periodics = [None, None], [None, None]
        self.stopped = self.moved_later = False

    def push(self, delay, fire):
        entry = (self.now + delay, self.seq, fire)
        self.seq += 1
        heapq.heappush(self.heap, entry)
        return entry

    def schedule(self, kind, delay, payload):
        entry = self.push(delay, partial(self.act, payload))
        if kind != "schedule_fast":
            self.handles.append(entry[1])

    def cancel(self, k):
        if self.handles:
            self.cancelled.add(self.handles[k % len(self.handles)])

    def timer_start(self, i, delay):
        if self.timers[i] is not None:
            self.moved_later |= self.timers[i][0] <= self.now + delay
            self.cancelled.add(self.timers[i][1])
        self.timers[i] = self.push(delay, partial(self.timer_fire, i))

    def timer_stop(self, i):
        if self.timers[i] is not None:
            self.cancelled.add(self.timers[i][1])
            self.timers[i] = None

    def timer_fire(self, i):
        self.timers[i] = None
        self.act((f"timer{i}", ("none",)))

    def periodic(self, i, on):
        if on and self.periodics[i] is None:
            self.periodics[i] = self.push(self.PERIODS[i], partial(self.tick, i))[1]
        elif not on and self.periodics[i] is not None:
            self.cancelled.add(self.periodics[i])
            self.periodics[i] = None

    def tick(self, i):
        self.periodics[i] = self.push(self.PERIODS[i], partial(self.tick, i))[1]
        self.act((f"tick{i}", ("none",)))

    def stop(self):
        self.stopped = True

    def live(self):
        return [time for time, seq, _ in self.heap if seq not in self.cancelled]

    def run(self, until=None, max_events=None):
        self.stopped, executed = False, 0
        while self.heap and executed != max_events and not self.stopped:
            time, seq, fire = self.heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self.heap)
            if seq not in self.cancelled:
                self.now, executed = time, executed + 1
                fire()
        self.executed += executed


_DELAYS = st.integers(min_value=0, max_value=60)
_ACTIONS = st.one_of(
    st.just(("none",)),
    st.just(("stop",)),
    st.tuples(st.just("spawn"), _DELAYS),
    st.tuples(st.just("timer"), st.integers(0, 1), _DELAYS),
    st.tuples(st.just("untimer"), st.integers(0, 1)),
)
_OPS = st.one_of(
    st.tuples(
        st.sampled_from(["schedule", "schedule_fast", "schedule_at"]), _DELAYS, _ACTIONS
    ),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("flood"), _DELAYS),
    st.tuples(st.just("timer_start"), st.integers(0, 1), _DELAYS),
    st.tuples(st.just("timer_stop"), st.integers(0, 1)),
    st.tuples(st.just("periodic"), st.integers(0, 1), st.booleans()),
    st.tuples(st.just("until"), st.integers(0, 80)),
    st.tuples(st.just("max_events"), st.integers(1, 6)),
)


def _run_both(kernel, ref, until=None, max_events=None):
    """One ``run`` in each world; the clock and the fired log must agree."""
    sim = kernel.sim
    executed, rearms = sim.events_executed, sim.timer_rearms
    sim.run(until=until, max_events=max_events)
    done, bounced = sim.events_executed - executed, sim.timer_rearms - rearms
    if max_events is None:
        ref.run(until=until)
    else:
        # A re-arm bounce is a callback the budget counts; the reference
        # runs the events that really ran, and the kernel's clock may rest
        # on a trailing bounce, never past a live event.
        assert done + bounced <= max_events
        ref.run(max_events=done)
        if done + bounced < max_events:
            assert ref.stopped or not ref.live()
        if bounced:
            assert ref.now <= sim.now <= min(ref.live(), default=sim.now)
            ref.now = sim.now
    # A stopped run leaves the clock at the stopping event unless nothing at
    # all is queued; every other exit with a deadline lands on it.
    if until is not None and (not ref.stopped or not sim.pending_events):
        ref.now = until
    assert kernel.fired == ref.fired
    assert sim.now == ref.now
    assert sim.events_executed == ref.executed


class TestReferenceModel:
    """Random programs against a ~30-line eager heap: any storage the kernel
    uses must reproduce its fire order, fire times, clock and counts."""

    # The two programs the removed bucketed calendar failed (DESIGN.md "Event
    # kernel"): a head-of-schedule probe that skipped a later-scheduled
    # earlier event, and a re-arm at its old time queued behind a rival
    # holding a newer sequence number.
    @example(program=[("schedule", 1, ("none",)), ("cancel", 0), ("schedule", 0, ("none",))])
    @example(program=[("timer_start", 1, 0), ("timer_start", 1, 0), ("timer_start", 0, 0)])
    @settings(max_examples=300, deadline=None)
    @given(program=st.lists(_OPS, max_size=40))
    def test_kernel_matches_reference_model(self, program):
        kernel, ref = _Kernel(), _Reference()
        for index, (op, *args) in enumerate(program):
            if op == "until":
                _run_both(kernel, ref, until=kernel.sim.now + args[0])
            elif op == "max_events":
                _run_both(kernel, ref, max_events=args[0])
            else:
                if op.startswith("schedule"):
                    args = [op, args[0], (f"e{index}", args[1])]
                    op = "schedule"
                getattr(kernel, op)(*args)
                getattr(ref, op)(*args)
            live = kernel.sim.pending_live_events
            assert len(ref.live()) <= live <= kernel.sim.pending_events
            assert (live == 0) == (not ref.live())
        for world in (kernel, ref):
            world.periodic(0, False)
            world.periodic(1, False)
        while kernel.sim.pending_live_events:
            _run_both(kernel, ref)
        assert not ref.live()
        assert kernel.sim.timer_rearms == 0 or ref.moved_later
