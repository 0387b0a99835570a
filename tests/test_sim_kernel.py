"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, strategies as st

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
        draws1 = Simulator(seed=1).rng("x").integers(2**30, size=8)
        draws2 = Simulator(seed=2).rng("x").integers(2**30, size=8)
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
                    sim.schedule(int(rng.integers(1, 50)), tick)

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
    """Edge cases of the two-tier bucketed calendar queue (ring + overflow).

    The ring/bucket geometry is shrunk (tiny buckets, 4-slot ring) so a few
    hundred nanoseconds of simulated time exercises bucket rollover, ring
    wrap-around, and overflow adoption many times over.
    """

    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=3_000_000), min_size=1, max_size=80
        ),
        bucket_bits=st.integers(min_value=2, max_value=12),
        ring_bits=st.integers(min_value=1, max_value=6),
    )
    def test_pop_order_matches_heap_reference(self, delays, bucket_bits, ring_bits):
        import heapq

        sim = Simulator(bucket_bits=bucket_bits, ring_bits=ring_bits)
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
        # Events scheduled from inside callbacks land in the *active* bucket
        # (or ahead of it) while the wheel is mid-drain — the insort-behind-
        # the-scan-position path a plain pre-loaded run never touches.  The
        # reference model allocates sequence numbers in the same order the
        # kernel does: initial jobs first, then one per fired job.
        import heapq

        sim = Simulator(bucket_bits=6, ring_bits=3)
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
        sim = Simulator(bucket_bits=4, ring_bits=2)
        order = []
        sim.schedule(1000, lambda: order.append("far"))
        assert sim.run(until=500) == 500
        assert order == []
        # The wheel had scanned ahead to the far event's bucket before the
        # deadline exit; an event scheduled between runs at an earlier time
        # must still run first (cur_tick rewind on until-exit).
        sim.schedule(10, lambda: order.append("near"))  # fires at t=510
        sim.run()
        assert order == ["near", "far"]
        assert sim.now == 1000

    def test_repeated_until_steps_across_bucket_rollover(self):
        # Drive the run deadline through every bucket boundary and several
        # full ring wraps; each exit parks the wheel mid-calendar and the
        # next run must resume without skipping or reordering anything.
        sim = Simulator(bucket_bits=4, ring_bits=2)
        fired = []
        for t in range(0, 400, 7):
            sim.schedule_at(t, fired.append, t)
        clock = 0
        while sim.pending_live_events:
            clock = sim.run(until=clock + 13)
        assert fired == list(range(0, 400, 7))

    def test_timer_restart_into_overflow_region(self):
        sim = Simulator(bucket_bits=4, ring_bits=2)  # horizon: 4 * 16 ns
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5)  # entry lands in the ring
        timer.start(1_000_000)  # deadline far beyond the ring horizon
        sim.run()
        assert fired == [1_000_000]

    def test_timer_restart_from_overflow_back_into_ring(self):
        sim = Simulator(bucket_bits=4, ring_bits=2)
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1_000_000)  # parked in the overflow heap
        timer.start(3)  # earlier deadline must take effect immediately
        sim.run()
        assert fired == [3]

    def test_timer_lazy_restart_interleaved_with_run(self):
        # Keepalive pattern: periodic traffic keeps pushing the deadline
        # out, so the stale ring entry bounces (re-arms) several times
        # before the timer finally fires once, 40 ns after the last poke.
        sim = Simulator(bucket_bits=4, ring_bits=2)
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
