"""Property-based tests of core invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DEFAULT_PARAMS, DRE
from repro.fluid import FluidDemand, FluidLeafSpine, FluidLink, ecmp_split
from repro.net import Host, Packet, connect
from repro.net.hashing import stable_hash
from repro.sim import Simulator, run_until_idle
from repro.transport import TcpFlow, TcpParams, TcpReceiver
from repro.units import gbps
from repro.workloads import WEB_SEARCH


# ---------------------------------------------------------------------------
# TCP receiver: any arrival order of a segment set yields correct reassembly.
# ---------------------------------------------------------------------------


class TestReceiverReassembly:
    @given(
        order=st.permutations(list(range(8))),
        duplicates=st.lists(st.integers(min_value=0, max_value=7), max_size=4),
    )
    @settings(deadline=None, max_examples=60)
    def test_any_arrival_order_reassembles(self, order, duplicates):
        sim = Simulator()
        h1 = Host(sim, 0, gbps(10))
        h2 = Host(sim, 1, gbps(10))
        connect(h1.nic, h2.nic)
        receiver = TcpReceiver(sim, h2, 0, flow_id=1)
        segment = 1000
        for index in list(order) + list(duplicates):
            receiver._on_packet(
                Packet(
                    src=0, dst=1, size=segment + 58, flow_id=1,
                    seq=index * segment, payload_len=segment,
                )
            )
        assert receiver.rcv_nxt == 8 * segment
        assert receiver._out_of_order == []

    @given(
        segments=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20_000),
                st.integers(min_value=1, max_value=3_000),
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_rcv_nxt_is_exactly_the_contiguous_prefix(self, segments):
        sim = Simulator()
        h1 = Host(sim, 0, gbps(10))
        h2 = Host(sim, 1, gbps(10))
        connect(h1.nic, h2.nic)
        receiver = TcpReceiver(sim, h2, 0, flow_id=1)
        covered = set()
        for seq, length in segments:
            receiver._on_packet(
                Packet(
                    src=0, dst=1, size=length + 58, flow_id=1,
                    seq=seq, payload_len=length,
                )
            )
            covered.update(range(seq, seq + length))
        expected = 0
        while expected in covered:
            expected += 1
        assert receiver.rcv_nxt == expected


# ---------------------------------------------------------------------------
# Max-min fairness invariants.
# ---------------------------------------------------------------------------


class TestFluidInvariants:
    @given(
        demands=st.lists(
            st.floats(min_value=0.5, max_value=200.0), min_size=1, max_size=5
        ),
        capacities=st.tuples(
            st.floats(min_value=5.0, max_value=100.0),
            st.floats(min_value=5.0, max_value=100.0),
        ),
    )
    @settings(deadline=None, max_examples=50)
    def test_never_exceeds_capacity_or_demand(self, demands, capacities):
        c0, c1 = capacities
        network = FluidLeafSpine(
            [
                FluidLink("L0", "S0", c0),
                FluidLink("S0", "L1", c0),
                FluidLink("L0", "S1", c1),
                FluidLink("S1", "L1", c1),
            ]
        )
        flows = [FluidDemand("L0", "L1", d) for d in demands]
        allocation = ecmp_split(network, flows)
        delivered = allocation.delivered_throughput()
        for demand, rate in zip(flows, delivered):
            assert rate <= demand.rate + 1e-6
        assert sum(delivered) <= c0 + c1 + 1e-6


# ---------------------------------------------------------------------------
# DRE: decay is monotone and scale-invariant in time.
# ---------------------------------------------------------------------------


class TestDreInvariants:
    @given(
        increments=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1_000_000),  # time offset
                st.integers(min_value=1, max_value=100_000),  # bytes
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(deadline=None, max_examples=50)
    def test_register_bounded_by_total_bytes(self, increments):
        sim = Simulator()
        dre = DRE(sim, gbps(10), DEFAULT_PARAMS)
        total = 0
        now = 0
        for offset, size in sorted(increments):
            sim.run(until=offset)
            dre.on_transmit(size)
            total += size
        assert 0 <= dre.register <= total + 1e-9

    def test_decay_is_monotone_without_traffic(self):
        sim = Simulator()
        dre = DRE(sim, gbps(10), DEFAULT_PARAMS)
        dre.on_transmit(150_000)
        previous = dre.register
        for _ in range(40):
            sim.run(until=sim.now + DEFAULT_PARAMS.dre_period)
            current = dre.register
            assert current <= previous + 1e-9
            previous = current


# ---------------------------------------------------------------------------
# Hashing: stable, well-spread, protocol-aware.
# ---------------------------------------------------------------------------


class TestHashingProperties:
    @given(
        tuples=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.integers(min_value=0, max_value=1000),
                st.integers(min_value=0, max_value=65_535),
                st.integers(min_value=0, max_value=65_535),
                st.sampled_from(["tcp", "udp"]),
            ),
            min_size=2,
            max_size=50,
            unique=True,
        )
    )
    @settings(deadline=None, max_examples=50)
    def test_deterministic_and_salt_sensitive(self, tuples):
        for t in tuples:
            assert stable_hash(t) == stable_hash(t)
        salted = [stable_hash(t, salt=1) for t in tuples]
        unsalted = [stable_hash(t) for t in tuples]
        # With >= 2 distinct tuples, salting virtually never preserves all.
        if len(tuples) >= 8:
            assert salted != unsalted

    def test_spread_over_buckets(self):
        values = [
            stable_hash((0, 1, sport, 80, "tcp")) % 4 for sport in range(4000)
        ]
        counts = np.bincount(values, minlength=4)
        assert counts.min() > 800  # roughly uniform

    def test_memo_is_small_and_clearing_it_mid_run_changes_nothing(self, monkeypatch):
        from repro.analysis.fct import records_digest
        from repro.apps import ExperimentSpec
        from repro.net import hashing

        # ~9 MiB at ~0.3 KB an entry: a worker serving hundreds of points stays bounded.
        assert hashing._MEMO_CAP == 1 << 15
        tuples = [(src, 9, 40_000 + src, 80, "tcp") for src in range(300)]
        before = [stable_hash(t, salt) for t in tuples for salt in (0, 3)]
        spec = ExperimentSpec(
            "ecmp", "enterprise", load=0.6, seed=7, num_flows=30, size_scale=0.02
        )
        digest = records_digest(spec.run_live().records)
        # A cap far below one run's key population: the memo is cleared
        # wholesale again and again while packets are in flight.
        monkeypatch.setattr(hashing, "_MEMO_CAP", 16)
        hashing._memo.clear()
        assert records_digest(spec.run_live().records) == digest
        assert len(hashing._memo) <= 16
        assert [stable_hash(t, salt) for t in tuples for salt in (0, 3)] == before


# ---------------------------------------------------------------------------
# End-to-end conservation: every TCP byte sent is delivered exactly once.
# ---------------------------------------------------------------------------


class TestConservation:
    @given(size=st.integers(min_value=1, max_value=300_000))
    @settings(deadline=None, max_examples=20)
    def test_bytes_delivered_exactly_once(self, size):
        sim = Simulator(seed=size)
        h1 = Host(sim, 0, gbps(10))
        h2 = Host(sim, 1, gbps(10))
        connect(h1.nic, h2.nic)
        flow = TcpFlow(sim, h1, h2, size)
        flow.start()
        run_until_idle(sim)
        assert flow.finished
        assert flow.receiver.rcv_nxt == size

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(deadline=None, max_examples=10)
    def test_workload_samples_always_positive(self, seed):
        rng = np.random.default_rng(seed)
        sizes = WEB_SEARCH.sample_many(rng, 100)
        assert (sizes >= 1).all()
