"""Tests for the network substrate: packets, queues, ports, links, hosts."""

import heapq
import json
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from repro.net import (
    ACK_BYTES,
    DropTailQueue,
    HEADER_BYTES,
    Host,
    Node,
    OverlayHeader,
    Packet,
    Port,
    connect,
)
from repro.sim import Simulator
from repro.sim.pcg64 import PCG64Stream
from repro.units import gbps, transmission_time


def _wire_packets(size=1460):
    """(data packets, ACKs) one TcpFlow puts on a cable between two hosts."""
    from repro.transport import TcpFlow

    sim = Simulator()
    a, b = Host(sim, 1, gbps(10)), Host(sim, 2, gbps(10))
    connect(a.nic, b.nic)
    data, acks = [], []
    a.nic.on_transmit.append(data.append)
    b.nic.on_transmit.append(acks.append)
    flow = TcpFlow(sim, a, b, size, sport=10, dport=20)
    flow.start()
    sim.run()
    assert flow.finished
    return data, acks


class TestPacket:
    def test_data_packet_size_includes_headers(self):
        data, _ = _wire_packets(1460)
        (packet,) = data
        assert packet.size == 1460 + HEADER_BYTES
        assert packet.payload_len == 1460
        assert not packet.is_ack
        assert packet.fin
        assert packet.five_tuple == (1, 2, 10, 20, "tcp")

    def test_ack_packet(self):
        data, acks = _wire_packets(1460)
        (ack,) = acks
        assert ack.is_ack
        assert ack.size == ACK_BYTES
        assert ack.ack_no == 1460
        assert ack.echo == data[0].created_at
        assert ack.five_tuple == (2, 1, 20, 10, "tcp")

    def test_five_tuple(self):
        packet = Packet(src=1, dst=2, size=158, sport=10, dport=20, flow_id=5)
        assert packet.five_tuple == (1, 2, 10, 20, "tcp")

    def test_packet_ids_unique(self):
        a = Packet(src=1, dst=2, size=59)
        b = Packet(src=1, dst=2, size=59)
        assert a.packet_id != b.packet_id

    def test_overlay_header_defaults(self):
        header = OverlayHeader(src_leaf=0, dst_leaf=1)
        assert header.ce == 0
        assert not header.fb_valid

    def test_ack_echo_default(self):
        ack = Packet(src=2, dst=1, size=ACK_BYTES, is_ack=True, ack_no=0)
        assert ack.echo == -1


class TestDropTailQueue:
    def _packet(self, size=1000):
        return Packet(src=0, dst=1, size=size)

    def test_fifo_order(self):
        queue = DropTailQueue(10_000)
        first, second = self._packet(), self._packet()
        assert queue.offer(first)
        assert queue.offer(second)
        assert queue.poll() is first
        assert queue.poll() is second
        assert queue.poll() is None

    def test_capacity_enforced_in_bytes(self):
        queue = DropTailQueue(2500)
        assert queue.offer(self._packet(1000))
        assert queue.offer(self._packet(1000))
        assert not queue.offer(self._packet(1000))  # would exceed 2500
        assert queue.offer(self._packet(500))  # exactly fits
        assert queue.stats.dropped_packets == 1
        assert queue.stats.dropped_bytes == 1000

    def test_occupancy_tracking(self):
        queue = DropTailQueue(10_000)
        queue.offer(self._packet(700))
        queue.offer(self._packet(300))
        assert queue.byte_occupancy == 1000
        queue.poll()
        assert queue.byte_occupancy == 300
        assert queue.stats.max_bytes == 1000

    def test_unbounded(self):
        queue = DropTailQueue(None)
        for _ in range(1000):
            assert queue.offer(self._packet(10_000))
        assert queue.byte_occupancy == 10_000_000

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)

    @given(sizes=st.lists(st.integers(min_value=1, max_value=2000), max_size=60))
    def test_byte_conservation(self, sizes):
        queue = DropTailQueue(5000)
        for size in sizes:
            queue.offer(Packet(src=0, dst=1, size=size))
        drained = 0
        while True:
            packet = queue.poll()
            if packet is None:
                break
            drained += packet.size
        assert queue.byte_occupancy == 0
        assert drained + queue.stats.dropped_bytes == sum(sizes)


class _Sink(Node):
    """Test node recording arrivals."""

    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, port):
        self.received.append((packet, port, self.sim.now))


class TestPortAndLink:
    def _pair(self, rate=gbps(10), delay=500, capacity=10_000_000):
        sim = Simulator()
        a = _Sink(sim, "a")
        b = _Sink(sim, "b")
        pa = a.add_port(rate, capacity)
        pb = b.add_port(rate, capacity)
        connect(pa, pb, delay)
        return sim, a, b, pa, pb

    def test_delivery_timing_is_exact(self):
        sim, _a, b, pa, _pb = self._pair()
        packet = Packet(src=0, dst=1, size=1500)
        pa.send(packet)
        sim.run()
        serialization = transmission_time(1500, gbps(10))
        assert b.received == [(packet, _pb_of(b), serialization + 500)]

    def test_back_to_back_serialization(self):
        sim, _a, b, pa, _pb = self._pair()
        p1, p2 = Packet(src=0, dst=1, size=1500), Packet(src=0, dst=1, size=1500)
        pa.send(p1)
        pa.send(p2)
        sim.run()
        t1 = b.received[0][2]
        t2 = b.received[1][2]
        assert t2 - t1 == transmission_time(1500, gbps(10))

    def test_connect_rejects_double_wiring(self):
        sim = Simulator()
        a, b, c = _Sink(sim, "a"), _Sink(sim, "b"), _Sink(sim, "c")
        pa, pb, pc = (n.add_port(gbps(1)) for n in (a, b, c))
        connect(pa, pb)
        with pytest.raises(ValueError):
            connect(pa, pc)

    def test_connect_rejects_negative_delay_naming_both_ports(self):
        sim = Simulator()
        a, b = _Sink(sim, "a"), _Sink(sim, "b")
        pa, pb = a.add_port(gbps(1)), b.add_port(gbps(1))
        with pytest.raises(ValueError) as excinfo:
            connect(pa, pb, -5)
        assert pa.name in str(excinfo.value) and pb.name in str(excinfo.value)
        assert not pa.connected and not pb.connected
        connect(pa, pb, 0)  # zero is a legal (back-to-back) cable

    def test_connect_rejects_fractional_delay_naming_both_ports(self):
        import numpy as np

        sim = Simulator()
        a, b = _Sink(sim, "a"), _Sink(sim, "b")
        pa, pb = a.add_port(gbps(10)), b.add_port(gbps(10))
        with pytest.raises(TypeError, match="integer nanoseconds, got 500.0") as excinfo:
            connect(pa, pb, 500.0)
        assert pa.name in str(excinfo.value) and pb.name in str(excinfo.value)
        assert not pa.connected and not pb.connected
        connect(pa, pb, np.int64(500))  # numpy integers pass, as in the kernel
        pa.send(Packet(src=0, dst=1, size=1500))
        sim.run()
        assert b.received[0][2] == transmission_time(1500, gbps(10)) + 500

    def test_fractional_propagation_delay_fails_before_the_run(self, monkeypatch):
        import dataclasses

        from repro.apps import ExperimentSpec
        from repro.topology.leafspine import scaled_testbed

        runs = []
        monkeypatch.setattr(Simulator, "run", lambda self, *a, **k: runs.append(a))
        config = dataclasses.replace(scaled_testbed(), propagation_delay=500.0)
        spec = ExperimentSpec(
            "conga", "enterprise", load=0.5, seed=1, num_flows=5, size_scale=0.02,
            config=config,
        )
        with pytest.raises(TypeError, match="propagation delay between .*got 500.0"):
            spec.run()
        assert runs == []

    @pytest.mark.parametrize("busy", [False, True])
    def test_send_refuses_a_fractional_size_and_changes_nothing(self, busy):
        sim, _a, _b, pa, _pb = self._pair()
        if busy:
            pa.send(Packet(src=0, dst=1, size=1500))
            pa.send(Packet(src=0, dst=1, size=700))

        def state():
            stats = pa.queue.stats
            return (
                pa._transmitting, pa.busy_time, pa.queue.byte_occupancy, len(pa.queue),
                stats.dropped_packets, stats.dropped_bytes, stats.max_bytes,
                sim.pending_events, sim._sequence,
            )

        before = state()
        with pytest.raises(TypeError, match="packet size at .*got 1500.5"):
            pa.send(Packet(src=0, dst=1, size=1500.5))
        assert state() == before
        with pytest.raises(ValueError, match="non-negative"):
            pa.send(Packet(src=0, dst=1, size=-1))
        assert state() == before

    def test_port_heap_alias_survives_compaction(self):
        sim, _a, b, pa, pb = self._pair()
        heap = sim._heap
        serialization = transmission_time(1500, gbps(10))
        pa.send(Packet(src=0, dst=1, size=1500))
        pa.send(Packet(src=0, dst=1, size=1500))
        # The first packet is on the cable (a delivery entry at the heap's
        # head), the second on the wire.
        sim.run(until=serialization)
        assert sim.pending_live_events == 2 and pb.rx_packets == 0
        events = [sim.schedule(1_000_000 + i, lambda: None) for i in range(200)]
        for event in events:
            Simulator.cancel(event)
        while not sim.heap_compactions:  # the next checkpoint is at 256 entries
            sim.schedule(1_000_000, lambda: None)
        assert sim._heap is heap and sim.pending_events < 100
        assert pa._heap is sim._heap
        pa.send(Packet(src=0, dst=1, size=1500))
        sim.run()
        delivered = [time for *_, time in b.received]
        assert delivered == [k * serialization + 500 for k in (1, 2, 3)]
        assert (pb.rx_packets, pb.rx_bytes) == (3, 4500)

    def test_rx_counts_a_packet_once_it_arrives(self):
        sim, _a, b, pa, pb = self._pair()
        finish = transmission_time(1500, gbps(10))
        pa.send(Packet(src=0, dst=1, size=1500))
        sim.run(until=finish)  # finished on the wire, still on the cable
        assert (pa.tx_packets, pa.tx_bytes) == (1, 1500)
        assert (pb.rx_packets, pb.rx_bytes) == (0, 0) and b.received == []
        sim.run()
        assert (pb.rx_packets, pb.rx_bytes) == (1, 1500)
        assert b.received[0][2] == finish + 500

    def test_a_cut_after_the_finish_still_delivers(self):
        sim, _a, b, pa, pb = self._pair()
        pa.send(Packet(src=0, dst=1, size=1500))
        sim.run(until=transmission_time(1500, gbps(10)))
        pa.fail()  # the packet already left the port: the cable carries it
        sim.run()
        assert len(b.received) == 1 and b.received[0][1] is pb
        assert (pb.rx_packets, pb.rx_bytes) == (1, 1500)
        assert (pa.lost_packets, pa.lost_bytes) == (0, 0)

    def test_a_black_hole_counts_lost_bytes(self):
        sim, _a, b, pa, pb = self._pair()
        pa.set_loss(1.0)
        pa.send(Packet(src=0, dst=1, size=1500))
        pa.send(Packet(src=0, dst=1, size=700))
        sim.run()
        assert b.received == []
        assert (pa.tx_packets, pa.tx_bytes) == (2, 2200)
        assert (pa.lost_packets, pa.lost_bytes) == (2, 2200)
        assert (pb.rx_packets, pb.rx_bytes) == (0, 0)

    def test_send_without_peer_drops(self):
        sim = Simulator()
        a = _Sink(sim, "a")
        pa = a.add_port(gbps(1))
        assert not pa.send(Packet(src=0, dst=1, size=100))

    def test_failed_link_drops_both_directions(self):
        sim, a, b, pa, pb = self._pair()
        pa.fail()
        assert not pb.up
        assert not pa.send(Packet(src=0, dst=1, size=100))
        assert not pb.send(Packet(src=1, dst=0, size=100))
        sim.run()
        assert a.received == [] and b.received == []

    def test_restore(self):
        sim, _a, b, pa, _pb = self._pair()
        pa.fail()
        pa.restore()
        assert pa.send(Packet(src=0, dst=1, size=100))
        sim.run()
        assert len(b.received) == 1

    def test_queue_overflow_drops(self):
        sim, _a, b, pa, _pb = self._pair(capacity=3000)
        for _ in range(5):
            pa.send(Packet(src=0, dst=1, size=1500))
        sim.run()
        # One packet in flight immediately + two queued (3000B) fit.
        assert len(b.received) == 3
        assert pa.queue.stats.dropped_packets == 2

    def test_on_transmit_hook_fires_per_packet(self):
        sim, _a, _b, pa, _pb = self._pair()
        seen = []
        pa.on_transmit.append(lambda packet: seen.append(packet.size))
        pa.send(Packet(src=0, dst=1, size=700))
        pa.send(Packet(src=0, dst=1, size=900))
        sim.run()
        assert seen == [700, 900]

    def test_counters(self):
        sim, _a, b, pa, pb = self._pair()
        pa.send(Packet(src=0, dst=1, size=1500))
        sim.run()
        assert pa.tx_packets == 1 and pa.tx_bytes == 1500
        assert pb.rx_packets == 1 and pb.rx_bytes == 1500

    def test_rejects_bad_rate(self):
        sim = Simulator()
        node = _Sink(sim)
        with pytest.raises(ValueError):
            node.add_port(0)


    def test_link_cut_mid_wire_counts_the_packet_as_lost(self):
        from repro.obs import Tracer

        sim, _a, b, pa, pb = self._pair()
        sim.tracer = Tracer(categories="drop")
        pa.send(Packet(src=0, dst=1, size=1500, flow_id=9))
        pa.fail()  # the packet is on the wire; its boundary is still ahead
        sim.run()
        assert b.received == []
        # Conservation: everything transmitted is received, lost or dropped.
        assert (pa.tx_packets, pb.rx_packets, pa.lost_packets) == (1, 0, 1)
        assert pa.queue.stats.dropped_packets == 0
        (event,) = sim.tracer.events("drop")
        assert (event.reason, event.port, event.flow_id) == ("link-down", pa.name, 9)


#: Every port's ``(name, rx_packets, rx_bytes)`` at the end of two points,
#: recorded while each arrival still incremented the counters itself.
RX_GOLDEN = Path(__file__).parent / "golden" / "port_rx_counters.json"


def _rx_point(key):
    from repro.analysis.degradation import fault_cell
    from repro.apps import ExperimentSpec
    from repro.scenarios import load_scenario

    if key == "conga":
        return ExperimentSpec(
            "conga", "enterprise", load=0.6, seed=7, num_flows=30, size_scale=0.02
        )
    scenario = load_scenario(RX_GOLDEN.parents[2] / "scenarios" / "caft_recovery.yaml")
    faults = next(value for value in dict(scenario.axes)["faults"] if value)
    assert fault_cell(faults) == ("leaf", "brownout", 1)
    return scenario.template.with_(scheme="caft", seed=21, num_flows=250, faults=faults)


@pytest.mark.parametrize("key", ["conga", "caft-brownout"])
def test_derived_rx_counters_equal_the_counted_ones(key):
    fabric = _rx_point(key).run_live().fabric
    ports = [host.nic for host in fabric.hosts.values()]
    for switch in (*fabric.leaves, *fabric.spines, *fabric.cores):
        ports.extend(switch.ports)
    rows = [[port.name, port.rx_packets, port.rx_bytes] for port in ports]
    assert rows == json.loads(RX_GOLDEN.read_text())[key]


class _ReferencePort:
    """The unfused egress: every packet goes through offer() then poll().

    The model :meth:`Port.send`/``_advance`` inline and shortcut; built from
    the public :class:`DropTailQueue` so the two cannot drift silently.
    """

    def __init__(self, capacity, ecn_threshold):
        self.queue = DropTailQueue(capacity, ecn_threshold_bytes=ecn_threshold)
        self.on_wire = None
        self.accepted = self.dequeued = self.finished = 0
        self.started = []

    def send(self, packet):
        if not self.queue.offer(packet):
            return False
        self.accepted += 1
        if self.on_wire is None:
            self._start_next()
        return True

    def boundary(self):
        if self.on_wire is not None:
            self.finished += 1
            self._start_next()

    def _start_next(self):
        self.on_wire = self.queue.poll()
        if self.on_wire is not None:
            self.dequeued += 1
            self.started.append(self.on_wire.flow_id)


# Round sizes and limits make occupancy land exactly on a threshold or a
# capacity often enough to pin the >= / > edges.
_port_ops = st.lists(
    st.one_of(
        st.sampled_from([500, 1000, 1500]),
        st.integers(min_value=1, max_value=2500),
        st.just("boundary"),
    ),
    max_size=60,
)
_limits = st.one_of(
    st.none(), st.sampled_from([1500, 2000, 3000]), st.integers(1500, 6000)
)


class TestPortMatchesQueueModel:
    @given(
        capacity=_limits,
        ecn_threshold=st.one_of(_limits, st.sampled_from([500, 1000])),
        ops=_port_ops,
    )
    @example(capacity=None, ecn_threshold=500, ops=[500, 500, 500])  # occupancy == K marks
    @example(capacity=3000, ecn_threshold=None, ops=[1500, 1500, 1500, 1500, "boundary", 3001])
    def test_send_and_boundaries_match_offer_poll(self, capacity, ecn_threshold, ops):
        sim = Simulator()
        node, sink = _Sink(sim, "a"), _Sink(sim, "b")
        port = node.add_port(gbps(10), capacity, ecn_threshold=ecn_threshold)
        connect(port, sink.add_port(gbps(10)))
        started = []
        port.on_transmit.append(lambda packet: started.append(("first", packet.flow_id)))
        port.on_transmit.append(lambda packet: started.append(("second", packet.flow_id)))
        model = _ReferencePort(capacity, ecn_threshold)

        def check():
            stats, expected = port.queue.stats, model.queue.stats
            assert (
                stats.dropped_packets, stats.dropped_bytes, stats.ecn_marked, stats.max_bytes
            ) == (
                expected.dropped_packets, expected.dropped_bytes, expected.ecn_marked,
                expected.max_bytes,
            )
            assert port.queue.byte_occupancy == model.queue.byte_occupancy
            assert len(port.queue) == len(model.queue)
            # Enqueue/dequeue totals are derived on read, not stored.
            assert port.tx_packets == model.finished
            dequeued = port.tx_packets + port._transmitting
            assert dequeued == model.dequeued
            assert dequeued + len(port.queue) == model.accepted
            assert started == [
                (hook, flow_id) for flow_id in model.started for hook in ("first", "second")
            ]

        for index, op in enumerate(ops):
            if op == "boundary":
                sent = port.tx_packets
                while sim.pending_events and port.tx_packets == sent:
                    sim.run(max_events=1)
                model.boundary()
            else:
                mine = Packet(src=0, dst=1, size=op, flow_id=index)
                theirs = Packet(src=0, dst=1, size=op, flow_id=index)
                assert port.send(mine) == model.send(theirs)
                assert mine.ecn_ce == theirs.ecn_ce
            check()
        sim.run()
        while model.on_wire is not None:
            model.boundary()
        check()
        assert len(sink.received) == model.accepted

    def test_oversize_packet_to_an_idle_port_is_dropped(self):
        sim = Simulator()
        node, sink = _Sink(sim, "a"), _Sink(sim, "b")
        port = node.add_port(gbps(10), 3000)
        connect(port, sink.add_port(gbps(10)))
        assert not port.send(Packet(src=0, dst=1, size=3001))
        assert port.send(Packet(src=0, dst=1, size=3000))
        sim.run()
        stats = port.queue.stats
        assert (stats.dropped_packets, stats.dropped_bytes, stats.max_bytes) == (1, 3001, 3000)
        assert len(sink.received) == 1


class _TimedReferencePort:
    """An eager per-packet FIFO server, from DESIGN.md "The port's timing contract".

    Each accepted packet's serialization start and finish are fixed when it
    is sent and re-timed if the rate changes before it starts; its fate
    (loss, cut cable or arrival) is settled at its finish.  The kernel side
    is a plain ``heapq`` of ``(time, seq, kind, packet)``: a packet's
    boundary is pushed when it starts, its arrival at its finish before the
    next packet's boundary, and an independent chain ticks every ``period``
    until ``horizon``.  Every push takes the next sequence number.
    """

    def __init__(self, rate, capacity, delay, period, horizon):
        self.rate, self.capacity, self.delay = rate, capacity, delay
        self.period, self.horizon = period, horizon
        self.now = self.seq = self.fired = 0
        self.heap = []
        self.log = []
        self.up = True
        self.loss, self.loss_rng = 0.0, PCG64Stream(_LOSS_SEED)
        self.waiting = []  # accepted, not yet serializing: [ident, size, start, finish]
        self.wire_finish = 0  # finish of the last packet that started
        self.busy = self.tx_packets = self.tx_bytes = 0
        self.rx_packets = self.rx_bytes = self.lost = self.dropped = 0
        self._push(0, "tick", None)

    def _push(self, time, kind, packet):
        heapq.heappush(self.heap, (time, self.seq, kind, packet))
        self.seq += 1

    def _retime(self):
        """Lay the waiting packets back to back behind the wire, from now on."""
        finish = max(self.wire_finish, self.now)
        for packet in self.waiting:
            packet[2] = finish
            finish = packet[3] = finish + transmission_time(packet[1], self.rate)

    def send(self, ident, size):
        if not self.up:
            return self._drop(ident, "link-down")
        waiting = sum(packet[1] for packet in self.waiting)
        if self.capacity is not None and waiting + size > self.capacity:
            return self._drop(ident, "queue-full")
        self.waiting.append([ident, size, 0, 0])
        self._retime()
        if self.wire_finish <= self.now:  # the transmitter was idle
            self._start()
        return True

    def _drop(self, ident, reason):
        self.dropped += 1
        self.log.append(("drop", ident, reason, self.now))
        return False

    def _start(self):
        ident, size, start, finish = packet = self.waiting.pop(0)
        assert start == self.now
        self.log.append(("start", ident, self.now))
        self.busy += finish - start
        self.wire_finish = finish
        self._push(finish, "finish", packet)

    def set_rate(self, rate):
        self.rate = rate
        self._retime()

    def run(self, until=None):
        while self.heap and (until is None or self.heap[0][0] <= until):
            time, _, kind, packet = heapq.heappop(self.heap)
            self.now = time
            self.fired += 1
            if kind == "tick":
                self.log.append((
                    "tick", time, self.tx_packets, self.tx_bytes, self.rx_packets,
                    self.lost, self.busy,
                ))
                if time + self.period < self.horizon:
                    self._push(time + self.period, "tick", None)
            elif kind == "arrive":
                self.rx_packets += 1
                self.rx_bytes += packet[1]
                self.log.append(("arrive", packet[0], time))
            else:
                self._finish(packet)
        if until is not None:
            self.now = until

    def _finish(self, packet):
        ident, size = packet[:2]
        self.tx_packets += 1
        self.tx_bytes += size
        # The draw comes first, cable cut or not, and only for 0 < loss < 1.
        lost = self.loss >= 1.0 or (self.loss > 0.0 and self.loss_rng.random() < self.loss)
        if lost or not self.up:
            self.lost += 1
            self.log.append(("drop", ident, "loss" if lost else "link-down", self.now))
        else:
            self._push(self.now + self.delay, "arrive", packet)
        if self.waiting:
            self._start()


class _DropLog:
    """A tracer stand-in that puts every port drop into the shared log."""

    drop = True

    def __init__(self, log):
        self.log = log

    def record(self, _kind, time, _port, flow_id, _size, reason):
        self.log.append(("drop", flow_id, reason, time))


#: Rates whose serialization delay is a whole number of ns per byte (1, 2
#: Gbit/s) and rates that take the memoized ceiling (5, 10 Gbit/s).  125
#: bytes is 100, 200, 500 or 1000 ns on them, so round sizes put port
#: events on the chain's 100 ns grid and the tie-breaking is exercised.
_RATES = [gbps(10), gbps(5), gbps(2), gbps(1)]
_PERIOD, _HORIZON = 100, 30_000
#: Entropy of the port's and the model's loss streams.
_LOSS_SEED = 7
_timed_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("send"),
            st.one_of(st.sampled_from([125, 250, 500, 1000, 1500]), st.integers(1, 1600)),
        ),
        st.tuples(st.just("advance"), st.sampled_from([50, 100, 250, 400, 1000, 3000])),
        st.tuples(st.sampled_from(["fail", "restore"])),
        st.tuples(st.just("loss"), st.sampled_from([0.0, 1.0, 0.25, 0.5, 0.9])),
        st.tuples(st.just("rate"), st.sampled_from(_RATES)),
    ),
    max_size=40,
)


class TestPortMatchesTimedModel:
    @given(
        rate=st.sampled_from(_RATES),
        capacity=st.sampled_from([None, 1500, 3000]),
        delay=st.sampled_from([0, 100, 500, 1000]),
        ops=_timed_ops,
    )
    # 125 bytes is 100 ns: boundaries tie with the chain, and an arrival ties
    # with the next boundary (the arrival was pushed first, so it fires first).
    @example(
        rate=gbps(10), capacity=None, delay=100,
        ops=[("send", 125), ("send", 125), ("send", 125)],
    )
    # A cut while the first packet is on the wire, restored before the second ends.
    @example(
        rate=gbps(10), capacity=None, delay=500,
        ops=[("send", 1500), ("send", 1500), ("fail",), ("advance", 1300), ("restore",)],
    )
    # Loss and a cut together: the loss is named, the draw comes first.
    @example(
        rate=gbps(10), capacity=None, delay=500,
        ops=[("send", 1500), ("loss", 1.0), ("fail",), ("advance", 1300), ("loss", 0.0)],
    )
    # Probabilistic loss across a cut: every finish draws, down or up.
    @example(
        rate=gbps(10), capacity=None, delay=500,
        ops=[("loss", 0.5), ("send", 1500), ("send", 1500), ("send", 1500), ("fail",),
             ("advance", 2500), ("restore",), ("send", 1500), ("send", 1500)],
    )
    # A rate change mid-train: the packet on the wire keeps the old rate, the
    # next one takes the new (5 Gbit/s is memoized, so a stale memo shows).
    @example(
        rate=gbps(10), capacity=None, delay=0,
        ops=[("send", 1500), ("send", 1500), ("advance", 400), ("rate", gbps(5))],
    )
    def test_times_fates_counters_and_sequence_match(self, rate, capacity, delay, ops):
        sim = Simulator()
        log = []
        sim.tracer = _DropLog(log)
        node, sink = _Sink(sim, "a"), _Sink(sim, "b")
        sink.receive = lambda packet, _port: log.append(("arrive", packet.flow_id, sim.now))
        port = node.add_port(rate, capacity)
        peer = sink.add_port(rate)  # binds sink.receive, so after the override
        connect(port, peer, delay)
        port.on_transmit.append(lambda packet: log.append(("start", packet.flow_id, sim.now)))
        model = _TimedReferencePort(rate, capacity, delay, _PERIOD, _HORIZON)
        # The port's loss stream and the model's: two streams, one entropy.
        loss_rng = PCG64Stream(_LOSS_SEED)

        def tick(_):
            log.append((
                "tick", sim.now, port.tx_packets, port.tx_bytes, peer.rx_packets,
                port.lost_packets, port.busy_time,
            ))
            if sim.now + _PERIOD < _HORIZON:
                sim.schedule_fast(_PERIOD, tick, None)

        sim.schedule_fast(0, tick, None)

        def check():
            assert log == model.log
            assert (port.tx_packets, port.tx_bytes, port.busy_time, port.lost_packets) == (
                model.tx_packets, model.tx_bytes, model.busy, model.lost
            )
            assert (peer.rx_packets, peer.rx_bytes) == (model.rx_packets, model.rx_bytes)
            assert port.queue.stats.dropped_packets == model.dropped
            assert len(port.queue) == len(model.waiting)
            assert (sim.now, sim._sequence, sim.events_executed) == (
                model.now, model.seq, model.fired
            )

        for ident, (op, *args) in enumerate(ops):
            if op == "send":
                packet = Packet(src=0, dst=1, size=args[0], flow_id=ident)
                assert port.send(packet) == model.send(ident, args[0])
            elif op == "advance":
                sim.run(until=sim.now + args[0])
                model.run(until=model.now + args[0])
            elif op == "fail":
                port.fail()
                model.up = False
            elif op == "restore":
                port.restore()
                model.up = True
            elif op == "loss":
                port.set_loss(args[0], loss_rng)
                model.loss = args[0]
            else:
                port.set_rate(args[0])
                model.set_rate(args[0])
            check()
        sim.run()
        model.run()
        check()


def _pb_of(node):
    return node.ports[0]


class TestHost:
    def test_bind_and_deliver(self):
        sim = Simulator()
        h1 = Host(sim, 0, gbps(10))
        h2 = Host(sim, 1, gbps(10))
        connect(h1.nic, h2.nic)
        got = []
        h2.bind(42, got.append)
        h1.send(Packet(src=0, dst=1, size=100, flow_id=42))
        sim.run()
        assert len(got) == 1

    def test_unbound_flow_counted(self):
        sim = Simulator()
        h1 = Host(sim, 0, gbps(10))
        h2 = Host(sim, 1, gbps(10))
        connect(h1.nic, h2.nic)
        h1.send(Packet(src=0, dst=1, size=100, flow_id=7))
        sim.run()
        assert h2.undelivered_packets == 1

    def test_double_bind_rejected(self):
        sim = Simulator()
        host = Host(sim, 0, gbps(10))
        host.bind(1, lambda p: None)
        with pytest.raises(ValueError):
            host.bind(1, lambda p: None)

    def test_unbind_is_idempotent(self):
        sim = Simulator()
        host = Host(sim, 0, gbps(10))
        host.bind(1, lambda p: None)
        host.unbind(1)
        host.unbind(1)  # no error

    def test_node_receive_abstract(self):
        sim = Simulator()
        node = Node(sim, "n")
        with pytest.raises(NotImplementedError):
            node.receive(Packet(src=0, dst=1, size=1), None)
