"""Tests for leaf/spine forwarding, CE marking, and feedback plumbing."""

import pytest

from repro.lb import CongaSelector, EcmpSelector
from repro.net import Packet
from repro.sim import Simulator, run_until_idle
from repro.topology import build_leaf_spine, scaled_testbed
from repro.transport import UdpSink, UdpSource
from repro.units import gbps, megabytes


def _fabric(selector=None, hosts_per_leaf=2, seed=1, **cfg):
    sim = Simulator(seed=seed)
    fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=hosts_per_leaf, **cfg))
    fabric.finalize(selector or EcmpSelector.factory())
    return sim, fabric


def _udp(sim, fabric, src, dst, size=100_000, rate=gbps(1), flow_id=99):
    sink = UdpSink(fabric.host(dst), flow_id)
    source = UdpSource(
        sim, fabric.host(src), dst, size, rate, flow_id=flow_id
    )
    source.start()
    return source, sink


class TestLeafForwarding:
    def test_intra_leaf_traffic_stays_local(self):
        sim, fabric = _fabric()
        _source, sink = _udp(sim, fabric, src=0, dst=1)
        run_until_idle(sim)
        assert sink.received_bytes == 100_000
        # No packets should have touched any uplink.
        assert all(port.tx_packets == 0 for port in fabric.leaf_uplink_ports())

    def test_cross_leaf_traffic_uses_fabric(self):
        sim, fabric = _fabric()
        _source, sink = _udp(sim, fabric, src=0, dst=2)
        run_until_idle(sim)
        assert sink.received_bytes == 100_000
        assert sum(p.tx_packets for p in fabric.leaf_uplink_ports()) > 0

    def test_packets_decapsulated_before_delivery(self):
        sim, fabric = _fabric()
        received = []
        fabric.host(2).bind(55, received.append)
        packet = Packet(src=0, dst=2, size=1000, flow_id=55)
        fabric.host(0).send(packet)
        run_until_idle(sim)
        assert len(received) == 1
        assert received[0].overlay is None
        assert received[0].size == 1000

    def test_unroutable_host_dropped(self):
        sim, fabric = _fabric()
        leaf = fabric.leaves[0]
        packet = Packet(src=0, dst=999, size=100, flow_id=1)
        with pytest.raises(KeyError):
            leaf.receive(packet, leaf.ports[0])

    def test_unfinalized_leaf_asserts(self):
        sim = Simulator()
        fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
        packet = Packet(src=0, dst=2, size=100, flow_id=1)
        with pytest.raises(AssertionError):
            fabric.leaves[0].receive(packet, fabric.leaves[0].host_port(0))

    def test_all_uplinks_down_drops(self):
        sim, fabric = _fabric()
        for port in fabric.leaves[0].uplinks:
            port.fail()
        _source, sink = _udp(sim, fabric, src=0, dst=2)
        run_until_idle(sim)
        assert sink.received_bytes == 0
        assert fabric.leaves[0].dropped_unroutable > 0


class TestSpineForwarding:
    def test_spine_balances_parallel_links_by_flow(self):
        sim, fabric = _fabric()
        for flow in range(40):
            _udp(sim, fabric, src=0, dst=2, size=3000, flow_id=1000 + flow)
        run_until_idle(sim)
        for spine in fabric.spines:
            ports = [spine.ports[i] for i in spine.ports_to_leaf(1)]
            used = [p for p in ports if p.tx_packets > 0]
            if sum(p.tx_packets for p in ports) >= 8:
                assert len(used) == 2  # ECMP used both parallel links

    def test_spine_avoids_failed_parallel_link(self):
        sim, fabric = _fabric()
        fabric.fail_link(1, 0, 0)  # one of spine0's two links to leaf 1
        _source, sink = _udp(sim, fabric, src=0, dst=2, size=200_000)
        run_until_idle(sim)
        assert sink.received_bytes == 200_000

    def test_spine_drops_unencapsulated(self):
        sim, fabric = _fabric()
        spine = fabric.spines[0]
        spine.receive(Packet(src=0, dst=2, size=100), spine.ports[0])
        assert spine.dropped_unroutable == 1

    def test_spine_drops_when_destination_unreachable(self):
        sim, fabric = _fabric()
        spine = fabric.spines[0]
        fabric.fail_link(1, 0, 0)
        fabric.fail_link(1, 0, 1)
        packet = Packet(src=0, dst=2, size=100, flow_id=1)
        # Leaf 0 will not pick spine 0 anymore; force-feed the spine.
        from repro.net import OverlayHeader

        packet.overlay = OverlayHeader(src_leaf=0, dst_leaf=1)
        spine.receive(packet, spine.ports[0])
        assert spine.dropped_unroutable == 1


class TestCongestionMarking:
    def test_ce_reflects_max_along_path(self):
        sim, fabric = _fabric(CongaSelector.factory())
        received = []
        # Snoop CE values at the destination leaf by wrapping decapsulate.
        leaf1 = fabric.leaves[1]
        original = leaf1.tep.decapsulate

        def snoop(packet):
            received.append(packet.overlay.ce)
            return original(packet)

        leaf1.tep.decapsulate = snoop
        # Saturate leaf0's uplink 0 DRE, then send on it.
        fabric.leaves[0].uplink_dres[0].on_transmit(10_000_000)
        packet = Packet(src=0, dst=2, size=1000, flow_id=77, sport=1, dport=1)
        fabric.host(2).bind(77, lambda p: None)
        # Force the selector's flowlet cache to use uplink 0.
        entry = fabric.leaves[0].selector.flowlets.lookup(packet.five_tuple)
        fabric.leaves[0].selector.flowlets.install(entry, 0)
        fabric.host(0).send(packet)
        run_until_idle(sim)
        assert received and received[0] == 7

    def test_feedback_loop_populates_tables_end_to_end(self):
        sim, fabric = _fabric(CongaSelector.factory(), hosts_per_leaf=4)
        # Bidirectional traffic so piggybacking has carriers.
        _udp(sim, fabric, src=0, dst=4, size=500_000, flow_id=201)
        _udp(sim, fabric, src=4, dst=0, size=500_000, flow_id=202)
        run_until_idle(sim)
        leaf0 = fabric.leaves[0]
        # Leaf 0 must have learned at least one remote metric toward leaf 1.
        assert leaf0.tep.feedback_received > 0

    def test_dre_registers_grow_with_traffic(self):
        sim, fabric = _fabric(CongaSelector.factory())
        _udp(sim, fabric, src=0, dst=2, size=1_000_000, rate=gbps(5))
        sim.run(until=400_000)  # mid-transfer
        assert any(dre.register > 0 for dre in fabric.leaves[0].uplink_dres)


class TestThroughputAndCounters:
    def test_udp_throughput_conservation(self):
        sim, fabric = _fabric()
        size = megabytes(2)
        _source, sink = _udp(sim, fabric, src=0, dst=2, size=size, rate=gbps(2))
        run_until_idle(sim)
        assert sink.received_bytes == size

    def test_total_fabric_drops_zero_without_congestion(self):
        sim, fabric = _fabric()
        _udp(sim, fabric, src=0, dst=2, size=100_000)
        run_until_idle(sim)
        assert fabric.total_fabric_drops() == 0
