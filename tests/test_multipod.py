"""Tests for the multi-pod (3-tier) topology extension (paper §7)."""

import pytest

from repro.lb import CongaSelector, EcmpSelector
from repro.sim import Simulator, run_until_idle
from repro.topology import MultiPodConfig, build_multipod
from repro.transport import TcpFlow, UdpSink, UdpSource
from repro.units import gbps, megabytes, seconds


def _fabric(selector=None, seed=1, **overrides):
    sim = Simulator(seed=seed)
    fabric = build_multipod(sim, MultiPodConfig(**overrides))
    fabric.finalize(selector or CongaSelector.factory())
    return sim, fabric


class TestConstruction:
    def test_default_shape(self):
        _sim, fabric = _fabric()
        assert len(fabric.leaves) == 4
        assert len(fabric.spines) == 4
        assert len(fabric.cores) == 2
        assert len(fabric.hosts) == 16

    def test_pod_directory(self):
        _sim, fabric = _fabric()
        assert fabric.leaf_pod == [0, 0, 1, 1]

    def test_spines_have_core_uplinks(self):
        _sim, fabric = _fabric()
        for spine in fabric.spines:
            assert len(spine.core_uplinks()) == 2  # one per core

    def test_cores_reach_all_pods(self):
        _sim, fabric = _fabric()
        for core in fabric.cores:
            assert len(core.ports_to_leaf(0)) == 2  # pod 0
            assert len(core.ports_to_leaf(2)) == 2  # pod 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiPodConfig(num_pods=0)
        with pytest.raises(ValueError):
            MultiPodConfig(num_cores=0)

    def test_core_routes_are_cached_until_the_topology_changes(self):
        _sim, fabric = _fabric()
        core = fabric.cores[0]
        routes = core.ports_to_leaf(2)  # leaf 2 is in pod 1
        assert core.ports_to_leaf(2) is routes
        failed = fabric.core_link(2, 0)  # spine 2 is in pod 1
        failed.fail()
        assert core.ports_to_leaf(2) is not routes
        assert len(core.ports_to_leaf(2)) == len(routes) - 1
        failed.restore()
        assert core.ports_to_leaf(2) == routes

    def test_negative_propagation_delay_fails_at_the_wiring_call(self):
        with pytest.raises(ValueError, match="propagation delay between .* and "):
            _fabric(propagation_delay=-5)

    def test_fabric_ports_include_core(self):
        _sim, fabric = _fabric()
        names = [p.name for p in fabric.fabric_ports()]
        assert any("core" in n for n in names)


class TestRouting:
    def test_intra_pod_traffic_stays_in_pod(self):
        sim, fabric = _fabric()
        sink = UdpSink(fabric.host(5), flow_id=9)
        UdpSource(sim, fabric.host(0), 5, 100_000, gbps(1), flow_id=9).start()
        run_until_idle(sim)
        assert sink.received_bytes == 100_000
        assert all(
            p.tx_packets == 0 for core in fabric.cores for p in core.ports
        )

    def test_inter_pod_traffic_crosses_core(self):
        sim, fabric = _fabric()
        sink = UdpSink(fabric.host(9), flow_id=9)
        UdpSource(sim, fabric.host(0), 9, 100_000, gbps(1), flow_id=9).start()
        run_until_idle(sim)
        assert sink.received_bytes == 100_000
        core_tx = sum(p.tx_packets for c in fabric.cores for p in c.ports)
        assert core_tx > 0

    def test_inter_pod_tcp_completes_near_ideal(self):
        sim, fabric = _fabric()
        flow = TcpFlow(sim, fabric.host(0), fabric.host(12), megabytes(2))
        flow.start()
        run_until_idle(sim)
        assert flow.finished
        norm = flow.fct / fabric.ideal_fct(0, 12, megabytes(2))
        assert norm < 1.3

    def test_inter_pod_ideal_larger_than_intra(self):
        _sim, fabric = _fabric()
        intra = fabric.ideal_fct(0, 5, 1_000_000)
        inter = fabric.ideal_fct(0, 9, 1_000_000)
        assert inter > intra

    def test_core_link_failure_rerouted(self):
        sim, fabric = _fabric()
        # Fail one spine->core link; ECMP at the spine must use the other.
        spine = fabric.spines[0]
        spine.core_uplinks()[0].fail()
        flows = [
            TcpFlow(sim, fabric.host(i), fabric.host(8 + i), 300_000)
            for i in range(4)
        ]
        for flow in flows:
            flow.start()
        run_until_idle(sim)
        assert all(flow.finished for flow in flows)

    def test_all_core_links_down_drops(self):
        sim, fabric = _fabric()
        for spine in fabric.spines[:2]:  # pod 0's spines
            for port in spine.core_uplinks():
                port.fail()
        sink = UdpSink(fabric.host(9), flow_id=9)
        UdpSource(sim, fabric.host(0), 9, 10_000, gbps(1), flow_id=9).start()
        sim.run(until=seconds(1))
        assert sink.received_bytes == 0


class TestCongaAcrossPods:
    def test_feedback_reaches_across_pods(self):
        """Leaf-to-leaf feedback spans pods: dst leaf piggybacks metrics."""
        sim, fabric = _fabric()
        forward = TcpFlow(sim, fabric.host(0), fabric.host(9), megabytes(1))
        reverse = TcpFlow(sim, fabric.host(9), fabric.host(0), megabytes(1))
        forward.start()
        reverse.start()
        run_until_idle(sim)
        leaf0 = fabric.leaves[0]
        assert leaf0.tep.feedback_received > 0

    def test_ce_marking_on_core_links(self):
        """A congested core link must be visible in the packet CE field."""
        sim, fabric = _fabric()
        # Saturate the DRE of every spine->core and core->spine port.
        for spine in fabric.spines[:2]:
            for port in spine.core_uplinks():
                # Reach the attached DRE through its transmit hook.
                from repro.net import Packet

                probe = Packet(src=0, dst=9, size=10_000_000, flow_id=0)
                from repro.net import OverlayHeader

                probe.overlay = OverlayHeader(src_leaf=0, dst_leaf=2)
                for hook in port.on_transmit:
                    hook(probe)
                assert probe.overlay.ce > 0

    def test_conga_handles_intra_pod_failure_better_than_ecmp(self):
        """7's claim: CONGA balances within each pod, helping all traffic."""

        def run(selector_factory):
            sim, fabric = _fabric(selector_factory, seed=5, hosts_per_leaf=4,
                                  links_per_pair=2)
            # Degrade one leaf-spine pair inside pod 0.
            fabric.fail_link(1, 1, 0)
            flows = []
            for i in range(4):
                flows.append(
                    TcpFlow(sim, fabric.host(i), fabric.host(4 + i), megabytes(2))
                )
            for flow in flows:
                sim.schedule(i * 100_000, flow.start)
            sim.run(until=seconds(5))
            assert all(flow.finished for flow in flows)
            return max(flow.sender.completed_at for flow in flows)

        ecmp_span = run(EcmpSelector.factory())
        conga_span = run(CongaSelector.factory())
        assert conga_span <= ecmp_span * 1.05
