"""Tests for the CAFT scheme and the full-fabric (3-tier) fault plane.

Covers the surface this plane adds on top of the original leaf-spine
faults: core-tier fault targets and grammar, per-port residual capacity,
tier-aware random failures, the caft selector's liveness weighting, and
the degradation metrics that score recovery runs.
"""

from __future__ import annotations

import pytest

from repro.analysis.degradation import DegradationSummary, window_goodput
from repro.apps import ExperimentSpec
from repro.faults import (
    LinkDegrade,
    LinkDown,
    LinkLoss,
    LinkUp,
    RandomLinkDowns,
    SwitchBlackout,
    parse_fault,
)
from repro.sim import Simulator
from repro.topology.failures import TIERS, fail_random_links
from repro.topology.multipod import MultiPodConfig, build_multipod
from repro.transport.tcp import FlowRecord
from repro.units import microseconds, milliseconds


class TestCoreFaultGrammar:
    def test_core_link_targets(self):
        assert parse_fault("link_down@0.5ms:s1-c0") == LinkDown(
            time=microseconds(500), spine=1, core=0
        )
        assert parse_fault("link_up@1ms:s1-c0.1") == LinkUp(
            time=milliseconds(1), spine=1, core=0, which=1
        )
        assert parse_fault("link_degrade@1ms:s2-c1=0.25") == LinkDegrade(
            time=milliseconds(1), spine=2, core=1, fraction=0.25
        )
        assert parse_fault("link_loss@1ms:s1-c0~1.0") == LinkLoss(
            time=milliseconds(1), spine=1, core=0, probability=1.0
        )

    def test_core_switch_blackout(self):
        assert parse_fault("blackout@1ms:core1+500us") == SwitchBlackout(
            time=milliseconds(1),
            kind="core",
            switch=1,
            duration=microseconds(500),
        )

    def test_random_downs_tier(self):
        assert parse_fault("random_downs@0:core=3") == RandomLinkDowns(
            time=0, count=3, tier="core"
        )
        assert parse_fault("random_downs@0=3") == RandomLinkDowns(
            time=0, count=3, tier="leaf"
        )


class TestResidualCapacity:
    def _fabric(self):
        sim = Simulator(seed=1)
        fabric = build_multipod(sim, MultiPodConfig())
        return fabric

    def test_healthy_port_residual_is_one(self):
        fabric = self._fabric()
        port = fabric.core_uplink_ports(1, 0)[0]
        assert port.residual_fraction() == 1.0

    def test_down_port_residual_is_zero(self):
        fabric = self._fabric()
        fabric.core_link(1, 0, 0).fail()
        assert fabric.core_uplink_ports(1, 0)[0].residual_fraction() == 0.0
        fabric.core_link(1, 0, 0).restore()
        assert fabric.core_uplink_ports(1, 0)[0].residual_fraction() == 1.0

    def test_black_hole_is_invisible_to_liveness_but_not_residual(self):
        fabric = self._fabric()
        port = fabric.core_uplink_ports(1, 0)[0]
        port.set_loss(1.0)
        assert port.up  # routing still believes in it
        assert port.residual_fraction() == 0.0


class TestTierAwareRandomFailures:
    def test_tiers(self):
        assert TIERS == ("leaf", "core")

    def test_same_stream_same_selection(self):
        a = build_multipod(Simulator(seed=1), MultiPodConfig())
        b = build_multipod(Simulator(seed=1), MultiPodConfig())
        fail_random_links(a, 2, "chaos-7", tier="core")
        fail_random_links(b, 2, "chaos-7", tier="core")
        downs_a = [
            (s, c)
            for s in range(len(a.spines))
            for c in range(len(a.cores))
            if not a.core_uplink_ports(s, c)[0].up
        ]
        downs_b = [
            (s, c)
            for s in range(len(b.spines))
            for c in range(len(b.cores))
            if not b.core_uplink_ports(s, c)[0].up
        ]
        assert downs_a == downs_b
        assert len(downs_a) == 2

    def test_bad_tier_rejected(self):
        with pytest.raises(ValueError):
            RandomLinkDowns(time=0, count=1, tier="aggregation")


def _tiny_multipod(scheme: str, faults=()) -> ExperimentSpec:
    return ExperimentSpec(
        scheme=scheme,
        workload="enterprise",
        load=0.5,
        seed=11,
        num_flows=40,
        size_scale=0.05,
        config=MultiPodConfig(),
        faults=tuple(faults),
    )


class TestCaftScheme:
    def test_healthy_run_never_fault_reroutes(self):
        point = _tiny_multipod("caft").run()
        assert point.completed == point.arrivals
        assert "lb.caft.fault_reroutes" not in point.metrics.counters
        assert point.tier_asymmetry == ()

    def test_black_hole_triggers_fault_reroutes(self):
        faults = (
            LinkLoss(time=microseconds(200), spine=1, core=0, probability=1.0),
            LinkLoss(time=milliseconds(5), spine=1, core=0, probability=0.0),
        )
        point = _tiny_multipod("caft", faults).run()
        assert point.metrics.counters.get("lb.caft.fault_reroutes", 0) > 0
        assert point.tier_asymmetry == (("core", 0.125),)

    def test_conga_records_no_caft_metric(self):
        faults = (
            LinkLoss(time=microseconds(200), spine=1, core=0, probability=1.0),
        )
        point = _tiny_multipod("conga", faults).run()
        assert "lb.caft.fault_reroutes" not in point.metrics.counters


@pytest.mark.caft_smoke
class TestCaftSmokeScenario:
    """CI gate: the committed caft smoke scenario through worker processes."""

    def test_subprocess_backend_matches_inline(self):
        pytest.importorskip("yaml", reason="scenario files need PyYAML")
        from pathlib import Path

        from repro.analysis.fct import records_digest
        from repro.runner import SubprocessBackend, run_sweep
        from repro.scenarios import load_scenario

        scenario = load_scenario(
            Path(__file__).resolve().parents[1] / "scenarios" / "caft_smoke.yaml"
        )
        specs = scenario.compile()
        inline = run_sweep(specs, cache=None)
        dispatched = run_sweep(specs, backend=SubprocessBackend(workers=2), cache=None)
        assert len(inline.points) == len(dispatched.points) == 2
        for mine, theirs in zip(inline.points, dispatched.points):
            assert mine.spec.content_hash() == theirs.spec.content_hash()
            assert records_digest(list(mine.records)) == records_digest(
                list(theirs.records)
            )
        # The fault actually bit: the caft point rerouted around the hole.
        by_scheme = {p.scheme: p for p in inline.points}
        assert by_scheme["caft"].tier_asymmetry == (("core", 0.125),)


class TestDegradationMetrics:
    def _records(self):
        # one flow completing per millisecond bucket, 1 KB each
        return [
            FlowRecord(
                flow_id=i,
                src=0,
                dst=1,
                size=1000,
                start_time=0,
                fct=milliseconds(i) + 1,
            )
            for i in range(6)
        ]

    def test_window_goodput_counts_only_the_window(self):
        records = self._records()
        # [1ms, 3ms) holds completions at 1ms+1 and 2ms+1: 2 KB over 2 ms.
        got = window_goodput(records, milliseconds(1), milliseconds(3))
        assert got == pytest.approx(2000 * 8e9 / milliseconds(2))
        assert window_goodput(records, milliseconds(1), milliseconds(1)) == 0.0

    def test_tier_asymmetry_round_trip(self):
        summary = DegradationSummary.from_records(
            self._records(),
            window_start=milliseconds(1),
            window_end=milliseconds(3),
            end_time=milliseconds(6),
            tier_asymmetry=(("core", 0.5), ("leaf", 0.0)),
        )
        assert summary.asymmetry_of("core") == 0.5
        assert summary.asymmetry_of("leaf") == 0.0
        assert summary.asymmetry_of("unknown") == 0.0

    def test_goodput_recovered(self):
        summary = DegradationSummary.from_records(
            self._records(),
            window_start=milliseconds(1),
            window_end=milliseconds(3),
            end_time=milliseconds(6),
        )
        assert summary.goodput_recovered == pytest.approx(
            summary.goodput_after_bps / summary.goodput_before_bps
        )
