"""Golden trace fixtures: the NDJSON bytes of three all-category traces.

``TraceLog.digest()`` is a sha256 over the NDJSON export, so pinning it
pins every exported byte — field order, number formatting, tuple→list —
independently of how the tracer stores what it recorded.  The three points
between them emit all ten event classes:

* ``conga-enterprise`` — flowlet decisions, DRE reads, table refreshes;
* ``incast-rto`` — 11 servers answering one client through a shallow edge
  buffer with a 1 ms RTO: queue-full drops, fast retransmits, RTOs;
* ``caft-brownout`` — scenarios/caft_recovery.yaml's leaf/brownout/x1 cell
  on the 2-pod Clos: fault applications, restores and caft's reroutes.

Two ``ecmp`` entries pin what an *observer* of a congestion-oblivious run
sees: ``ecmp-dre-table`` is the trace of a point whose only reader of DREs
and congestion tables is the tracer (``categories=("dre", "table")``), and
``ecmp-timeline`` is the ``Timeline.digest()`` of the same point sampled by
the timeline collector.  Either observer switches the congestion plane on
(DESIGN.md "Congestion plane on demand"); a plane left off under them
would record zeros, not fail.

The first three entries were recorded on the commit *before* the ring
switched from event objects to rows, the two ``ecmp`` ones on the commit
before the congestion plane became demand-driven.  All five were
regenerated when parallel links stopped sharing a port name: the traces
differ from their predecessors only in the renamed ports, and the timeline
gained the four series its duplicate names had hidden.  Regenerate (only
when the trace vocabulary or port naming is changed on purpose)::

    PYTHONPATH=src python tests/test_golden_traces.py --update
"""

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.degradation import fault_cell
from repro.apps import ExperimentSpec, IncastClient, ObsSpec, tcp_flow_factory
from repro.core.params import CongaParams
from repro.lb import CongaSelector
from repro.obs import Timeline, TimelineSpec, TraceLog, Tracer
from repro.scenarios import load_scenario
from repro.sim import Simulator
from repro.topology import build_leaf_spine, scaled_testbed
from repro.transport import TcpParams
from repro.units import microseconds, milliseconds, seconds

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_digests.json"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def conga_spec() -> ExperimentSpec:
    return ExperimentSpec(
        "conga", "enterprise", load=0.6, seed=7, num_flows=30, size_scale=0.02,
        obs=ObsSpec(),
    )


def ecmp_spec(obs: ObsSpec) -> ExperimentSpec:
    return ExperimentSpec(
        "ecmp", "enterprise", load=0.6, seed=7, num_flows=30, size_scale=0.02,
        obs=obs,
    )


def caft_spec() -> ExperimentSpec:
    scenario = load_scenario(SCENARIOS / "caft_recovery.yaml")
    faults = next(value for value in dict(scenario.axes)["faults"] if value)
    assert fault_cell(faults) == ("leaf", "brownout", 1)
    return scenario.template.with_(
        scheme="caft", seed=21, num_flows=250, faults=faults,
        # 250 flows run past the 6 ms restore and emit ~82 k events: a ring
        # that holds them all keeps the 600 us FaultApplied in the digest.
        obs=ObsSpec(buffer_limit=100_000),
    )


def incast_trace() -> TraceLog:
    sim = Simulator(seed=3)
    sim.tracer = Tracer()
    # Feedback ages in 300 us, so the first decision after a 1 ms RTO idle
    # reads an aged Congestion-To-Leaf cell (CongaTableAged).
    conga = CongaParams(metric_age_time=microseconds(300))
    fabric = build_leaf_spine(
        sim, scaled_testbed(hosts_per_leaf=6, host_queue_bytes=60_000, params=conga)
    )
    fabric.finalize(CongaSelector.factory(conga))
    params = TcpParams(min_rto=milliseconds(1), initial_rto=milliseconds(1))
    IncastClient(
        sim, fabric, client=0, servers=sorted(fabric.hosts)[1:],
        flow_factory=tcp_flow_factory(params), request_bytes=600_000, repeats=1,
    ).start()
    sim.run(until=seconds(10))
    return sim.tracer.snapshot()


#: fixture key -> callable returning that point's TraceLog.
GOLDEN_TRACES = {
    "conga-enterprise": lambda: conga_spec().run().trace,
    "incast-rto": incast_trace,
    "caft-brownout": lambda: caft_spec().run().trace,
    "ecmp-dre-table": lambda: ecmp_spec(ObsSpec(categories=("dre", "table"))).run().trace,
}

#: The one timeline entry, kept beside the traces under this key.
TIMELINE_KEY = "ecmp-timeline"


def ecmp_timeline() -> Timeline:
    return ecmp_spec(ObsSpec(categories=(), timeline=TimelineSpec())).run().timeline


def compute_entry(trace: TraceLog) -> dict:
    names = sorted({json.loads(line)["name"] for line in trace.ndjson_lines()})
    return {
        "digest": trace.digest(),
        "emitted": trace.emitted,
        "dropped": trace.dropped,
        "names": names,
    }


def compute_timeline_entry(timeline: Timeline) -> dict:
    return {
        "digest": timeline.digest(),
        "samples": timeline.samples,
        "dre_ports": len(timeline.dre),
        "peak_dre": max(max(series) for series in timeline.dre.values()),
    }


@pytest.mark.parametrize("key", sorted(GOLDEN_TRACES))
def test_trace_matches_fixture(key):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert compute_entry(GOLDEN_TRACES[key]()) == golden[key], (
        f"trace bytes of {key!r} changed; if that is intended, regenerate with "
        "`PYTHONPATH=src python tests/test_golden_traces.py --update`"
    )


def test_ecmp_timeline_matches_fixture():
    golden = json.loads(GOLDEN_PATH.read_text())
    entry = compute_timeline_entry(ecmp_timeline())
    assert entry["peak_dre"] > 0  # measured state, not a plane left off
    assert entry == golden[TIMELINE_KEY]


def test_fixture_covers_every_event_class():
    from repro.obs import events

    golden = json.loads(GOLDEN_PATH.read_text())
    seen = {name for key in GOLDEN_TRACES for name in golden[key]["names"]}
    assert seen == set(events.__all__) - {"TraceEvent", "event_payload"}


def _update() -> None:
    golden = {key: compute_entry(make()) for key, make in sorted(GOLDEN_TRACES.items())}
    golden[TIMELINE_KEY] = compute_timeline_entry(ecmp_timeline())
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--update" in sys.argv:
        _update()
    else:
        print(__doc__)
