"""Per-hop frame budget: Python frames per kernel event, layer by layer.

DESIGN.md "Per-hop budget" gives each layer of the packet path one Python
frame per hop.  Wall-clock benchmarks notice a re-grown helper only as a
few percent of noise; this test notices it exactly: it runs one small
deterministic CONGA point under ``sys.setprofile``, counts the calls into
Python functions defined under ``src/repro/<layer>/`` and divides by
``kernel.events_executed``.  Both numbers are exact for a fixed seed and
the same on every machine, so the budgets below are what the code reaches
today with the last digit rounded up — not a tolerance.  (Python 3.12
inlines comprehensions and lands slightly under them.)

The obs-on case counts what tracing adds to that: one ``repro.obs`` frame
per recorded event (``Tracer.record``) and not one generated dataclass
``__init__`` (file ``<string>``) — an emit site passes fields, it never
builds an event.

A dataclass's generated ``__init__`` is a frame in no layer, so the
budgets cannot see an object built per hop; the count of those frames per
event can, and holds the packet path to the packets, headers and records
a run must build.

The ecmp case runs the same point under a selector that reads no
congestion state: the congestion plane stays off (DESIGN.md "Congestion
plane on demand"), so ``core`` is what building the fabric costs and
nothing per packet.

The 3-tier case runs the point on the 2-pod fabric and counts ``topology``
as a layer too: every switch above the leaves is the one ``SpineSwitch``
(DESIGN.md "One Clos"), so a pod-spine or core hop costs the same single
``switch`` frame and ``topology`` is construction only.
"""

import os
import sys
from pathlib import Path

import pytest

import repro
from repro.apps import ExperimentSpec, ObsSpec
from repro.sim import Simulator
from repro.topology.multipod import MultiPodConfig

#: Frames per kernel event each layer may spend on this point.
BUDGET = {
    "sim": 0.09,
    "net": 1.40,
    "core": 0.82,
    "lb": 0.14,
    "switch": 0.41,
    "overlay": 0.25,
    "transport": 0.58,
}

#: ... and all seven together (8.63 before the per-hop flattening; 5.150
#: while both per-hop pushes still entered ``Simulator.schedule_fast``;
#: 4.155 while each arrival still passed through a ``Port._arrive`` frame).
TOTAL_BUDGET = 3.66

#: ``repro.obs`` frames inside ``Simulator.run`` per recorded trace event.
#: (Before the ring stored rows each record also cost one generated
#: ``__init__`` frame and one ``sim.now`` property frame; both are now 0.)
OBS_FRAMES_PER_RECORD = 1

#: The same point under ``ecmp``: ``core`` is construction only (0.628 with
#: the unconditional DRE hook and feedback loop), and the total falls with
#: it (4.944 before; 4.300 before ports pushed their own heap entries;
#: 3.304 before the kernel handed arrivals straight to ``receive``).
ECMP_CORE_BUDGET = 0.01
ECMP_TOTAL_BUDGET = 2.81

#: The same point on ``MultiPodConfig()``, scheme -> ``switch`` frames per
#: event.  With forwarding forked into ``topology/multipod.py`` the two
#: layers together spent 0.587 (conga) / 0.645 (caft); caft's extra is the
#: health weighting of each flowlet decision.
MULTIPOD_SWITCH_BUDGET = {"conga": 0.43, "caft": 0.47}
MULTIPOD_TOPOLOGY_BUDGET = 0.01

#: Code compiled from a string: the ``__init__`` dataclasses generate.
GENERATED = "<string>"

#: Generated ``__init__`` frames per event inside ``Simulator.run``: the
#: packets, overlay headers and flow records a run must build (0.253).  An
#: object built per hop on the train path adds about 0.4.
GENERATED_PER_EVENT = 0.26

SPEC = ExperimentSpec(
    "conga", "enterprise", load=0.7, seed=11, num_flows=80, size_scale=0.05
)


def _frames_by_layer(fn, extra_layers=()):
    """Run ``fn`` and count Python calls into each budgeted layer's files.

    Also returns the ``obs`` and generated-``__init__`` calls made while
    ``Simulator.run`` was on the stack.
    """
    root = Path(repro.__file__).parent
    layers = [*BUDGET, *extra_layers, "obs"]
    prefixes = [(str(root / layer) + os.sep, layer) for layer in layers]
    counts = dict.fromkeys([*BUDGET, *extra_layers], 0)
    in_run = {"obs": 0, GENERATED: 0}
    layer_of = {}
    run_code = Simulator.run.__code__
    running = False

    def profiler(frame, event, _arg):
        nonlocal running
        code = frame.f_code
        if code is run_code and event in ("call", "return"):
            running = event == "call"  # c_call/c_return carry run's frame too
        if event != "call":
            return
        layer = layer_of.get(code)
        if layer is None:
            filename = code.co_filename
            layer = GENERATED if filename == GENERATED else next(
                (name for prefix, name in prefixes if filename.startswith(prefix)), ""
            )
            layer_of[code] = layer
        if layer in counts:
            counts[layer] += 1
        elif running and layer:
            in_run[layer] += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts, in_run


@pytest.fixture(scope="module")
def untraced():
    return _frames_by_layer(SPEC.run_live)


def _assert_within_budget(live, counts):
    events = live.sim.events_executed
    assert events > 20_000  # big enough that fabric construction is noise
    per_event = {layer: calls / events for layer, calls in counts.items()}
    over = [
        f"{layer}: {counts[layer]} calls = {per_event[layer]:.3f}/event > {BUDGET[layer]}"
        for layer in BUDGET
        if per_event[layer] > BUDGET[layer]
    ]
    assert not over, (
        f"per-hop frame budget exceeded over {events} events "
        f"(DESIGN.md 'Per-hop budget'): " + "; ".join(over)
    )
    total = sum(counts.values()) / events
    assert total <= TOTAL_BUDGET, f"{total:.3f} frames/event > {TOTAL_BUDGET}: {counts}"


def test_packet_path_stays_within_its_frame_budget(untraced):
    live, counts, in_run = untraced
    _assert_within_budget(live, counts)
    assert in_run["obs"] == 0


def test_the_packet_path_builds_no_object_per_hop(untraced):
    # A dataclass's generated __init__ is no layer's frame, so the budgets
    # above cannot see one built per packet; this count can.
    live, _, in_run = untraced
    built = in_run[GENERATED] / live.sim.events_executed
    assert built <= GENERATED_PER_EVENT, (
        f"{in_run[GENERATED]} generated __init__ calls = {built:.3f}/event"
    )


def test_ecmp_pays_for_no_congestion_plane():
    live, counts, _ = _frames_by_layer(SPEC.with_(scheme="ecmp").run_live)
    _assert_within_budget(live, counts)
    events = live.sim.events_executed
    core = counts["core"] / events
    assert core <= ECMP_CORE_BUDGET, f"core: {counts['core']} calls = {core:.3f}/event"
    total = sum(counts.values()) / events
    assert total <= ECMP_TOTAL_BUDGET, f"{total:.3f} frames/event: {counts}"


@pytest.mark.parametrize("scheme", sorted(MULTIPOD_SWITCH_BUDGET))
def test_three_tiers_forward_in_the_switch_layer(scheme):
    spec = SPEC.with_(scheme=scheme, config=MultiPodConfig())
    live, counts, _ = _frames_by_layer(spec.run_live, extra_layers=("topology",))
    events = live.sim.events_executed
    assert events > 20_000
    topology = counts["topology"] / events
    assert topology <= MULTIPOD_TOPOLOGY_BUDGET, (
        f"topology: {counts['topology']} calls = {topology:.3f}/event — "
        "per-packet code belongs in repro.switch"
    )
    switch = counts["switch"] / events
    assert switch <= MULTIPOD_SWITCH_BUDGET[scheme], (
        f"switch: {counts['switch']} calls = {switch:.3f}/event"
    )


def test_tracing_adds_one_frame_per_record_and_builds_no_event(untraced):
    _, _, plain_in_run = untraced
    live, counts, in_run = _frames_by_layer(SPEC.with_(obs=ObsSpec()).run_live)
    _assert_within_budget(live, counts)  # the emit sites add no frames of their own
    emitted = live.sim.tracer.emitted
    assert emitted > 20_000
    assert in_run["obs"] == OBS_FRAMES_PER_RECORD * emitted
    # Packets, overlay headers and flow records are built either way; a
    # traced run builds nothing on top of them.
    assert in_run[GENERATED] == plain_in_run[GENERATED]
