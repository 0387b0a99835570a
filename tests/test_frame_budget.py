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
"""

import os
import sys
from pathlib import Path

import repro
from repro.apps import ExperimentSpec

#: Frames per kernel event each layer may spend on this point.
BUDGET = {
    "sim": 1.09,
    "net": 1.90,
    "core": 0.82,
    "lb": 0.14,
    "switch": 0.41,
    "overlay": 0.25,
    "transport": 0.58,
}

#: ... and all seven together (8.63 before the per-hop flattening).
TOTAL_BUDGET = 5.16


def _frames_by_layer(fn):
    """Run ``fn`` and count Python calls into each budgeted layer's files."""
    root = Path(repro.__file__).parent
    prefixes = [(str(root / layer) + os.sep, layer) for layer in BUDGET]
    counts = dict.fromkeys(BUDGET, 0)
    layer_of = {}

    def profiler(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        layer = layer_of.get(code)
        if layer is None:
            filename = code.co_filename
            layer = next((name for prefix, name in prefixes if filename.startswith(prefix)), "")
            layer_of[code] = layer
        if layer:
            counts[layer] += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts


def test_packet_path_stays_within_its_frame_budget():
    spec = ExperimentSpec(
        "conga", "enterprise", load=0.7, seed=11, num_flows=80, size_scale=0.05
    )
    live, counts = _frames_by_layer(spec.run_live)
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
