"""Each deleted lint rule's regression still fails the gate that replaced it.

D102, D103, D105, S205, E301, E302 and E303 were deleted because another
gate already fails on the regression each was written to catch (DESIGN.md
"Lint rule catalog").  That holds only while those gates stay as strict as
they were, so each case here plants one such regression — the source of one
function, edited as a change would edit it and recompiled under its own file
name, so its frames count in its own layer — and asserts that the named
gate's check fails on it.

A plant site that no longer matches the source fails loudly: move the plant
with the code, never drop the case.
"""

import __future__

import base64
import binascii
import contextlib
import inspect
import io
import json
import pickle
import textwrap

import pytest

from repro.core.dre import DRE
from repro.core.flowlet import FlowletTable
from repro.faults.injector import FaultInjector
from repro.lb import conga
from repro.lb.ecmp import EcmpSelector
from repro.net import port
from repro.net.packet import OverlayHeader
from repro.net.port import Port
from tests import (
    test_frame_budget as frame_budget,
    test_golden_determinism as golden_summaries,
    test_golden_faults as golden_faults,
    test_golden_traces as golden_traces,
)
from tests.test_import_contract import planes_spec


def _define(monkeypatch, owner, source, globals_, filename, first_line=1):
    """Compile ``source`` as if it stood at ``filename:first_line``; bind its defs on ``owner``."""
    code = compile(
        "\n" * (first_line - 1) + textwrap.dedent(source),
        filename,
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    defined: dict = {}
    exec(code, globals_, defined)
    for name, value in defined.items():
        monkeypatch.setattr(owner, name, value, raising=False)


def _plant(monkeypatch, owner, name, old, new):
    """Replace ``old`` by ``new`` in the source of ``owner.name``, in place."""
    function = inspect.getattr_static(owner, name)
    source = inspect.getsource(function)
    assert source.count(old) == 1, f"plant site moved: {old!r} in {name}"
    code = function.__code__
    _define(
        monkeypatch, owner, source.replace(old, new), function.__globals__,
        code.co_filename, code.co_firstlineno,
    )


# -- the plants: one typical regression per deleted rule --------------------------

TIE_BREAK = "    return ties[int(rng.integers(len(ties)))]\n"
TRAIN_COUNTERS = "        self.tx_packets += 1\n        self.tx_bytes += packet.size\n"


def plant_random_choice_tie_break(monkeypatch):
    """D102: §3.5's tie-break drawn from the ambient ``random`` module."""
    _plant(monkeypatch, conga, "least_congested", TIE_BREAK,
           "    import random\n    return random.choice(ties)\n")


def plant_numpy_global_tie_break(monkeypatch):
    """D102: the same draw from numpy's global state."""
    _plant(monkeypatch, conga, "least_congested", TIE_BREAK,
           "    import numpy\n    return ties[int(numpy.random.randint(len(ties)))]\n")


def plant_hash_str_tie_break(monkeypatch):
    """D103: a ``hash(str)``-keyed tie-break in ``lb/``."""
    _plant(monkeypatch, conga, "least_congested", TIE_BREAK,
           "    return ties[hash(str(ties)) % len(ties)]\n")


def plant_builtin_hash_ecmp(monkeypatch):
    """D103: ECMP keyed on the builtin ``hash`` instead of ``stable_hash``."""
    _plant(
        monkeypatch, EcmpSelector, "choose_uplink",
        "stable_hash(packet._five_tuple or packet.five_tuple, self.leaf.leaf_id)",
        "hash((packet.five_tuple, self.leaf.leaf_id))",
    )


def plant_dre_decay_loop(monkeypatch):
    """D105: the DRE decay as a float ``-=`` loop instead of the table."""
    _plant(
        monkeypatch, DRE, "measure",
        "            if elapsed < _DECAY_TABLE_SIZE:\n"
        "                register *= self._decay_table[elapsed]\n"
        "            else:\n"
        "                register *= self._decay_base ** elapsed\n",
        "            for _ in range(elapsed):\n"
        "                register -= register * (1.0 - self._decay_base)\n",
    )


def plant_lambda_in_flowlet_lookup(monkeypatch):
    """S205: a lambda allocated and called per packet in ``core/``."""
    _plant(
        monkeypatch, FlowletTable, "lookup",
        "        slot = stable_hash(five_tuple, 0x5F10) % self.size\n",
        "        salt = lambda: 0x5F10\n"
        "        slot = stable_hash(five_tuple, salt()) % self.size\n",
    )


def plant_nested_def_in_port_send(monkeypatch):
    """S205: a nested ``def`` in ``Port.send``."""
    _plant(
        monkeypatch, Port, "send",
        "        size = packet.size\n        if type(size)",
        "        def size_of(p):\n            return p.size\n"
        "        size = size_of(packet)\n        if type(size)",
    )


def plant_print_in_port_advance(monkeypatch):
    """E301: a ``print`` on the packet path, in ``net/`` where R301 does not look."""
    _plant(monkeypatch, Port, "_advance", TRAIN_COUNTERS,
           TRAIN_COUNTERS + "        print('tx', self.name)\n")


def plant_comprehension_below_port_advance(monkeypatch):
    """E302: a list comprehension two calls below ``Port._advance``."""
    _define(
        monkeypatch, port,
        "def _sizes_of(packet):\n"
        "    return [packet.size for _ in range(1)]\n\n\n"
        "def _size_of(packet):\n"
        "    return _sizes_of(packet)[0]\n",
        port.__dict__, port.__file__,
    )
    _plant(monkeypatch, Port, "_advance", TRAIN_COUNTERS,
           "        self.tx_packets += 1\n        self.tx_bytes += _size_of(packet)\n")


def plant_dataclass_per_hop(monkeypatch):
    """E302: a project dataclass built per packet on the train path."""
    monkeypatch.setattr(port, "OverlayHeader", OverlayHeader, raising=False)
    _plant(
        monkeypatch, Port, "_advance", TRAIN_COUNTERS,
        "        self.tx_packets += 1\n"
        "        self.tx_bytes += OverlayHeader(src_leaf=0, dst_leaf=0).lbtag + packet.size\n",
    )


def plant_late_binding_fault_lambda(monkeypatch):
    """E303: a lambda in the injector's schedule slot, closing over the loop variable."""
    _plant(
        monkeypatch, FaultInjector, "__init__",
        "sim.schedule_at(event.time, self._apply, event)",
        "sim.schedule_at(event.time, lambda: self._apply(event))",
    )


# -- the gates: each asks its own test's question; True when that test fails -----


def _golden_summary_fails(scheme):
    golden = json.loads(golden_summaries.GOLDEN_PATH.read_text())
    return golden_summaries.compute_entry(scheme)["digest"] != golden[scheme]["digest"]


def _golden_trace_fails(key):
    golden = json.loads(golden_traces.GOLDEN_PATH.read_text())
    entry = golden_traces.compute_entry(golden_traces.GOLDEN_TRACES[key]())
    return entry != golden[key]


def _golden_fault_digest_fails(key):
    golden = json.loads(golden_faults.GOLDEN_PATH.read_text())
    entry = golden_faults.compute_entry(golden_faults.GOLDEN_SPECS[key]())
    return entry["digest"] != golden[key]["digest"]


def _frame_budget_fails():
    live, counts, _ = frame_budget._frames_by_layer(frame_budget.SPEC.run_live)
    try:
        frame_budget._assert_within_budget(live, counts)
    except AssertionError:
        return True
    return False


def _objects_per_hop_fail():
    live, _, in_run = frame_budget._frames_by_layer(frame_budget.SPEC.run_live)
    built = in_run[frame_budget.GENERATED] / live.sim.events_executed
    return built > frame_budget.GENERATED_PER_EVENT


def _cold_run_fails():
    # The body of test_import_contract's cold child, in this interpreter so
    # the plant is in it: stdout is where the run's result comes back.
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        result = planes_spec().run()
        print(base64.b64encode(pickle.dumps(result)).decode())
    try:
        pickle.loads(base64.b64decode(stdout.getvalue()))
    except (binascii.Error, pickle.UnpicklingError, ValueError, EOFError):
        return True
    return False


#: Gate -> the check it runs, named after the test that runs it.
GATES = {
    "test_summary_bit_identical[conga]": lambda: _golden_summary_fails("conga"),
    "test_summary_bit_identical[ecmp]": lambda: _golden_summary_fails("ecmp"),
    "test_trace_matches_fixture[caft-brownout]": (
        lambda: _golden_trace_fails("caft-brownout")
    ),
    "test_faulted_run_matches_fixture[conga-linkdown-linkup]": (
        lambda: _golden_fault_digest_fails("conga-linkdown-linkup")
    ),
    "test_packet_path_stays_within_its_frame_budget": _frame_budget_fails,
    "test_the_packet_path_builds_no_object_per_hop": _objects_per_hop_fail,
    "test_multipod_faults_timeline_and_trace_run_from_a_cold_process": _cold_run_fails,
}

#: Deleted rule's regression -> (its plant, the gate that fails on it).
CASES = {
    "D102-random-choice-tie-break": (
        plant_random_choice_tie_break, "test_summary_bit_identical[conga]"
    ),
    "D102-numpy-global-tie-break": (
        plant_numpy_global_tie_break, "test_summary_bit_identical[conga]"
    ),
    "D103-hash-str-tie-break": (
        plant_hash_str_tie_break, "test_summary_bit_identical[conga]"
    ),
    "D103-builtin-hash-ecmp": (
        plant_builtin_hash_ecmp, "test_summary_bit_identical[ecmp]"
    ),
    "D105-dre-decay-loop": (
        plant_dre_decay_loop, "test_trace_matches_fixture[caft-brownout]"
    ),
    "S205-lambda-in-flowlet-lookup": (
        plant_lambda_in_flowlet_lookup, "test_packet_path_stays_within_its_frame_budget"
    ),
    "S205-nested-def-in-port-send": (
        plant_nested_def_in_port_send, "test_packet_path_stays_within_its_frame_budget"
    ),
    "E301-print-in-port-advance": (
        plant_print_in_port_advance,
        "test_multipod_faults_timeline_and_trace_run_from_a_cold_process",
    ),
    "E302-comprehension-below-port-advance": (
        plant_comprehension_below_port_advance,
        "test_packet_path_stays_within_its_frame_budget",
    ),
    "E302-dataclass-per-hop": (
        plant_dataclass_per_hop, "test_the_packet_path_builds_no_object_per_hop"
    ),
    "E303-late-binding-fault-lambda": (
        plant_late_binding_fault_lambda,
        "test_faulted_run_matches_fixture[conga-linkdown-linkup]",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_deleted_rule_s_regression_fails_its_gate(case, monkeypatch):
    plant, gate = CASES[case]
    plant(monkeypatch)
    assert GATES[gate](), f"{gate} passes with {case} planted"


@pytest.mark.parametrize("gate", list(GATES))
def test_the_gate_passes_without_a_plant(gate):
    # Without this half a gate that always failed would vouch for every plant.
    assert not GATES[gate]()
