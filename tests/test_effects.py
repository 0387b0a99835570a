"""Tests for the whole-program effect rules of ``conga-repro lint``.

Three layers:

* seeded fixture packages — each E3xx rule tripped through a multi-hop
  call chain that no per-file rule can see, with the witness chain
  asserted hop by hop (file:line per hop), and E303 at depth 0 as well;
* the self-check — ``src/repro`` must be clean within the CI runtime
  budget;
* the CLI — ``--select E3``, ``--show-suppressed``, ``--format json``
  and the ``callgraph`` subcommand.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    ALL_RULES,
    EFFECT_RULE_CATALOG,
    EFFECT_RULE_IDS,
    analyze_effects,
    lint_paths,
    resolve_select,
)

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialize a fixture package under ``<tmp>/repro`` and return it.

    Module qnames anchor at the last ``repro`` path component, so a file
    at ``<tmp>/repro/sim/kernel.py`` impersonates ``repro.sim.kernel``
    and matches the default hot-path entry patterns.
    """
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def findings_for(report, rule: str):
    return [finding for finding in report.findings if finding.rule == rule]


# ---------------------------------------------------------------------------
# E301 — side effects reachable from kernel entry points
# ---------------------------------------------------------------------------

E301_KERNEL = """\
from repro.util.helpers import stamp


class Simulator:
    def run(self):
        self.tick()

    def tick(self):
        stamp("tick")
"""

E301_HELPERS = """\
def stamp(label):
    print("event", label)
"""


def test_e301_multi_hop_io_witness(tmp_path):
    root = write_tree(
        tmp_path,
        {"sim/kernel.py": E301_KERNEL, "util/helpers.py": E301_HELPERS},
    )
    report = analyze_effects([root])
    findings = findings_for(report, "E301")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.kind == "io"
    assert finding.entry == "repro.sim.kernel.Simulator.run"
    # Witness chain: run -> tick -> stamp -> print, with file:line per hop.
    qnames = [hop.qname for hop in finding.chain]
    assert qnames == [
        "repro.sim.kernel.Simulator.run",
        "repro.sim.kernel.Simulator.tick",
        "repro.util.helpers.stamp",
    ]
    kernel = str(root / "sim" / "kernel.py")
    helpers = str(root / "util" / "helpers.py")
    # Each hop is anchored at the call site inside that function that
    # leads to the next hop (the last hop points at the effect line).
    assert [(hop.path, hop.line) for hop in finding.chain] == [
        (kernel, 6),
        (kernel, 9),
        (helpers, 2),
    ]
    assert (finding.site_path, finding.site_line) == (helpers, 2)
    assert "print" in finding.detail
    # Every hop is spelled file:line in the rendered chain.
    text = finding.chain_text()
    for hop in finding.chain:
        assert f"{hop.path}:{hop.line}" in text


def test_e301_site_invisible_to_per_file_rules(tmp_path):
    """The acceptance case: a >=2-hop violation no per-file rule can detect.

    ``print`` lives in ``repro/util`` — outside R301's simulator scopes —
    so the per-file pass is blind; only the call graph connects it to the
    kernel entry point.
    """
    root = write_tree(
        tmp_path,
        {"sim/kernel.py": E301_KERNEL, "util/helpers.py": E301_HELPERS},
    )
    per_file = lint_paths([root], ALL_RULES)
    assert per_file.ok
    report = analyze_effects([root])
    assert not report.ok
    assert len(findings_for(report, "E301")[0].chain) >= 2


def test_e301_suppressed_at_site_via_effect_rule(tmp_path):
    helpers = E301_HELPERS.replace(
        'print("event", label)',
        'print("event", label)  # repro-lint: ignore[E301] -- fixture waiver',
    )
    root = write_tree(
        tmp_path,
        {"sim/kernel.py": E301_KERNEL, "util/helpers.py": helpers},
    )
    report = analyze_effects([root])
    assert report.ok
    status = [s for s in report.suppressions if s.path.endswith("helpers.py")]
    assert len(status) == 1
    assert status[0].used == ["E301"]
    assert status[0].stale == []


# ---------------------------------------------------------------------------
# E302 — allocation on the per-packet train path
# ---------------------------------------------------------------------------

E302_PORT = """\
from repro.util.mix import weights


class Port:
    def _advance(self):
        self._transmit_next()

    def _transmit_next(self):
        return weights(4)
"""

E302_MIX = """\
def weights(n):
    return [index * 2 for index in range(n)]
"""


def test_e302_two_hop_alloc_witness(tmp_path):
    root = write_tree(
        tmp_path,
        {"net/port.py": E302_PORT, "util/mix.py": E302_MIX},
    )
    # Per-file S205 only patrols hot methods themselves; the helper's
    # comprehension two hops away is invisible without the call graph.
    assert lint_paths([root], ALL_RULES).ok
    report = analyze_effects([root])
    findings = findings_for(report, "E302")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.kind == "alloc"
    assert finding.entry == "repro.net.port.Port._advance"
    assert [hop.qname for hop in finding.chain] == [
        "repro.net.port.Port._advance",
        "repro.net.port.Port._transmit_next",
        "repro.util.mix.weights",
    ]
    mix = str(root / "util" / "mix.py")
    assert (finding.site_path, finding.site_line) == (mix, 2)
    assert len(finding.chain) >= 2


def test_e302_ignores_deferred_callback_allocation(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "net/port.py": """\
class Port:
    def _advance(self, sim):
        sim.schedule(5, self._refill)

    def _refill(self):
        return [slot for slot in range(8)]
"""
        },
    )
    report = analyze_effects([root])
    # The allocation runs inside a scheduled callback, not synchronously on
    # the train path, so E302 must stay quiet (and E301 does not ban alloc).
    assert report.ok


def test_e302_constructor_allocation_across_modules(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "net/port.py": """\
from repro.util.events import make_event


class Port:
    def _advance(self):
        return make_event(3)
""",
            "util/events.py": """\
class Event:
    def __init__(self, time):
        self.time = time


def make_event(time):
    return Event(time)
""",
        },
    )
    report = analyze_effects([root])
    findings = findings_for(report, "E302")
    assert findings, "constructing a project class on the train path must fire E302"
    assert any("Event" in finding.detail for finding in findings)


# ---------------------------------------------------------------------------
# E303 — nothing unpicklable reaches a schedule slot, at depth 0 or depth n
# ---------------------------------------------------------------------------


def e303_in_snippet(tmp_path, source: str) -> list:
    root = write_tree(tmp_path, {"sim/snippet.py": source})
    report = analyze_effects([root])
    assert [v.rule for v in report.file_violations] == []
    return findings_for(report, "E303")


def test_e303_flags_lambda_callback(tmp_path):
    [finding] = e303_in_snippet(
        tmp_path,
        "def arm(sim, packet):\n"
        "    sim.schedule(10, lambda: packet.send())\n",
    )
    assert finding.site_line == 2
    assert finding.entry == "repro.sim.snippet.arm"
    assert [(hop.qname, hop.line) for hop in finding.chain] == [
        ("repro.sim.snippet.arm", 2)
    ]
    assert "lambda" in finding.detail


def test_e303_flags_nested_function_callback(tmp_path):
    [finding] = e303_in_snippet(
        tmp_path,
        "def arm(sim):\n"
        "    def fire():\n"
        "        pass\n"
        "    sim.schedule(10, fire)\n",
    )
    assert finding.site_line == 4
    assert "nested function 'fire'" in finding.detail


def test_e303_allows_bound_method_with_arg_slot(tmp_path):
    assert e303_in_snippet(
        tmp_path,
        "class Nic:\n"
        "    def arm(self, sim, packet):\n"
        "        sim.schedule(10, self.send, packet)\n"
        "    def send(self, packet):\n"
        "        pass\n",
    ) == []


def test_e303_flags_timer_slots_and_expression_receivers(tmp_path):
    findings = e303_in_snippet(
        tmp_path,
        "def arm(sim, ports):\n"
        "    def tick():\n"
        "        pass\n"
        "    Timer(sim, lambda: None)\n"
        "    PeriodicTimer(sim, 5, callback=tick)\n"
        "    ports[0].sim.schedule_at(\n"
        "        10,\n"
        "        lambda: None,\n"
        "    )\n",
    )
    # Anchored at the callback itself, as a waiver on that line expects.
    assert [finding.site_line for finding in findings] == [4, 5, 8]


def test_e303_direct_waiver_is_used_and_shadowed_names_pass(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "sim/snippet.py": (
                "def fire():\n"
                "    pass\n"
                "def arm(sim):\n"
                "    sim.schedule(1, fire)\n"
                "def rearm(sim):\n"
                "    sim.schedule(1, lambda: None)"
                "  # repro-lint: ignore[E303] -- fixture waiver\n"
            )
        },
    )
    report = analyze_effects([root])
    assert report.ok
    [status] = report.suppressions
    assert (status.line, status.used, status.stale) == (6, ["E303"], [])


E303_KERNEL = """\
class Simulator:
    def run(self):
        pass


def setup(sim):
    arm(sim, lambda: None)


def arm(sim, job):
    forward(sim, job)


def forward(sim, job):
    sim.schedule(1, job)
"""


def test_e303_transitive_lambda_forwarding(tmp_path):
    root = write_tree(tmp_path, {"sim/kernel.py": E303_KERNEL})
    # No file-at-a-time rule can follow the lambda through two forwarding
    # frames into schedule().
    assert lint_paths([root], ALL_RULES).ok
    report = analyze_effects([root])
    findings = findings_for(report, "E303")
    assert len(findings) == 1
    finding = findings[0]
    kernel = str(root / "sim" / "kernel.py")
    assert finding.site_path == kernel
    assert finding.site_line == 7  # the lambda literal in setup()
    chain_lines = [hop.line for hop in finding.chain]
    # The chain walks the forwarding frames down to the schedule() call.
    assert 11 in chain_lines  # arm() -> forward(sim, job)
    assert 15 in chain_lines  # forward() -> sim.schedule(1, job)
    assert len(finding.chain) >= 2


# ---------------------------------------------------------------------------
# E304 — stale suppression comments
# ---------------------------------------------------------------------------

E304_MODULE = """\
import time


def now():
    return time.time()  # repro-lint: ignore[D101] -- clock needed here


def quiet():
    return 1  # repro-lint: ignore[D101] -- nothing here ever fired
"""


def test_e304_stale_vs_used_suppressions(tmp_path):
    root = write_tree(tmp_path, {"sim/clockmod.py": E304_MODULE})
    report = analyze_effects([root])
    assert len(report.stale) == 1
    stale = report.stale[0]
    assert stale.rule == "E304"
    assert stale.line == 9
    assert "D101" in stale.message
    verdicts = {status.line: status for status in report.suppressions}
    assert verdicts[5].used == ["D101"] and not verdicts[5].stale
    assert verdicts[9].stale == ["D101"] and not verdicts[9].used


ISO_MODULE = """\
def top():
    return middle() + 1


def middle():
    return bottom() * 2


def bottom():
    return 7
"""


# ---------------------------------------------------------------------------
# Catalog / selection
# ---------------------------------------------------------------------------


def test_effect_rule_catalog_metadata_complete():
    assert list(EFFECT_RULE_IDS) == ["E301", "E302", "E303", "E304"]
    for rule in EFFECT_RULE_CATALOG:
        assert rule.title
        assert rule.rationale
        assert rule.paper_ref


def test_resolve_select_family_prefixes():
    file_rules, effect_ids = resolve_select("E3")
    assert file_rules == ()
    assert list(effect_ids) == ["E301", "E302", "E303", "E304"]

    file_rules, effect_ids = resolve_select("D")
    assert {rule.rule_id for rule in file_rules} == {
        "D101", "D102", "D103", "D104", "D105",
    }
    assert effect_ids == ()

    file_rules, effect_ids = resolve_select("D101,E302")
    assert [rule.rule_id for rule in file_rules] == ["D101"]
    assert list(effect_ids) == ["E302"]


def test_resolve_select_unknown_family():
    from repro.lint import UnknownRuleError

    with pytest.raises(UnknownRuleError):
        resolve_select("Z9")


# ---------------------------------------------------------------------------
# Self-check: src/repro is clean within the CI runtime budget
# ---------------------------------------------------------------------------


def test_src_repro_is_effects_clean_within_budget():
    started = time.monotonic()
    report = analyze_effects([REPO_SRC])
    elapsed = time.monotonic() - started
    assert report.files_checked > 50
    assert not report.file_violations, [v.format() for v in report.file_violations]
    assert not report.findings, [f.message() for f in report.findings]
    assert not report.stale, [v.format() for v in report.stale]
    assert elapsed <= 30.0, f"lint pass took {elapsed:.1f}s (budget 30s)"


def test_src_repro_suppressions_all_used():
    report = analyze_effects([REPO_SRC])
    stale = [s for s in report.suppressions if s.stale]
    assert not stale, [(s.path, s.line, s.stale) for s in stale]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_effects_exit_codes(tmp_path, capsys):
    clean = write_tree(tmp_path / "clean", {"other/iso.py": ISO_MODULE})
    assert main(["lint", str(clean)]) == 0
    assert "0 violations" in capsys.readouterr().out

    dirty = write_tree(
        tmp_path / "dirty",
        {"sim/kernel.py": E301_KERNEL, "util/helpers.py": E301_HELPERS},
    )
    assert main(["lint", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "E301" in out
    assert "witness:" in out


def test_cli_select_e3_implies_effects(tmp_path, capsys):
    root = write_tree(
        tmp_path,
        {"sim/kernel.py": E301_KERNEL, "util/helpers.py": E301_HELPERS},
    )
    assert main(["lint", str(root), "--select", "E3"]) == 1
    out = capsys.readouterr().out
    assert "E301" in out
    # Filtering to another effect family keeps the same pass quiet.
    assert main(["lint", str(root), "--select", "E302"]) == 0


def test_cli_show_suppressed(tmp_path, capsys):
    root = write_tree(tmp_path, {"sim/clockmod.py": E304_MODULE})
    assert main(["lint", str(root), "--show-suppressed"]) == 1
    out = capsys.readouterr().out
    assert "ignore[D101] used" in out
    assert "STALE: D101" in out


def test_cli_json_format_embeds_effects_report(tmp_path, capsys):
    root = write_tree(
        tmp_path,
        {"sim/kernel.py": E301_KERNEL, "util/helpers.py": E301_HELPERS},
    )
    assert main(["lint", str(root), "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    effects = document["effects"]
    assert effects["ok"] is False
    assert effects["findings"][0]["rule"] == "E301"
    assert len(effects["findings"][0]["chain"]) == 3
    assert effects["files_checked"] == 2


def test_cli_callgraph_dumps_witness_chains(tmp_path, capsys):
    root = write_tree(
        tmp_path,
        {"sim/kernel.py": E301_KERNEL, "util/helpers.py": E301_HELPERS},
    )
    assert main(["callgraph", str(root)]) == 0
    out = capsys.readouterr().out
    assert "repro.sim.kernel.Simulator.run" in out
    assert " -> " in out
    assert "reachable effect(s)" in out


def test_cli_callgraph_json_and_filters(tmp_path, capsys):
    root = write_tree(
        tmp_path,
        {"sim/kernel.py": E301_KERNEL, "util/helpers.py": E301_HELPERS},
    )
    assert (
        main(
            [
                "callgraph",
                str(root),
                "--format",
                "json",
                "--kind",
                "io",
            ]
        )
        == 0
    )
    document = json.loads(capsys.readouterr().out)
    assert document["chains"]
    assert all(chain["kind"] == "io" for chain in document["chains"])
