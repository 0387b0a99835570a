"""Tests for the repro static analyzer (``conga-repro lint``).

Three layers:

* per-rule fixtures — one seeded violation per rule asserting the rule id
  and line, plus a negative twin showing the sanctioned idiom passes;
* machinery — suppression comments, scoping, ``--select``, JSON schema,
  and exit codes through the real CLI;
* the self-check — ``src/repro`` must be violation-free, which is the
  acceptance criterion the CI lint job enforces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    ALL_RULES,
    CATALOG,
    UnknownRuleError,
    get_rules,
    lint_paths,
    lint_source,
)
from repro.lint.engine import parse_suppressions, scope_of

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def rule_ids(violations) -> list[str]:
    return [violation.rule for violation in violations]


def lint_snippet(source: str, *, path: str = "repro/sim/snippet.py") -> list:
    """Lint an in-memory snippet under a scoped pseudo-path."""
    return lint_source(source, ALL_RULES, path=Path(path))


# ---------------------------------------------------------------------------
# D101 — wall clock
# ---------------------------------------------------------------------------


def test_d101_flags_time_time():
    violations = lint_snippet(
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
    )
    assert rule_ids(violations) == ["D101"]
    assert violations[0].line == 3


def test_d101_flags_from_import_and_aliases():
    violations = lint_snippet(
        "from time import perf_counter as pc\n"
        "import time as t\n"
        "def stamp():\n"
        "    return pc() + t.monotonic()\n"
    )
    assert rule_ids(violations) == ["D101", "D101"]


def test_d101_flags_datetime_now():
    violations = lint_snippet(
        "from datetime import datetime\n"
        "def stamp():\n"
        "    return datetime.now()\n"
    )
    assert rule_ids(violations) == ["D101"]


def test_d101_allows_sim_now():
    assert lint_snippet(
        "def stamp(sim):\n"
        "    return sim.now\n"
    ) == []


# ---------------------------------------------------------------------------
# D104 — unordered iteration (scoped to core/lb/sim/switch)
# ---------------------------------------------------------------------------


def test_d104_flags_dict_view_and_set_iteration():
    source = (
        "def drain(table):\n"
        "    for key, value in table.items():\n"
        "        yield key, value\n"
        "    total = [port for port in {1, 2, 3}]\n"
    )
    violations = lint_snippet(source, path="repro/lb/snippet.py")
    assert rule_ids(violations) == ["D104", "D104"]
    assert violations[0].line == 2


def test_d104_allows_sorted_views():
    assert lint_snippet(
        "def drain(table):\n"
        "    for key, value in sorted(table.items()):\n"
        "        yield key, value\n",
        path="repro/switch/snippet.py",
    ) == []


def test_d104_not_applied_outside_scoped_packages():
    source = (
        "def drain(table):\n"
        "    for key in table.keys():\n"
        "        yield key\n"
    )
    assert lint_snippet(source, path="repro/analysis/snippet.py") == []
    # ...but files outside any repro tree get every rule (fixture behavior).
    assert rule_ids(lint_source(source, ALL_RULES, path=Path("scratch.py"))) == [
        "D104"
    ]


# ---------------------------------------------------------------------------
# S202 — frozen spec dataclasses
# ---------------------------------------------------------------------------


def test_s202_flags_unfrozen_spec_and_mutable_field():
    violations = lint_snippet(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class SweepSpec:\n"
        "    loads: list[float]\n"
    )
    assert rule_ids(violations) == ["S202", "S202"]


def test_s202_allows_frozen_tuple_spec():
    assert lint_snippet(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class SweepSpec:\n"
        "    loads: tuple[float, ...]\n"
    ) == []


# ---------------------------------------------------------------------------
# S203 — registry writes
# ---------------------------------------------------------------------------


def test_s203_flags_direct_registry_writes():
    violations = lint_snippet(
        "from repro.apps import experiment\n"
        "def install(spec):\n"
        "    experiment.SCHEMES[spec.name] = spec\n"
        "    experiment.SCHEMES.update({})\n"
    )
    assert rule_ids(violations) == ["S203", "S203"]


def test_s203_allows_register_scheme():
    assert lint_snippet(
        "from repro.apps import register_scheme\n"
        "def install(spec):\n"
        "    register_scheme(spec)\n"
    ) == []


# ---------------------------------------------------------------------------
# R301 — print / logging on simulator code paths
# ---------------------------------------------------------------------------


def test_r301_flags_print_and_logging():
    violations = lint_snippet(
        "import logging\n"
        "def report(x):\n"
        "    print(x)\n",
        path="repro/transport/snippet.py",
    )
    assert rule_ids(violations) == ["R301", "R301"]
    assert [violation.line for violation in violations] == [1, 3]


def test_r301_flags_from_logging_import():
    violations = lint_snippet(
        "from logging import getLogger\n",
        path="repro/core/snippet.py",
    )
    assert rule_ids(violations) == ["R301"]


def test_r301_allows_traced_emission_and_shadowed_print():
    assert lint_snippet(
        "def run(self):\n"
        "    tracer = self.sim.tracer\n"
        "    if tracer is not None and tracer.flowlet:\n"
        "        tracer.emit(event)\n"
    ) == []
    assert lint_snippet(
        "def print(x):\n"
        "    return x\n"
        "def use():\n"
        "    return print(1)\n"
    ) == []


def test_r301_not_applied_outside_scoped_packages():
    assert lint_snippet(
        "def report(x):\n"
        "    print(x)\n",
        path="repro/analysis/snippet.py",
    ) == []


def test_r301_patrols_every_package_the_kernel_calls_into():
    # Logging in Port._advance: no test's output changes, only R301 sees it.
    violations = lint_snippet(
        "import logging\n"
        "class Port:\n"
        "    def _advance(self, packet):\n"
        "        logging.getLogger('repro.net').debug('tx %s', packet)\n",
        path="repro/net/port.py",
    )
    assert rule_ids(violations) == ["R301"]
    assert violations[0].line == 1


# ---------------------------------------------------------------------------
# E001 + suppressions + scoping machinery
# ---------------------------------------------------------------------------


def test_syntax_error_reports_e001():
    violations = lint_snippet("def broken(:\n")
    assert rule_ids(violations) == ["E001"]


def test_inline_suppression_silences_only_that_line():
    source = (
        "import time\n"
        "def stamp():\n"
        "    a = time.time()  # repro-lint: ignore[D101] -- reporting only\n"
        "    b = time.time()\n"
        "    return a, b\n"
    )
    violations = lint_snippet(source)
    assert rule_ids(violations) == ["D101"]
    assert violations[0].line == 4


def test_file_level_suppression_and_wildcard():
    source = (
        "# repro-lint: ignore-file[D101]\n"
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
    )
    assert lint_snippet(source) == []
    wildcard = (
        "import time\n"
        "x = time.time()  # repro-lint: ignore[*] -- fixture\n"
    )
    assert lint_snippet(wildcard) == []


def test_parse_suppressions_reads_comma_lists():
    suppressions = parse_suppressions(
        "x = 1  # repro-lint: ignore[D101, S205] -- both\n"
    )
    assert suppressions.by_line[1] == {"D101", "S205"}
    assert suppressions.whole_file == set()


def test_scope_of_uses_last_repro_component():
    assert scope_of(Path("/a/repro/sim/kernel.py")) == ("sim", "kernel.py")
    assert scope_of(Path("/a/repro/x/repro/lb/conga.py")) == ("lb", "conga.py")
    assert scope_of(Path("/a/b/script.py")) is None


def test_get_rules_select_and_unknown():
    rules = get_rules("D101,S203")
    assert [rule.rule_id for rule in rules] == ["D101", "S203"]
    with pytest.raises(UnknownRuleError):
        get_rules("D999")


def test_rule_catalog_metadata_complete():
    ids = [rule.rule_id for rule in ALL_RULES]
    assert ids == sorted(ids) == ["D101", "D104", "R301", "S202", "S203"]
    assert [rule.rule_id for rule in CATALOG] == [*ids, "E304"]
    for rule in CATALOG:
        assert rule.title and rule.rationale and rule.paper_ref


# ---------------------------------------------------------------------------
# CLI: exit codes, JSON schema
# ---------------------------------------------------------------------------


def write_fixture(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


def test_cli_exit_zero_and_text_summary_on_clean_tree(tmp_path, capsys):
    write_fixture(tmp_path, "clean.py", "def ok():\n    return 1\n")
    assert main(["lint", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "clean: 1 file(s), 0 violations" in out


def test_cli_exit_one_with_rule_id_and_location(tmp_path, capsys):
    bad = write_fixture(
        tmp_path, "bad.py", "import time\nx = time.time()\n"
    )
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"{bad}:2:5: D101" in out


def test_cli_json_schema(tmp_path, capsys):
    write_fixture(tmp_path, "bad.py", "import time\nx = time.time()\n")
    exit_code = main(["lint", str(tmp_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert payload["version"] == 1
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    assert payload["counts"] == {"D101": 1}
    [violation] = payload["violations"]
    assert set(violation) == {"rule", "path", "line", "column", "message"}
    assert violation["rule"] == "D101"
    assert violation["line"] == 2


def test_cli_select_runs_only_named_rules(tmp_path):
    write_fixture(tmp_path, "bad.py", "import time\nx = time.time()\n")
    assert main(["lint", str(tmp_path), "--select", "D101"]) == 1
    assert main(["lint", str(tmp_path), "--select", "D104"]) == 0


def test_cli_unknown_rule_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path), "--select", "D999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_missing_path_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.rule_id in out


# ---------------------------------------------------------------------------
# The acceptance criterion: the shipped tree is violation-free.
# ---------------------------------------------------------------------------


def test_src_repro_is_violation_free():
    report = lint_paths([REPO_SRC], ALL_RULES)
    assert report.files_checked > 50
    offenders = "\n".join(v.format() for v in report.violations)
    assert report.ok, f"lint violations in src/repro:\n{offenders}"
