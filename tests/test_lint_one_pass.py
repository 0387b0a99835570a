"""The one-pass contract of ``conga-repro lint``.

* the answer — ``tests/golden/lint_answers.json`` holds what the
  analyzer said about ``src/`` and about every fixture tree and snippet
  of the kept rules' tests (``tests/test_lint.py`` /
  ``tests/test_effects.py``); the analyzer must say the same — fixture
  trees line-exact, ``src/`` without the line column, so code above a
  waiver can be deleted.  A removed rule's case whose recorded answer
  named that rule was deleted from the golden, never re-recorded; its
  clean snippets stay, and no kept rule may fire on them;
* the cost — one ``lint`` call parses each file's source exactly once;
* the surface — the flags and the subcommand that only chose between
  ways of computing that answer are gone, and ``--list-rules`` prints
  the scope each rule declares.
"""

from __future__ import annotations

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
ANSWERS = json.loads(
    (REPO_ROOT / "tests" / "golden" / "lint_answers.json").read_text(encoding="utf-8")
)


def _lint_json(target: Path, capsys) -> dict:
    main(["lint", str(target), "--format", "json"])
    return json.loads(capsys.readouterr().out)


def _answer(document: dict, base: Path) -> dict:
    def rel(path: str) -> str:
        return Path(path).relative_to(base).as_posix()

    return {
        "findings": sorted(
            [v["rule"], rel(v["path"]), v["line"]] for v in document["violations"]
        ),
        "suppressions": sorted(
            [rel(s["path"]), s["line"], s["rules"], s["used"], s["stale"]]
            for s in document["suppressions"]
        ),
    }


def _expected(recorded: dict) -> dict:
    """The parent's answer with the legacy perf module's waiver gone with it."""
    return {
        "findings": sorted(recorded["findings"]),
        "suppressions": [
            row for row in recorded["suppressions"] if row[0] != "src/repro/perf.py"
        ],
    }


def _line_free(rows: list) -> Counter:
    return Counter(
        (path, tuple(rules), tuple(used), tuple(stale))
        for path, _line, rules, used, stale in rows
    )


def test_src_answer_is_the_parents(capsys, monkeypatch):
    """Line-free: a waiver may move or go with its code; a new one edits the golden."""
    monkeypatch.chdir(REPO_ROOT)
    answer = _answer(_lint_json(Path("src"), capsys), Path("."))
    assert answer["findings"] == []
    assert all(row[3] == row[2] and row[4] == [] for row in answer["suppressions"])
    unrecorded = _line_free(answer["suppressions"]) - _line_free(
        _expected(ANSWERS["src"])["suppressions"]
    )
    assert not unrecorded, f"waivers the golden does not record: {sorted(unrecorded)}"


@pytest.mark.parametrize("case", ANSWERS["cases"], ids=lambda case: case["name"])
def test_fixture_corpus_answer_is_the_parents(case, tmp_path, capsys):
    for rel, source in case["files"].items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    assert _answer(_lint_json(tmp_path, capsys), tmp_path) == _expected(case)


def test_one_lint_call_parses_each_file_once(tmp_path, monkeypatch, capsys):
    files = {
        "repro/sim/kernel.py": (
            "from repro.util.helpers import stamp\n"
            "class Simulator:\n"
            "    tracer: 'Tracer | None'\n"
            "    def run(self):\n"
            "        stamp('tick')\n"
        ),
        "repro/util/helpers.py": (
            "import time\n\n\ndef stamp(label):\n    return time.time()\n"
        ),
        "repro/util/broken.py": "def broken(:\n",
    }
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")

    parsed: list[str] = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", mode="exec", **kwargs):
        if mode == "exec":  # mode="eval" re-parses a string annotation, not a file
            parsed.append(str(filename))
        return real_parse(source, filename, mode, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    assert main(["lint", str(tmp_path), "--show-suppressed"]) == 1
    out = capsys.readouterr().out
    assert "D101" in out and "E001" in out
    assert sorted(parsed) == sorted(str(tmp_path / rel) for rel in files)


@pytest.mark.parametrize(
    "argv",
    [
        ["lint", "src", "--effects"],
        ["lint", "src", "--jobs", "2"],
        ["lint", "src", "--sarif", "out.sarif"],
        ["lint", "src", "--cache", "x.json"],
        ["lint", "src", "--no-cache"],
        ["lint", "src", "--fix-suppress"],
        ["callgraph", "src", "--cache", "x.json"],
        ["callgraph", "src", "--no-cache"],
        ["callgraph", "src", "--kind", "hash"],
        ["callgraph", "src"],
        ["bench", "--quick"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_removed_surface_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2


#: Rules deleted because another gate fails on their regression (DESIGN.md
#: "Lint rule catalog"); S201 went into E303 before that.
REMOVED_RULES = ("D102", "D103", "D105", "S205", "E301", "E302", "E303")


@pytest.mark.parametrize("rule", REMOVED_RULES)
def test_a_removed_rule_is_an_unknown_rule_id(rule, capsys):
    assert main(["lint", "src", "--select", rule]) == 2
    assert f"unknown rule id(s) {rule}" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["ignore", "ignore-file"])
@pytest.mark.parametrize("rule", REMOVED_RULES)
def test_a_waiver_naming_a_removed_rule_is_stale(rule, form, tmp_path, capsys):
    # The waiver excuses nothing any more, so the audit asks for its removal.
    source = (
        f"# repro-lint: {form}[{rule}] -- excused a removed rule\nx = 1\n"
        if form == "ignore-file"
        else f"x = 1  # repro-lint: {form}[{rule}] -- excused a removed rule\n"
    )
    (tmp_path / "mod.py").write_text(source, encoding="utf-8")
    answer = _answer(_lint_json(tmp_path, capsys), tmp_path)
    waiver_line = 0 if form == "ignore-file" else 1  # 0: the whole file
    assert answer == {
        "findings": [["E304", "mod.py", 1]],
        "suppressions": [["mod.py", waiver_line, [rule], [], [rule]]],
    }


def test_list_rules_prints_the_scope_each_rule_declares(capsys):
    assert main(["lint", "--list-rules"]) == 0
    lines = capsys.readouterr().out.splitlines()
    scope_of = {
        line.split()[0]: lines[index + 1].strip()
        for index, line in enumerate(lines)
        if line[:1].isalpha()
    }
    assert scope_of["S204"] == "scope: files under a benchmarks/ directory"
    assert scope_of["R301"] == (
        "scope: apps, core, faults, lb, net, obs, overlay, sim, switch, "
        "topology, transport, workloads"
    )
    assert scope_of["D101"] == "scope: src/repro (all)"
    assert scope_of["E304"] == "scope: every waiver in the analyzed paths"
    assert not {"S201", "S205", "D102", "E301", "E302", "E303"} & set(scope_of)


STALE_S204_BENCHMARK = """\
from repro.runner import run_sweep, sweep_grid


def sweep(template):
    return run_sweep(  # repro-lint: ignore[S204] -- the loop this excused is gone
        sweep_grid(template, schemes=['ecmp'], loads=[0.3, 0.5])
    )
"""


def test_benchmark_hygiene_selection_audits_its_own_waiver(tmp_path, capsys):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    (bench / "test_grid.py").write_text(STALE_S204_BENCHMARK, encoding="utf-8")
    assert main(["lint", str(bench), "--select", "S204,E304"]) == 1
    out = capsys.readouterr().out
    assert "E304" in out and "ignore[S204]" in out
    # The waiver's own rule alone does not see it — which is why CI selects both.
    assert main(["lint", str(bench), "--select", "S204"]) == 0
