"""Tests for the waiver audit (E304) and the self-check of ``conga-repro lint``.

Two layers:

* E304 — a waiver that no longer matches any finding is itself a
  finding, and ``--show-suppressed`` lists every waiver's verdict;
* the self-check — ``src/repro`` must be clean, with every waiver used,
  within the CI runtime budget.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import ALL_RULES, CATALOG, lint_paths, resolve_select
from repro.lint.engine import STALE_WAIVERS

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialize a fixture package under ``<tmp>/repro`` and return it."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


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
    report = lint_paths([root], ALL_RULES)
    [stale] = report.violations
    assert stale.rule == "E304"
    assert stale.line == 9
    assert "D101" in stale.message
    verdicts = {status.line: status for status in report.suppressions}
    assert verdicts[5].used == ["D101"] and not verdicts[5].stale
    assert verdicts[9].stale == ["D101"] and not verdicts[9].used


# ---------------------------------------------------------------------------
# Catalog / selection
# ---------------------------------------------------------------------------


def test_effect_rule_catalog_metadata_complete():
    assert CATALOG[-1] is STALE_WAIVERS
    assert STALE_WAIVERS.rule_id == "E304"
    assert STALE_WAIVERS.title
    assert STALE_WAIVERS.rationale
    assert STALE_WAIVERS.paper_ref


def test_resolve_select_family_prefixes():
    assert resolve_select("E3") == ("E304",)
    assert resolve_select("D") == ("D101", "D104")
    assert resolve_select("D101,E304") == ("D101", "E304")


def test_resolve_select_unknown_family():
    from repro.lint import UnknownRuleError

    with pytest.raises(UnknownRuleError):
        resolve_select("Z9")


# ---------------------------------------------------------------------------
# Self-check: src/repro is clean within the CI runtime budget
# ---------------------------------------------------------------------------


def test_src_repro_is_effects_clean_within_budget():
    started = time.monotonic()
    report = lint_paths([REPO_SRC], ALL_RULES)
    elapsed = time.monotonic() - started
    assert report.files_checked > 50
    assert report.ok, [v.format() for v in report.violations]
    assert elapsed <= 30.0, f"lint pass took {elapsed:.1f}s (budget 30s)"


def test_src_repro_suppressions_all_used():
    report = lint_paths([REPO_SRC], ALL_RULES)
    stale = [s for s in report.suppressions if s.stale]
    assert not stale, [(s.path, s.line, s.stale) for s in stale]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_show_suppressed(tmp_path, capsys):
    root = write_tree(tmp_path, {"sim/clockmod.py": E304_MODULE})
    assert main(["lint", str(root), "--show-suppressed"]) == 1
    out = capsys.readouterr().out
    assert "ignore[D101] used" in out
    assert "STALE: D101" in out
