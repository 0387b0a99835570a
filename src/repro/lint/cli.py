"""Argument handling for ``conga-repro lint`` and ``conga-repro callgraph``.

Exit-code semantics (stable contract for CI and pre-commit hooks):

* ``0`` — analysis ran and found nothing (clean tree).
* ``1`` — analysis ran and at least one violation survived suppression
  (per-file D/S/R rules, whole-program E3xx findings, or stale-waiver
  E304 reports).
* ``2`` — the analysis itself could not run: unknown ``--select`` token,
  unknown flag, or unreadable path.

Every ``lint`` call is the same one pass — each file parsed once, every
rule run once, the call graph linked and E301–E304 evaluated; ``--select``
narrows what is reported, never what is computed.

``conga-repro callgraph`` is informational: it exits ``0`` after dumping
witness chains (``2`` on usage errors), never ``1`` — gating belongs to
``lint``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.lint.callgraph import EFFECT_KINDS
from repro.lint.effects import EFFECT_RULE_CATALOG, analyze_effects, dump_callgraph
from repro.lint.engine import LintReport
from repro.lint.rules import ALL_RULES, UnknownRuleError, resolve_select


def add_lint_parser(
    subparsers: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> argparse.ArgumentParser:
    """Register the ``lint`` subcommand on the main CLI's subparsers."""
    parser = subparsers.add_parser(
        "lint",
        help="run the determinism / simulation-invariant static analyzer",
        description=(
            "AST-based static analysis enforcing the repo's determinism "
            "contract (D1xx rules), simulator invariants (S2xx rules), "
            "reporting discipline (R3xx), and the whole-program E3xx "
            "contracts over the interprocedural call graph, in one pass.  "
            "See DESIGN.md for the rule catalog.  Exit codes: "
            "0 clean, 1 findings, 2 usage/internal error."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="violation output format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help=(
            "comma-separated rule ids or family prefixes to report "
            "(e.g. 'D101', 'E3', 'D,S2'); every rule still runs, so a "
            "selected E304 judges waivers of unselected rules too"
        ),
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="list every suppression comment with its staleness verdict",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.set_defaults(func=cmd_lint)
    return parser


def add_callgraph_parser(
    subparsers: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> argparse.ArgumentParser:
    """Register the ``callgraph`` subcommand (witness-chain explorer)."""
    parser = subparsers.add_parser(
        "callgraph",
        help="dump reachable-effect witness chains from kernel entry points",
        description=(
            "Links the whole-program call graph and prints, for each entry "
            "point (kernel loop, per-packet train path, scheme callbacks, "
            "scheduled callbacks and hooks), every effect it can reach with "
            "the full witness chain: entry -> call -> ... -> effect site, "
            "file:line per hop.  Informational: exits 0 (2 on errors)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--entry",
        action="append",
        default=None,
        metavar="PATTERN",
        help=(
            "fnmatch pattern over function qnames to use as entry points "
            "(repeatable; default: the E301/E302 entry set plus every "
            "registered callback)"
        ),
    )
    parser.add_argument(
        "--kind",
        action="append",
        default=None,
        metavar="KIND",
        choices=EFFECT_KINDS,
        help="only show these effect kinds (repeatable; default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="output format (default: text)",
    )
    parser.set_defaults(func=cmd_callgraph)
    return parser


def _print_rules() -> None:
    for rule in ALL_RULES + EFFECT_RULE_CATALOG:
        print(f"{rule.rule_id}  {rule.title}")
        print(f"      scope: {rule.patrols}")
        print(f"      guards: {rule.rationale}")
        print(f"      derives from: {rule.paper_ref}")


def cmd_lint(args: argparse.Namespace) -> int:
    """Entry point shared by ``conga-repro lint`` and tests."""
    if args.list_rules:
        _print_rules()
        return 0
    selected = None
    try:
        if args.select is not None:
            file_rules, effect_ids = resolve_select(args.select)
            selected = [rule.rule_id for rule in file_rules] + list(effect_ids)
        effects_report = analyze_effects(args.paths)
    except (UnknownRuleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = LintReport(
        violations=effects_report.violations(selected),
        files_checked=effects_report.files_checked,
    )

    if args.output_format == "json":
        document = report.to_json()
        document["effects"] = effects_report.to_json()
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for violation in report.violations:
            print(violation.format())
        if args.show_suppressed:
            for status in effects_report.suppressions:
                where = f"{status.path}:{status.line}" if status.line else status.path
                form = "ignore" if status.line else "ignore-file"
                verdict = (
                    f"STALE: {','.join(status.stale)}" if status.stale else "used"
                )
                print(f"{where}: {form}[{','.join(status.rules)}] {verdict}")
        summary = (
            f"{len(report.violations)} violation(s) in "
            f"{report.files_checked} file(s)"
            if report.violations
            else f"clean: {report.files_checked} file(s), 0 violations"
        )
        print(summary)
    return 0 if report.ok else 1


def cmd_callgraph(args: argparse.Namespace) -> int:
    """Entry point for ``conga-repro callgraph``."""
    try:
        report = analyze_effects(args.paths)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = dump_callgraph(report, entries=args.entry, kinds=args.kind)
    if args.output_format == "json":
        print(json.dumps({"version": 1, "chains": records}, indent=2, sort_keys=True))
        return 0
    for record in records:
        deferred = " (deferred)" if record["deferred"] else ""
        chain = " -> ".join(
            f"{hop['function']} ({hop['path']}:{hop['line']})"
            for hop in record["chain"]
        )
        site = record["site"]
        print(
            f"{record['entry']}: {record['kind']}{deferred} "
            f"{record['detail']} at {site['path']}:{site['line']}"
        )
        print(f"    {chain}")
    print(f"{len(records)} reachable effect(s) from {report.files_checked} file(s)")
    return 0


__all__ = ["add_callgraph_parser", "add_lint_parser", "cmd_callgraph", "cmd_lint"]
