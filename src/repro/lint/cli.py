"""Argument handling for ``conga-repro lint``.

Exit-code semantics (stable contract for CI and pre-commit hooks):

* ``0`` — analysis ran and found nothing (clean tree).
* ``1`` — analysis ran and at least one violation survived suppression
  (a rule's finding, or a stale waiver reported as E304).
* ``2`` — the analysis itself could not run: unknown ``--select`` token,
  unknown flag, or unreadable path.

Every ``lint`` call is the same one pass — each file parsed once, every
rule run once, every waiver audited; ``--select`` narrows what is
reported, never what is computed.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.lint.engine import lint_paths
from repro.lint.rules import ALL_RULES, CATALOG, UnknownRuleError, resolve_select


def add_lint_parser(
    subparsers: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> argparse.ArgumentParser:
    """Register the ``lint`` subcommand on the main CLI's subparsers."""
    parser = subparsers.add_parser(
        "lint",
        help="run the determinism / simulation-invariant static analyzer",
        description=(
            "AST-based static analysis enforcing the contracts no test or "
            "golden guards: determinism (D1xx), simulator and sweep-runner "
            "invariants (S2xx), reporting discipline (R3xx) and waiver "
            "hygiene (E304), in one pass.  See DESIGN.md for the rule "
            "catalog.  Exit codes: 0 clean, 1 findings, 2 usage/internal error."
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
            "(e.g. 'D101', 'S2', 'D,E304'); every rule still runs, so a "
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


def _print_rules() -> None:
    for rule in CATALOG:
        print(f"{rule.rule_id}  {rule.title}")
        print(f"      scope: {rule.patrols}")
        print(f"      guards: {rule.rationale}")
        print(f"      derives from: {rule.paper_ref}")


def cmd_lint(args: argparse.Namespace) -> int:
    """Entry point shared by ``conga-repro lint`` and tests."""
    if args.list_rules:
        _print_rules()
        return 0
    try:
        selected = None if args.select is None else resolve_select(args.select)
        report = lint_paths(args.paths, ALL_RULES).selected(selected)
    except (UnknownRuleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output_format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for violation in report.violations:
            print(violation.format())
        if args.show_suppressed:
            for status in report.suppressions:
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


__all__ = ["add_lint_parser", "cmd_lint"]
