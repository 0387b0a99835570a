"""Rule engine for the repro static analyzer (``conga-repro lint``).

The engine is deliberately small: :func:`parse_module` reads one file —
parsed once with the stdlib :mod:`ast`, tokenised once for suppression
comments — into the :class:`ModuleContext` that every rule of
:mod:`repro.lint.rules` checks, and :func:`lint_paths` is the one pass:
each file parsed once, every rule run once, its findings *before*
suppression both the report (minus the waived ones) and the evidence
the stale-waiver audit (E304) judges each waiver against.  Each rule
encodes a determinism or simulation invariant that no test, golden or
CI step guards (see DESIGN.md for the catalog and the audit behind it).

Suppression comments
--------------------
Two forms are recognized, both parsed from real tokenizer output so they
work anywhere a comment does:

* ``# repro-lint: ignore[D101]`` — suppress the listed rule ids (comma
  separated, ``*`` for all) on this physical line.  Trailing prose after
  the bracket is allowed and encouraged: state *why* the finding is safe.
* ``# repro-lint: ignore-file[D101]`` — suppress the listed rule ids for
  the whole file (for a module that is, say, wall-clock measurement code
  by definition).

A violation is matched against the physical line of the AST node that
raised it (``node.lineno``), so on a multi-line statement the suppression
comment belongs on the statement's first line.  A waiver that no longer
matches any finding is itself a finding (E304), which no waiver hides.

Scoping
-------
Rules may restrict themselves to subpackages of ``repro`` (e.g. the
unordered-iteration rule only patrols ``sim/``, ``switch/``, ``lb/`` and
``core/``, where iteration order can reach tie-breaking or the RNG).  The
scope of a file is derived from its path: everything after the last
``repro`` path component.  Files outside a ``repro`` package tree (test
fixtures, scratch scripts) have no scope and are checked by every rule.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Directories never descended into when expanding directory arguments.
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".repro-cache",
    ".mypy_cache",
    ".ruff_cache",
    ".pytest_cache",
}

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>ignore-file|ignore)\s*"
    r"\[(?P<rules>[A-Za-z0-9*,\s]+)\]"
)


@dataclass(frozen=True)
class Violation:
    """One rule finding at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line:col: RULE message`` line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scopes`` restricts a rule to top-level subpackages of ``repro``
    (``None`` means the whole tree); files outside any ``repro`` package
    are always in scope so fixtures and scripts can be checked too.
    ``directory`` restricts it to files under a directory of that name
    instead (the benchmark suite lives outside the package tree).
    """

    rule_id: str = ""
    title: str = ""
    #: The invariant this rule guards, in one sentence (shown by
    #: ``--list-rules`` and quoted in DESIGN.md).
    rationale: str = ""
    #: Paper section the invariant derives from ("" when repo-internal).
    paper_ref: str = ""
    scopes: tuple[str, ...] | None = None
    directory: str | None = None

    @property
    def patrols(self) -> str:
        """Where the rule applies, as ``--list-rules`` prints it."""
        if self.directory is not None:
            return f"files under a {self.directory}/ directory"
        return ", ".join(self.scopes) if self.scopes else "src/repro (all)"

    def applies(self, module: "ModuleContext") -> bool:
        """Whether this rule patrols ``module`` (scope check)."""
        if self.directory is not None:
            return self.directory in module.path.parts
        if self.scopes is None or module.scope is None:
            return True
        return bool(module.scope) and module.scope[0] in self.scopes

    def check(self, module: "ModuleContext") -> Iterator[Violation]:
        """Yield violations found in ``module``."""
        raise NotImplementedError

    def violation(
        self, module: "ModuleContext", node: ast.AST, message: str
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            rule=self.rule_id,
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class StaleWaiverRule(Rule):
    """E304 — every waiver still suppresses something.

    Not an AST check: :func:`audit_waivers` judges a file's waivers against
    every other rule's findings in it, before suppression.
    """

    rule_id = "E304"
    title = "no stale suppression comments"
    rationale = (
        "An ignore[...] comment whose rules no longer match any finding "
        "hides future regressions at that site; stale waivers must be "
        "removed (ruff unused-noqa analogue)."
    )
    paper_ref = "repo lint policy (DESIGN.md)"

    @property
    def patrols(self) -> str:
        return "every waiver in the analyzed paths"


STALE_WAIVERS = StaleWaiverRule()


@dataclass
class ModuleContext:
    """One file, parsed and tokenised once, for every rule."""

    path: Path
    display_path: str
    #: Empty when the file does not parse (``error`` is then its E001).
    tree: ast.Module
    #: Path components after the last ``repro`` directory, e.g.
    #: ``("sim", "kernel.py")``; ``None`` when the file is not inside a
    #: ``repro`` package tree.
    scope: tuple[str, ...] | None
    #: Empty too when the file does not parse: E001 cannot be waived.
    suppressions: "Suppressions"
    error: Violation | None = None


@dataclass
class Suppressions:
    """Per-file suppression state parsed from comments."""

    by_line: dict[int, set[str]]
    whole_file: set[str]

    def suppressed(self, violation: Violation) -> bool:
        """Whether ``violation`` is silenced by a comment."""
        for pool in (self.whole_file, self.by_line.get(violation.line, ())):
            if "*" in pool or violation.rule in pool:
                return True
        return False


@dataclass
class SuppressionStatus:
    """One suppression comment with its staleness verdict (E304)."""

    path: str
    line: int  # 0 for whole-file suppressions
    rules: list[str]
    used: list[str]
    stale: list[str]

    def to_json(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rules": self.rules,
            "used": self.used,
            "stale": self.stale,
        }


def scope_of(path: Path) -> tuple[str, ...] | None:
    """Subpackage scope of ``path`` relative to its ``repro`` package root."""
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return tuple(parts[index + 1:])
    return None


def parse_suppressions(source: str) -> Suppressions:
    """Extract suppression comments from ``source`` via the tokenizer."""
    by_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    lines = iter(source.splitlines(keepends=True))
    try:
        tokens = list(tokenize.generate_tokens(lambda: next(lines, "")))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return Suppressions(by_line, whole_file)
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        rules = {part.strip() for part in match.group("rules").split(",")}
        rules.discard("")
        if match.group("kind") == "ignore-file":
            whole_file |= rules
        else:
            by_line.setdefault(token.start[0], set()).update(rules)
    return Suppressions(by_line, whole_file)


def iter_python_files(paths: Sequence[Path | str]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    yield candidate
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")


def parse_module(source: str, path: Path | str) -> ModuleContext:
    """Parse and tokenise ``source`` exactly once into a :class:`ModuleContext`."""
    path = Path(path)
    display = str(path)
    error = None
    try:
        tree = ast.parse(source, filename=display)
        suppressions = parse_suppressions(source)
    except SyntaxError as exc:
        tree, suppressions = ast.Module(body=[], type_ignores=[]), Suppressions({}, set())
        error = Violation(
            rule="E001",
            path=display,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            message=f"file does not parse: {exc.msg}",
        )
    return ModuleContext(
        path=path,
        display_path=display,
        tree=tree,
        scope=scope_of(path),
        suppressions=suppressions,
        error=error,
    )


def run_rules(module: ModuleContext, rules: Sequence[Rule]) -> list[Violation]:
    """Findings *before* suppression: the report's input and E304's evidence."""
    if module.error is not None:
        return [module.error]
    return [
        violation
        for rule in rules
        if rule.applies(module)
        for violation in rule.check(module)
    ]


def audit_waivers(
    module: ModuleContext, findings: Sequence[Violation]
) -> tuple[list[Violation], list[SuppressionStatus]]:
    """E304: judge every waiver of ``module`` against its pre-suppression findings.

    A line waiver is used by the rules that fire on its line (``*`` by
    any); a whole-file waiver by the rules that fire anywhere in the file.
    """
    path = module.display_path
    at_line: dict[int, set[str]] = {}
    for found in findings:
        at_line.setdefault(found.line, set()).add(found.rule)
    anywhere = {rule for rules in at_line.values() for rule in rules}
    stale_found: list[Violation] = []
    statuses: list[SuppressionStatus] = []
    waivers = [
        (line, sorted(rules)) for line, rules in sorted(module.suppressions.by_line.items())
    ]
    if module.suppressions.whole_file:
        waivers.append((0, sorted(module.suppressions.whole_file)))
    for line, rules in waivers:
        fired = at_line.get(line, set()) if line else anywhere
        used = sorted(rule for rule in rules if rule in fired or (rule == "*" and fired))
        stale = [rule for rule in rules if rule not in used]
        statuses.append(SuppressionStatus(path, line, rules, used, stale))
        if stale:
            listed = ",".join(stale)
            message = (
                f"suppression ignore[{listed}] matches no finding at this "
                "line — stale waiver, remove it"
                if line
                else f"whole-file suppression ignore-file[{listed}] matches no "
                "finding in this file — stale waiver"
            )
            stale_found.append(Violation("E304", path, line or 1, 1, message))
    return stale_found, statuses


def lint_source(
    source: str,
    rules: Sequence[Rule],
    *,
    path: Path | str = "<string>",
) -> list[Violation]:
    """Run per-file ``rules`` over one in-memory module (no waiver audit)."""
    module = parse_module(source, path)
    found = run_rules(module, rules)
    found.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return [v for v in found if not module.suppressions.suppressed(v)]


@dataclass
class LintReport:
    """Aggregated result of linting a set of paths."""

    violations: list[Violation]
    files_checked: int
    #: Every suppression comment with its E304 verdict.
    suppressions: list[SuppressionStatus] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no violations survived suppression."""
        return not self.violations

    def selected(self, rule_ids: Iterable[str] | None) -> "LintReport":
        """The same report narrowed to ``rule_ids`` (E001 always stays).

        Nothing can be said about a file that does not parse, whatever was
        selected.
        """
        if rule_ids is None:
            return self
        wanted = {"E001", *rule_ids}
        return LintReport(
            [v for v in self.violations if v.rule in wanted],
            self.files_checked,
            self.suppressions,
        )

    def counts(self) -> dict[str, int]:
        """Violation tallies per rule id, sorted by rule id."""
        tally: dict[str, int] = {}
        for violation in self.violations:
            tally[violation.rule] = tally.get(violation.rule, 0) + 1
        return dict(sorted(tally.items()))

    def to_json(self) -> dict[str, object]:
        """The stable JSON document emitted by ``--format json``."""
        return {
            "version": 1,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "counts": self.counts(),
            "violations": [
                {
                    "rule": v.rule,
                    "path": v.path,
                    "line": v.line,
                    "column": v.col,
                    "message": v.message,
                }
                for v in self.violations
            ],
            "suppressions": [status.to_json() for status in self.suppressions],
        }


def lint_paths(paths: Sequence[Path | str], rules: Sequence[Rule]) -> LintReport:
    """The one pass over ``paths``: each file parsed once, every rule run once.

    Waivers are audited (E304) against ``rules``' findings, so pass every
    rule and narrow the report with :meth:`LintReport.selected`.
    """
    files = list(iter_python_files(paths))
    violations: list[Violation] = []
    statuses: list[SuppressionStatus] = []
    for path in files:
        module = parse_module(path.read_text(encoding="utf-8"), path)
        found = run_rules(module, rules)
        violations.extend(v for v in found if not module.suppressions.suppressed(v))
        stale, audited = audit_waivers(module, found)
        violations.extend(stale)
        statuses.extend(audited)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return LintReport(violations, len(files), statuses)


__all__ = [
    "LintReport",
    "ModuleContext",
    "Rule",
    "STALE_WAIVERS",
    "StaleWaiverRule",
    "SuppressionStatus",
    "Suppressions",
    "Violation",
    "audit_waivers",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "parse_module",
    "parse_suppressions",
    "run_rules",
    "scope_of",
]
