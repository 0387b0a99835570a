"""Static analysis for the repro codebase (``conga-repro lint``).

An AST-based analyzer (stdlib only — no runtime dependencies) for the
contracts of this reproduction that no test, golden digest or CI step
guards.  Every rule it ships was kept by an audit: its typical
regression was planted in the source and nothing else went red
(DESIGN.md "Lint rule catalog" lists the planted regressions and the
gates that caught the rules that are gone).

Rule classes:

* ``D1xx`` (determinism): wall-clock reads, unordered iteration.
* ``S2xx`` (simulation invariants): frozen experiment specs, registry
  writes through the registration API.
* ``R3xx`` (reporting discipline): no print()/logging on simulator code
  paths — signals go through the :mod:`repro.obs` plane.
* ``E001`` (a file that does not parse) and ``E304`` (a waiver that no
  longer suppresses anything).

One pass computes all of it: :func:`lint_paths` parses each file once,
runs every rule once and audits every waiver against those findings.
See README.md for CLI usage.
"""

from repro.lint.engine import (
    LintReport,
    ModuleContext,
    Rule,
    SuppressionStatus,
    Violation,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.lint.rules import (
    ALL_RULES,
    CATALOG,
    UnknownRuleError,
    get_rules,
    resolve_select,
)

__all__ = [
    "ALL_RULES",
    "CATALOG",
    "LintReport",
    "ModuleContext",
    "Rule",
    "SuppressionStatus",
    "UnknownRuleError",
    "Violation",
    "get_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "resolve_select",
]
