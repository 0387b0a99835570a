"""Static analysis for the repro codebase (``conga-repro lint``).

An AST-based analyzer (stdlib only — no runtime dependencies) that turns
the repo's determinism contract and CONGA's simulation invariants into
machine-checked rules.  The golden digest fixtures catch nondeterminism
*after* it ships; these rules reject the code patterns that introduce it
before any simulation runs.

Rule classes:

* ``D1xx`` (determinism): wall-clock reads, ambient randomness, process-
  dependent hashing, unordered iteration, float accumulation.
* ``S2xx`` (simulation invariants): frozen experiment specs, registry
  writes through the registration API, benchmark grids through the sweep
  runner, no closures in hot-path methods.
* ``R3xx`` (reporting discipline): no print()/logging on simulator code
  paths — signals go through the :mod:`repro.obs` plane.
* ``E3xx`` (whole-program effects): transitive contracts enforced over
  the interprocedural call graph (:mod:`repro.lint.effects`) — no
  wall-clock/RNG/io reachable from kernel entry points (E301), no
  allocation reachable from the per-packet train path (E302), nothing
  unpicklable in a schedule slot, directly or forwarded (E303), and no
  stale suppression comments (E304).

One pass computes all of it: :func:`analyze_effects` parses each file
once, runs every per-file rule once, links the call graph and evaluates
the E3xx family.  See DESIGN.md for the full catalog with paper
references, and README.md for CLI usage (``lint``, ``callgraph``).
"""

from repro.lint.callgraph import (
    CallGraph,
    ModuleSummary,
    link_modules,
    summarize_module,
    summarize_paths,
)
from repro.lint.effects import (
    EFFECT_RULE_CATALOG,
    EFFECT_RULE_IDS,
    EffectFinding,
    EffectsReport,
    analyze_effects,
    dump_callgraph,
)
from repro.lint.engine import (
    LintReport,
    ModuleContext,
    Rule,
    Violation,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.lint.rules import (
    ALL_RULES,
    UnknownRuleError,
    get_rules,
    resolve_select,
)

__all__ = [
    "ALL_RULES",
    "CallGraph",
    "EFFECT_RULE_CATALOG",
    "EFFECT_RULE_IDS",
    "EffectFinding",
    "EffectsReport",
    "LintReport",
    "ModuleContext",
    "ModuleSummary",
    "Rule",
    "UnknownRuleError",
    "Violation",
    "analyze_effects",
    "dump_callgraph",
    "get_rules",
    "iter_python_files",
    "link_modules",
    "lint_paths",
    "lint_source",
    "resolve_select",
    "summarize_module",
    "summarize_paths",
]
