"""The rule catalog: determinism (D1xx), simulation invariants (S2xx),
and reporting discipline (R3xx).

Each rule turns one of this reproduction's correctness contracts into a
machine-checked property, and each is here because no test, golden or CI
step fails on the regression it catches.  The golden digests
(tests/golden/) already fail on a draw from ambient random state, a
``hash(str)`` reaching a decision or a re-ordered float sum; what they
cannot see is a dependence that does not move today's digests — a
wall-clock read behind a branch a quiet machine never takes (D101), an
iteration order that only a future insertion order would change (D104).
The S-class rules guard structural invariants of the simulator and the
sweep runner that no digest covers.

DESIGN.md documents every rule with the regression it catches and the
audit that kept it; keep the two lists in sync.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import STALE_WAIVERS, ModuleContext, Rule, Violation

#: Wall-clock functions of :mod:`time` that break run reproducibility.
_WALL_CLOCK_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: Wall-clock constructors of :class:`datetime.datetime`.
_WALL_CLOCK_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: Registry dicts that must be written through their registration API.
_REGISTRIES = frozenset({"SCHEMES", "WORKLOADS"})


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


def _import_aliases(tree: ast.Module, module_name: str) -> set[str]:
    """Local names bound to ``import module_name [as alias]``."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module_name:
                    aliases.add(alias.asname or alias.name)
                elif alias.name.startswith(module_name + "."):
                    # ``import time.something`` binds the top-level name.
                    aliases.add(alias.asname or module_name)
    return aliases


def _from_import_aliases(
    tree: ast.Module, module_name: str, names: frozenset[str]
) -> dict[str, str]:
    """Local alias -> original for ``from module_name import name [as alias]``."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module_name:
            for alias in node.names:
                if alias.name in names:
                    aliases[alias.asname or alias.name] = alias.name
    return aliases


class WallClockRule(Rule):
    """D101 — simulated code must never read the wall clock."""

    rule_id = "D101"
    title = "no wall-clock reads on simulated code paths"
    rationale = (
        "Simulation time is Simulator.now (integer nanoseconds); a wall-clock "
        "read that influences results makes runs non-reproducible.  Reporting-"
        "only timing (perf counters) must be suppressed with a justification."
    )
    paper_ref = "repo determinism contract (tests/golden/)"

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        tree = module.tree
        time_aliases = _import_aliases(tree, "time")
        time_direct = _from_import_aliases(tree, "time", _WALL_CLOCK_TIME_FUNCS)
        datetime_mods = _import_aliases(tree, "datetime")
        datetime_classes = set(
            _from_import_aliases(tree, "datetime", frozenset({"datetime", "date"}))
        )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in time_direct:
                yield self.violation(
                    module,
                    node,
                    f"wall-clock call time.{time_direct[func.id]}() on a "
                    "simulated code path; use Simulator.now (suppress with a "
                    "reason if this is reporting-only timing)",
                )
                continue
            dotted = _dotted_name(func) if isinstance(func, ast.Attribute) else None
            if dotted is None:
                continue
            head, _, tail = dotted.partition(".")
            if head in time_aliases and tail in _WALL_CLOCK_TIME_FUNCS:
                yield self.violation(
                    module,
                    node,
                    f"wall-clock call {dotted}() on a simulated code path; "
                    "use Simulator.now (suppress with a reason if this is "
                    "reporting-only timing)",
                )
                continue
            last = dotted.rsplit(".", 1)[-1]
            if last in _WALL_CLOCK_DATETIME_FUNCS and (
                head in datetime_mods or head in datetime_classes
            ):
                yield self.violation(
                    module,
                    node,
                    f"wall-clock call {dotted}() on a simulated code path; "
                    "derive timestamps from Simulator.now",
                )


class UnorderedIterationRule(Rule):
    """D104 — no iteration over sets or unsorted dict views in hot packages."""

    rule_id = "D104"
    title = "no set / unsorted dict-view iteration in sim, switch, lb, core"
    scopes = ("core", "lb", "sim", "switch")
    rationale = (
        "dict insertion order depends on event interleaving and set order on "
        "key hashes; when such an order reaches path selection, RNG draws, "
        "or packet emission it silently drifts as code evolves (the CONGA "
        "congestion-table bookkeeping is exactly such state).  Iterate "
        "sorted(...) views instead."
    )
    paper_ref = "paper §3.3 (congestion tables), §5.2.3 (path selection)"

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for expr in iters:
                message = self._diagnose(expr)
                if message is not None:
                    yield self.violation(module, expr, message)

    @staticmethod
    def _diagnose(expr: ast.expr) -> str | None:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return (
                "iteration over a set literal/comprehension; order follows "
                "key hashes — iterate sorted(...) instead"
            )
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return (
                    f"iteration over {func.id}(...); order follows key "
                    "hashes — iterate sorted(...) instead"
                )
            if isinstance(func, ast.Attribute) and func.attr in {
                "keys",
                "values",
                "items",
            }:
                return (
                    f"iteration over an unsorted .{func.attr}() view; "
                    "insertion order can depend on event interleaving — "
                    "wrap in sorted(...)"
                )
        return None


class FrozenSpecRule(Rule):
    """S202 — experiment spec dataclasses stay frozen and hashable."""

    rule_id = "S202"
    title = "spec dataclasses must be frozen with immutable fields"
    rationale = (
        "ExperimentSpec is the cache key of the sweep runner: its content "
        "hash addresses the on-disk result cache and its fields cross "
        "process boundaries.  A mutable or unfrozen field silently decouples "
        "a cached result from what actually ran."
    )
    paper_ref = "repo sweep-runner contract (spec.content_hash)"

    _MUTABLE_NAMES = frozenset(
        {"list", "dict", "set", "List", "Dict", "Set", "bytearray"}
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not (node.name.endswith("Spec") or node.name == "PointResult"):
                continue
            decorator = self._dataclass_decorator(node)
            if decorator is None:
                continue
            if not self._is_frozen(decorator):
                yield self.violation(
                    module,
                    node,
                    f"spec dataclass {node.name} must be declared "
                    "@dataclass(frozen=True) so it stays hashable and its "
                    "content hash cannot rot",
                )
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and self._mutable_annotation(
                    stmt.annotation
                ):
                    yield self.violation(
                        module,
                        stmt,
                        f"field of spec dataclass {node.name} is annotated "
                        "with a mutable container; use tuple / frozen "
                        "dataclasses so the spec stays hashable",
                    )

    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            dotted = _dotted_name(target)
            if dotted in {"dataclass", "dataclasses.dataclass"}:
                return decorator
        return None

    @staticmethod
    def _is_frozen(decorator: ast.expr) -> bool:
        if not isinstance(decorator, ast.Call):
            return False
        for keyword in decorator.keywords:
            if keyword.arg == "frozen":
                value = keyword.value
                return isinstance(value, ast.Constant) and value.value is True
        return False

    def _mutable_annotation(self, annotation: ast.expr) -> bool:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name) and node.id in self._MUTABLE_NAMES:
                return True
        return False


class RegistryWriteRule(Rule):
    """S203 — schemes/workloads register through the registration API."""

    rule_id = "S203"
    title = "no direct writes to the SCHEMES / WORKLOADS registries"
    rationale = (
        "register_scheme validates name collisions and keeps the registry "
        "the single source of scheme identity that ExperimentSpec resolves "
        "by name across processes; raw dict writes bypass both."
    )
    paper_ref = "repo scheme registry (repro.apps.register_scheme)"

    _MUTATORS = frozenset(
        {"update", "setdefault", "pop", "popitem", "clear", "__setitem__"}
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    node.targets
                    if isinstance(node, (ast.Assign, ast.Delete))
                    else [node.target]
                )
                for target in targets:
                    name = self._registry_subscript(target)
                    if name is not None:
                        yield self.violation(
                            module,
                            node,
                            f"direct write to the {name} registry; go through "
                            "register_scheme(SchemeSpec(...)) (or the "
                            "workload registration helper) instead",
                        )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in self._MUTATORS:
                    base = _dotted_name(node.func.value)
                    if base is not None and base.rsplit(".", 1)[-1] in _REGISTRIES:
                        yield self.violation(
                            module,
                            node,
                            f"{base}.{node.func.attr}(...) mutates a registry "
                            "directly; go through register_scheme instead",
                        )

    @staticmethod
    def _registry_subscript(target: ast.expr) -> str | None:
        if isinstance(target, ast.Subscript):
            base = _dotted_name(target.value)
            if base is not None:
                name = base.rsplit(".", 1)[-1]
                if name in _REGISTRIES:
                    return name
        return None


class AdHocOutputRule(Rule):
    """R301 — simulator code reports through repro.obs, not print/logging."""

    rule_id = "R301"
    title = "no print() / logging on simulator code paths"
    #: Every package whose code the event kernel calls into.
    scopes = (
        "apps", "core", "faults", "lb", "net", "obs", "overlay", "sim",
        "switch", "topology", "transport", "workloads",
    )
    rationale = (
        "The observability contract routes every hot-path signal through "
        "repro.obs: trace events for per-decision records, plain counters "
        "for counts.  A print() or logging call in simulator packages is "
        "unstructured, unconditionally paid for, and invisible to the trace "
        "digest — so it rots into debugging residue.  Emit a TraceEvent or "
        "bump a counter instead."
    )
    paper_ref = "repro.obs plane (DESIGN.md observability chapter)"

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        tree = module.tree
        shadowed = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        shadowed.add(target.id)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "logging" or alias.name.startswith("logging."):
                        yield self.violation(
                            module,
                            node,
                            "import of the logging module in simulator code; "
                            "emit a repro.obs TraceEvent or registry metric "
                            "instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "logging" or (
                    node.module or ""
                ).startswith("logging."):
                    yield self.violation(
                        module,
                        node,
                        "import from the logging module in simulator code; "
                        "emit a repro.obs TraceEvent or registry metric "
                        "instead",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and "print" not in shadowed
            ):
                yield self.violation(
                    module,
                    node,
                    "print() on a simulator code path; emit a repro.obs "
                    "TraceEvent (gated on `tracer is not None`) or bump a "
                    "registry metric instead",
                )


class AdHocGridRule(Rule):
    """S204 — benchmark spec grids go through Scenario / sweep_grid."""

    rule_id = "S204"
    title = "no ad-hoc ExperimentSpec loops in benchmark files"
    rationale = (
        "A benchmark that builds or runs ExperimentSpecs inside a hand-"
        "rolled loop bypasses the sweep runner: its points are invisible to "
        "the result cache, cannot be dispatched to a backend, and drift "
        "from the committed scenarios/*.yaml grids.  Declare the grid with "
        "a Scenario (or sweep_grid) and hand it to run_sweep."
    )
    paper_ref = "repro.scenarios (EXPERIMENTS.md, Authoring scenarios)"
    # Path-scoped rather than package-scoped: this rule patrols the
    # benchmark suite, which lives outside the repro package tree.
    directory = "benchmarks"

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        yield from self._walk(module, module.tree, loop_depth=0)

    def _walk(
        self, module: ModuleContext, node: ast.AST, loop_depth: int
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            child_depth = loop_depth
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                child_depth += 1
            elif isinstance(
                child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                child_depth += 1
            elif loop_depth > 0 and isinstance(child, ast.Call):
                message = self._diagnose(child)
                if message is not None:
                    yield self.violation(module, child, message)
            yield from self._walk(module, child, child_depth)

    @staticmethod
    def _is_spec_constructor(expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        dotted = _dotted_name(expr.func)
        return dotted is not None and dotted.rsplit(".", 1)[-1] == "ExperimentSpec"

    def _diagnose(self, call: ast.Call) -> str | None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr == "run" and self._is_spec_constructor(func.value):
            return (
                "ExperimentSpec(...).run() inside a loop; declare the grid "
                "with a Scenario (or sweep_grid) and execute it through "
                "run_sweep so points hit the result cache"
            )
        if (
            func.attr == "append"
            and call.args
            and self._is_spec_constructor(call.args[0])
        ):
            return (
                ".append(ExperimentSpec(...)) inside a loop; build the grid "
                "with a Scenario (or sweep_grid) instead of accumulating "
                "specs by hand"
            )
        return None


#: Every per-file rule, in catalog order.
ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    UnorderedIterationRule(),
    AdHocOutputRule(),
    FrozenSpecRule(),
    RegistryWriteRule(),
    AdHocGridRule(),
)

#: What ``--list-rules`` prints and ``--select`` chooses from.
CATALOG: tuple[Rule, ...] = (*ALL_RULES, STALE_WAIVERS)


class UnknownRuleError(ValueError):
    """Raised when ``--select`` names a rule id that does not exist."""


def resolve_select(select: str | None) -> tuple[str, ...]:
    """The rule ids a ``--select`` expression names, in catalog order.

    Tokens are comma-separated and may be exact rule ids (``D101``) or
    family prefixes (``D`` → D101 and D104, ``S2`` → S202–S204, ``E3`` →
    E304).  A token that matches nothing raises :class:`UnknownRuleError`.
    With ``select=None`` every rule is selected.  Selection only narrows
    what is *reported*: the analyzer always runs every rule, which is what
    keeps E304 evidence complete.
    """
    ids = [rule.rule_id for rule in CATALOG]
    if select is None:
        return tuple(ids)
    tokens = [part.strip() for part in select.split(",") if part.strip()]
    unknown = [token for token in tokens if not any(i.startswith(token) for i in ids)]
    if unknown:
        raise UnknownRuleError(
            f"unknown rule id(s) {', '.join(unknown)}; known rules: {', '.join(ids)}"
        )
    return tuple(i for i in ids if any(i.startswith(token) for token in tokens))


def get_rules(select: str | None = None) -> tuple[Rule, ...]:
    """The per-file rule set to run; ``select`` accepts ids and prefixes."""
    chosen = resolve_select(select)
    return tuple(rule for rule in ALL_RULES if rule.rule_id in chosen)


__all__ = [
    "ALL_RULES",
    "AdHocGridRule",
    "AdHocOutputRule",
    "CATALOG",
    "FrozenSpecRule",
    "RegistryWriteRule",
    "UnknownRuleError",
    "UnorderedIterationRule",
    "WallClockRule",
    "get_rules",
    "resolve_select",
]
