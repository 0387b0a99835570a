"""Module-level call-graph extraction for the whole-program effect pass.

The per-file rules in :mod:`repro.lint.rules` see one module at a time, so
a helper two calls away from the kernel loop can reintroduce wall-clock
reads or per-packet allocation without any rule firing.  This module is
the first half of the fix: it lowers every analyzed file into a compact
:class:`ModuleSummary` (functions, classes, imports, atomic effects,
callback registrations, and the per-file rules' findings on the same
parsed tree) and then links the summaries into a whole-program
:class:`CallGraph`.  :mod:`repro.lint.effects` propagates effect sets
over that graph and enforces the E3xx rules.

Resolution strategy (static, no imports executed):

* ``name(...)`` — local function / class, then ``import`` aliases.
* ``self.meth(...)`` — method lookup over the class's base chain, plus
  edges to every override in known subclasses (dynamic dispatch is
  over-approximated, which is what a *reachability* analysis wants).
* ``self.attr.meth(...)`` — attribute types inferred from ``__init__``
  assignments and annotations (including string annotations such as
  ``"Tracer | None"``), then method lookup as above.
* ``local = SomeClass(...); local.meth(...)`` — one-level local variable
  type inference inside a function body.
* ``kernel.schedule*(..., cb)`` / ``Timer(sim, cb)`` — a *callback* edge
  from the scheduling function to ``cb`` (deferred control flow; the
  effect propagation marks everything crossing such an edge as running
  on the event loop).
* ``port.on_transmit.append(fn)`` / ``register_scheme(SchemeSpec(...))``
  — hook/registration edges; the registered callable becomes an entry
  point of the kernel-clock contract.

Unresolvable references degrade to *no edge* — the analysis
under-approximates the graph rather than flooding it with noise; the
per-file rules remain the backstop for purely local patterns.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.lint.engine import (
    Suppressions,
    Violation,
    iter_python_files,
    parse_module,
    run_rules,
)
from repro.lint.rules import (
    ALL_RULES,
    _NUMPY_GLOBAL_RANDOM,
    _SCHEDULE_METHODS,
    _WALL_CLOCK_DATETIME_FUNCS,
    _WALL_CLOCK_TIME_FUNCS,
    _dotted_name,
)

#: Effect kinds inferred per function (the effect lattice).  ``alloc`` is
#: split by shape in the detail string; ``@deferred`` variants (appended
#: during propagation) mean the effect runs behind a callback edge.
EFFECT_KINDS = (
    "time",        # wall-clock reads
    "rng",         # ambient/global RNG (stdlib random, numpy global state)
    "alloc",       # closures / comprehensions / known-class construction
    "io",          # print / open / logging
)

#: Base per-file rule that patrols each effect kind; a suppression of the
#: base rule at the effect site also silences the transitive E3xx report.
KIND_BASE_RULES: dict[str, tuple[str, ...]] = {
    "time": ("D101",),
    "rng": ("D102",),
    "alloc": ("S205",),
    "io": ("R301",),
}

#: E3xx rules that can report each effect kind transitively.
KIND_EFFECT_RULES: dict[str, tuple[str, ...]] = {
    "time": ("E301",),
    "rng": ("E301",),
    "io": ("E301",),
    "alloc": ("E302",),
}

_TIMER_CLASSES = {"Timer": 1, "PeriodicTimer": 2}


def module_qname(path: Path) -> str:
    """Dotted module name, anchored at the last ``repro`` path component.

    ``src/repro/sim/kernel.py`` → ``repro.sim.kernel``; a fixture tree
    ``<tmp>/repro/sim/kernel.py`` maps to the same qname on purpose, so
    tests can impersonate kernel modules.  Files outside any ``repro``
    tree use their stem (packages: the directory name).
    """
    parts = path.parts
    stem = path.stem
    is_pkg = stem == "__init__"
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            rel = list(parts[index:-1])
            if not is_pkg:
                rel.append(stem)
            return ".".join(rel)
    return path.parent.name if is_pkg else stem


@dataclass
class FunctionInfo:
    """One analyzed function or method (nested defs fold into their parent)."""

    qname: str
    name: str
    cls: str | None
    line: int
    params: list[str]
    is_method: bool
    #: ``(text, line)`` direct call references, as written.
    calls: list[tuple[str, int]] = field(default_factory=list)
    #: ``(text, line)`` resolvable callback references at schedule/Timer sites.
    callbacks: list[tuple[str, int]] = field(default_factory=list)
    #: ``(kind, line, detail)`` live atomic effects.
    effects: list[tuple[str, int, str]] = field(default_factory=list)
    #: ``(kind, line, detail, matched_rules)`` effects silenced at the site.
    suppressed_effects: list[tuple[str, int, str, list[str]]] = field(
        default_factory=list
    )
    #: ``(param_name, line)`` — params this function passes straight into
    #: a schedule/Timer callback slot (seeds of the E303 forwarding
    #: fixpoint).
    sched_params: list[tuple[str, int]] = field(default_factory=list)
    #: ``(line, name)`` — a lambda (``name`` None) or nested def handed
    #: *directly* to a schedule/Timer callback slot: E303 at depth 0.
    sched_direct: list[tuple[int, str | None]] = field(default_factory=list)
    #: Interesting arguments at call sites, for the E303 fixpoint:
    #: ``(callee_text, line, position, keyword, kind, name)`` where kind is
    #: ``lambda`` / ``def`` (unpicklable values) or ``name`` (a parameter of
    #: this function, enabling transitive forwarding).
    sched_args: list[tuple[str, int, int, str | None, str, str | None]] = field(
        default_factory=list
    )
    #: Local variable name -> constructor/call text (one-level inference).
    local_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """One class definition: bases, methods, and inferred attribute types."""

    qname: str
    name: str
    line: int
    bases: list[str]
    methods: dict[str, str]
    attr_types: dict[str, str]


@dataclass
class ModuleSummary:
    """Everything the linker and the report need about one file."""

    module: str
    path: str
    imports: dict[str, str]
    functions: list[FunctionInfo]
    classes: list[ClassInfo]
    #: ``(text, line, via)`` callables registered as hooks/schemes at any
    #: scope (``on_transmit.append``, ``SchemeSpec(...)`` fields).
    hooks: list[tuple[str, int, str]]
    #: line -> sorted rule ids, plus whole-file ids under line 0.
    suppression_lines: dict[int, list[str]]
    file_suppressions: list[str]
    #: Every per-file rule's findings before suppression: the evidence
    #: base for E304, and — minus the waived ones — the per-file report.
    rule_findings: list[Violation]
    violations: list[Violation]


def _annotation_ref(node: ast.expr | None) -> str | None:
    """Best-effort class reference from an annotation expression.

    Handles ``Tracer``, ``obs.Tracer``, ``Tracer | None``, ``Optional[T]``,
    ``list[T]`` (→ None: the *container* is not a project class), and
    string annotations by re-parsing them.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_ref(node.left) or _annotation_ref(node.right)
    if isinstance(node, ast.Subscript):
        base = _dotted_name(node.value)
        if base and base.rsplit(".", 1)[-1] in {"Optional", "Union"}:
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_ref(inner)
        return None
    if isinstance(node, ast.Constant) and node.value is None:
        return None
    return _dotted_name(node)


def _collect_imports(tree: ast.Module, module: str, is_pkg: bool) -> dict[str, str]:
    """Local name -> fully qualified target for every import binding."""
    package = module if is_pkg else module.rsplit(".", 1)[0]
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    top = alias.name.split(".", 1)[0]
                    imports[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                strip = node.level - 1
                if strip:
                    anchor = anchor[:-strip] if strip < len(anchor) else []
                prefix = ".".join(anchor)
                base = f"{prefix}.{base}" if base and prefix else (prefix or base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                imports[alias.asname or alias.name] = target
    return imports


class _FunctionExtractor(ast.NodeVisitor):
    """Walks one function body (nested defs included) and fills FunctionInfo."""

    def __init__(
        self,
        info: FunctionInfo,
        imports: dict[str, str],
        suppressions: Suppressions,
        root: ast.AST,
    ) -> None:
        self.info = info
        self.imports = imports
        self.suppressions = suppressions
        self.root = root
        # AST nodes hash by identity, so a plain set tracks membership
        # without process-dependent id()/hash() calls (D103-clean).
        self._raise_calls: set[ast.Call] = set()
        self._nested = {
            child.name
            for child in ast.walk(root)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not root
        }

    # -- effect bookkeeping -------------------------------------------------

    def _effect(self, kind: str, node: ast.AST, detail: str) -> None:
        line = getattr(node, "lineno", self.info.line)
        rules = KIND_BASE_RULES.get(kind, ()) + KIND_EFFECT_RULES.get(kind, ())
        matched = sorted(
            rule
            for pool in (
                self.suppressions.whole_file,
                self.suppressions.by_line.get(line, set()),
            )
            for rule in pool
            if rule == "*" or rule in rules
        )
        if matched:
            self.info.suppressed_effects.append((kind, line, detail, matched))
        else:
            self.info.effects.append((kind, line, detail))

    # -- visitors -----------------------------------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        # Constructor calls in ``raise`` statements are error paths, not
        # steady-state allocation; exclude them from call/alloc extraction.
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._raise_calls.add(child)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._effect("alloc", node, "lambda")
        self.generic_visit(node)

    def _visit_nested_def(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if node is not self.root:
            self._effect("alloc", node, f"nested function {node.name!r}")
        self.generic_visit(node)

    visit_FunctionDef = _visit_nested_def  # type: ignore[assignment]
    visit_AsyncFunctionDef = _visit_nested_def  # type: ignore[assignment]

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._effect("alloc", node, "list comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._effect("alloc", node, "set comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._effect("alloc", node, "dict comprehension")
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._effect("alloc", node, "generator expression")
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            text = _dotted_name(node.value.func)
            if text:
                self.info.local_types[node.targets[0].id] = text
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        text = _dotted_name(node.func)
        if text is not None:
            self._classify_call(node, text)
        elif isinstance(node.func, ast.Attribute):
            # ``self.ports[0].sim.schedule(...)``: no dotted name, still a slot.
            self._maybe_callback_site(node, "", ["", node.func.attr])
        self.generic_visit(node)

    # -- call classification ------------------------------------------------

    def _classify_call(self, node: ast.Call, text: str) -> None:
        segs = text.split(".")
        head, tail = segs[0], segs[-1]
        resolved_head = self.imports.get(head, "")

        if len(segs) == 1:
            if tail == "print":
                self._effect("io", node, "print()")
                return
            if tail == "open":
                self._effect("io", node, "open()")
                return
        if resolved_head in {"time", "datetime"} or head in {"time", "datetime"}:
            base = resolved_head or head
            if base == "time" and tail in _WALL_CLOCK_TIME_FUNCS and len(segs) == 2:
                self._effect("time", node, f"time.{tail}()")
                return
            if base == "datetime" and tail in _WALL_CLOCK_DATETIME_FUNCS:
                self._effect("time", node, f"datetime.{tail}()")
                return
        if len(segs) == 1 and self.imports.get(text, "").startswith("time."):
            target = self.imports[text]
            if target.split(".", 1)[1] in _WALL_CLOCK_TIME_FUNCS:
                self._effect("time", node, f"{target}()")
                return
        if (resolved_head == "random" or head == "random") and len(segs) == 2:
            self._effect("rng", node, f"random.{tail}()")
            return
        if (
            len(segs) >= 3
            and segs[-2] == "random"
            and tail in _NUMPY_GLOBAL_RANDOM
            and self.imports.get(head, head) in {"numpy", "np"}
        ):
            self._effect("rng", node, f"numpy.random.{tail}()")
            return
        if resolved_head == "logging" or head == "logging":
            self._effect("io", node, f"logging.{tail}()")
            return
        if len(segs) >= 3 and segs[-2] in {"stdout", "stderr"} and tail == "write":
            self._effect("io", node, f"sys.{segs[-2]}.write()")
            return

        self._maybe_callback_site(node, text, segs)

        if node not in self._raise_calls:
            self.info.calls.append((text, node.lineno))
        self._record_sched_args(node, text)

    def _maybe_callback_site(
        self, node: ast.Call, text: str, segs: list[str]
    ) -> None:
        """Record callback/hook registrations rooted at this call."""
        tail = segs[-1]
        callback: ast.expr | None = None
        via = ""
        if tail in _SCHEDULE_METHODS and len(segs) >= 2:
            via = "schedule"
            callback = node.args[1] if len(node.args) > 1 else None
            for keyword in node.keywords:
                if keyword.arg == "callback":
                    callback = keyword.value
        elif tail in _TIMER_CLASSES or text in _TIMER_CLASSES:
            via = "timer"
            index = _TIMER_CLASSES.get(tail, 1)
            callback = node.args[index] if len(node.args) > index else None
            for keyword in node.keywords:
                if keyword.arg == "callback":
                    callback = keyword.value
        elif tail == "append" and len(segs) >= 2 and segs[-2] == "on_transmit":
            via = "hook"
            callback = node.args[0] if node.args else None
        elif tail in {"register_scheme", "SchemeSpec"}:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    for value in list(sub.args) + [k.value for k in sub.keywords]:
                        ref = _dotted_name(value)
                        if ref and "." in ref:
                            self.info.callbacks.append((ref, node.lineno))
            return
        if callback is None:
            return
        ref = _dotted_name(callback)
        if ref is not None:
            if via != "hook" and ref in self.info.params:
                if ref not in [name for name, _ in self.info.sched_params]:
                    self.info.sched_params.append((ref, node.lineno))
            else:
                if via != "hook" and ref in self._nested:
                    self.info.sched_direct.append((callback.lineno, ref))
                self.info.callbacks.append((ref, node.lineno))
        elif isinstance(callback, ast.Lambda):
            if via != "hook":
                self.info.sched_direct.append((callback.lineno, None))
            body_ref = None
            if isinstance(callback.body, ast.Call):
                body_ref = _dotted_name(callback.body.func)
            if body_ref:
                self.info.callbacks.append((body_ref, node.lineno))

    def _record_sched_args(self, node: ast.Call, text: str) -> None:
        """Track lambda/def/param arguments for the E303 forwarding fixpoint."""
        tail = text.rsplit(".", 1)[-1]
        if tail in _SCHEDULE_METHODS or tail in _TIMER_CLASSES:
            return
        for position, arg in enumerate(node.args):
            self._one_sched_arg(text, node.lineno, position, None, arg)
        for keyword in node.keywords:
            if keyword.arg is not None:
                self._one_sched_arg(text, node.lineno, -1, keyword.arg, keyword.value)

    def _one_sched_arg(
        self,
        callee: str,
        line: int,
        position: int,
        keyword: str | None,
        value: ast.expr,
    ) -> None:
        if isinstance(value, ast.Lambda):
            self.info.sched_args.append((callee, line, position, keyword, "lambda", None))
        elif isinstance(value, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pass  # cannot appear as an expression
        elif isinstance(value, ast.Name) and value.id in self.info.params:
            self.info.sched_args.append((callee, line, position, keyword, "name", value.id))


def _extract_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    module: str,
    cls: ClassInfo | None,
    imports: dict[str, str],
    suppressions: Suppressions,
) -> FunctionInfo:
    params = [arg.arg for arg in node.args.posonlyargs + node.args.args]
    is_method = cls is not None and not any(
        isinstance(dec, ast.Name) and dec.id == "staticmethod"
        for dec in node.decorator_list
    )
    owner = f"{module}.{cls.name}" if cls is not None else module
    info = FunctionInfo(
        qname=f"{owner}.{node.name}",
        name=node.name,
        cls=cls.name if cls is not None else None,
        line=node.lineno,
        params=params,
        is_method=is_method,
    )
    extractor = _FunctionExtractor(info, imports, suppressions, node)
    extractor.visit(node)
    return info


def _extract_class(
    node: ast.ClassDef,
    *,
    module: str,
    imports: dict[str, str],
    suppressions: Suppressions,
) -> tuple[ClassInfo, list[FunctionInfo]]:
    info = ClassInfo(
        qname=f"{module}.{node.name}",
        name=node.name,
        line=node.lineno,
        bases=[ref for ref in (_dotted_name(base) for base in node.bases) if ref],
        methods={},
        attr_types={},
    )
    functions: list[FunctionInfo] = []
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _extract_function(
                child,
                module=module,
                cls=info,
                imports=imports,
                suppressions=suppressions,
            )
            info.methods[child.name] = fn.qname
            functions.append(fn)
            if child.name == "__init__":
                _infer_attr_types(child, info)
        elif isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
            ref = _annotation_ref(child.annotation)
            if ref:
                info.attr_types.setdefault(child.target.id, ref)
    return info, functions


def _infer_attr_types(init: ast.FunctionDef | ast.AsyncFunctionDef, cls: ClassInfo) -> None:
    """Fill ``attr_types`` from ``self.x = ...`` statements in ``__init__``."""
    annotations = {
        arg.arg: _annotation_ref(arg.annotation)
        for arg in init.args.posonlyargs + init.args.args
    }
    for node in ast.walk(init):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            ref = _annotation_ref(node.annotation)
            if (
                ref
                and isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"
            ):
                cls.attr_types.setdefault(node.target.attr, ref)
            continue
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            ref: str | None = None
            if isinstance(value, ast.Call):
                ref = _dotted_name(value.func)
            elif isinstance(value, ast.Name):
                ref = annotations.get(value.id)
            if ref:
                cls.attr_types.setdefault(target.attr, ref)


def summarize_module(source: str, path: Path | str) -> ModuleSummary:
    """Lower one file into its :class:`ModuleSummary`.

    The file is parsed and tokenised once (:func:`parse_module`); every
    per-file rule runs once over that tree, and the call-graph extraction
    walks the same tree.  A file that does not parse yields an empty
    summary carrying its E001.
    """
    context = parse_module(source, path)
    suppressions = context.suppressions
    tree = context.tree
    module = module_qname(context.path)
    findings = run_rules(context, ALL_RULES)
    imports = _collect_imports(tree, module, context.path.stem == "__init__")
    functions: list[FunctionInfo] = []
    classes: list[ClassInfo] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(
                _extract_function(
                    node,
                    module=module,
                    cls=None,
                    imports=imports,
                    suppressions=suppressions,
                )
            )
        elif isinstance(node, ast.ClassDef):
            cls_info, methods = _extract_class(
                node, module=module, imports=imports, suppressions=suppressions
            )
            classes.append(cls_info)
            functions.extend(methods)
    return ModuleSummary(
        module=module,
        path=context.display_path,
        imports=imports,
        functions=functions,
        classes=classes,
        hooks=_module_level_hooks(tree),
        suppression_lines={
            line: sorted(rules) for line, rules in suppressions.by_line.items()
        },
        file_suppressions=sorted(suppressions.whole_file),
        rule_findings=findings,
        violations=[v for v in findings if not suppressions.suppressed(v)],
    )


def _module_level_hooks(tree: ast.Module) -> list[tuple[str, int, str]]:
    """Hook/scheme registrations in module-level code (outside functions)."""
    hooks: list[tuple[str, int, str]] = []
    stack: list[ast.stmt] = [
        node
        for node in tree.body
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for stmt in stack:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            text = _dotted_name(node.func) or ""
            tail = text.rsplit(".", 1)[-1]
            if tail in {"register_scheme", "SchemeSpec"}:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        values = list(sub.args) + [k.value for k in sub.keywords]
                        for value in values:
                            ref = _dotted_name(value)
                            if ref and "." in ref:
                                hooks.append((ref, node.lineno, "scheme"))
            elif tail == "append" and ".on_transmit." in f".{text}":
                if node.args:
                    ref = _dotted_name(node.args[0])
                    if ref:
                        hooks.append((ref, node.lineno, "hook"))
    return hooks


# ---------------------------------------------------------------------------
# Linking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    """One resolved call-graph edge."""

    caller: str
    callee: str
    line: int
    #: ``call`` (synchronous), ``override`` (dynamic dispatch), or
    #: ``callback`` (deferred via the event kernel / hooks).
    kind: str


@dataclass(frozen=True)
class ForwardArg:
    """A resolved argument of interest for the E303 forwarding fixpoint.

    ``kind`` is ``lambda`` (an unpicklable value handed to ``callee``) or
    ``name`` (the caller forwards its own parameter ``value`` into the
    callee's parameter ``param``, enabling transitive tracking).
    """

    caller: str
    callee: str
    line: int
    param: str
    kind: str
    value: str | None


@dataclass
class CallGraph:
    """The linked whole-program graph over all module summaries."""

    modules: dict[str, ModuleSummary]
    functions: dict[str, FunctionInfo]
    classes: dict[str, ClassInfo]
    edges: list[Edge]
    #: qname -> outgoing edges, sorted for determinism.
    out_edges: dict[str, list[Edge]]
    #: Functions registered as kernel callbacks/hooks: qname -> reason.
    dynamic_entries: dict[str, str]
    #: Link-time allocation effects (known-class construction):
    #: caller qname -> list of (line, class qname, suppressed_rules).
    ctor_allocs: dict[str, list[tuple[int, str, list[str]]]]
    #: module qname -> display path (for witness rendering).
    module_paths: dict[str, str]
    #: Resolved lambda/param argument flows (E303 fixpoint input).
    forward_args: list[ForwardArg] = field(default_factory=list)

    def path_of(self, qname: str) -> str:
        """Display path of the module defining ``qname``."""
        probe = qname
        while probe:
            if probe in self.module_paths:
                return self.module_paths[probe]
            if "." not in probe:
                break
            probe = probe.rsplit(".", 1)[0]
        return "<unknown>"


class _Linker:
    """Resolves per-module references into a :class:`CallGraph`."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules = {summary.module: summary for summary in summaries}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.class_module: dict[str, str] = {}
        for summary in summaries:
            for fn in summary.functions:
                self.functions[fn.qname] = fn
            for cls in summary.classes:
                self.classes[cls.qname] = cls
                self.class_module[cls.qname] = summary.module
        self._resolved_bases: dict[str, list[str]] = {}
        self._subclasses: dict[str, list[str]] = {}
        self._link_hierarchy()

    # -- class hierarchy ----------------------------------------------------

    def _link_hierarchy(self) -> None:
        for qname, cls in self.classes.items():
            module = self.modules[self.class_module[qname]]
            bases = []
            for ref in cls.bases:
                resolved = self._resolve_class_ref(ref, module)
                if resolved:
                    bases.append(resolved)
            self._resolved_bases[qname] = bases
        for qname, bases in self._resolved_bases.items():
            for base in self._ancestors(qname):
                self._subclasses.setdefault(base, []).append(qname)
        for subs in self._subclasses.values():
            subs.sort()

    def _ancestors(self, qname: str) -> list[str]:
        seen: list[str] = []
        stack = list(self._resolved_bases.get(qname, ()))
        while stack:
            base = stack.pop()
            if base in seen:
                continue
            seen.append(base)
            stack.extend(self._resolved_bases.get(base, ()))
        return seen

    def _mro(self, qname: str) -> list[str]:
        return [qname] + self._ancestors(qname)

    def _resolve_class_ref(self, ref: str, module: ModuleSummary) -> str | None:
        segs = ref.split(".")
        head = segs[0]
        candidates = [f"{module.module}.{head}", module.imports.get(head, "")]
        if len(segs) == 1:
            for candidate in candidates:
                if candidate in self.classes:
                    return candidate
            return None
        base = module.imports.get(head)
        if base is None:
            return None
        qname = ".".join([base] + segs[1:])
        return qname if qname in self.classes else None

    def _method(self, cls_qname: str, name: str) -> str | None:
        for klass in self._mro(cls_qname):
            info = self.classes.get(klass)
            if info and name in info.methods:
                return info.methods[name]
        return None

    def _overrides(self, cls_qname: str, name: str) -> list[str]:
        found: list[str] = []
        for sub in self._subclasses.get(cls_qname, ()):
            info = self.classes.get(sub)
            if info and name in info.methods:
                found.append(info.methods[name])
        return found

    def _attr_type(self, cls_qname: str, attr: str) -> str | None:
        for klass in self._mro(cls_qname):
            info = self.classes.get(klass)
            if info and attr in info.attr_types:
                module = self.modules[self.class_module[klass]]
                return self._resolve_class_ref(info.attr_types[attr], module)
        return None

    # -- reference resolution ------------------------------------------------

    def resolve(
        self, fn: FunctionInfo, module: ModuleSummary, text: str
    ) -> list[tuple[str, str]]:
        """Resolve a dotted reference to ``[(qname, "function"|"class")]``."""
        segs = text.split(".")
        head = segs[0]
        own_class = f"{module.module}.{fn.cls}" if fn.cls else None

        if head in {"self", "cls"} and own_class:
            return self._resolve_via_class(own_class, segs[1:])
        if head in fn.local_types:
            ctor = fn.local_types[head]
            cls_qname = self._resolve_class_ref(ctor, module)
            if cls_qname and len(segs) > 1:
                return self._resolve_via_class(cls_qname, segs[1:])
            return []
        if len(segs) == 1:
            local = f"{module.module}.{head}"
            if local in self.functions:
                return [(local, "function")]
            if local in self.classes:
                return [(local, "class")]
            imported = module.imports.get(head)
            if imported in self.functions:
                return [(imported, "function")]
            if imported in self.classes:
                return [(imported, "class")]
            return []
        base = module.imports.get(head)
        if base is None:
            local_cls = f"{module.module}.{head}"
            if local_cls in self.classes:
                base = local_cls
            else:
                return []
        return self._walk_dotted(base, segs[1:])

    def _resolve_via_class(
        self, cls_qname: str, segs: list[str]
    ) -> list[tuple[str, str]]:
        if not segs:
            return [(cls_qname, "class")]
        if len(segs) == 1:
            return self._method_targets(cls_qname, segs[0])
        attr_cls = self._attr_type(cls_qname, segs[0])
        if attr_cls is None:
            return []
        return self._resolve_via_class(attr_cls, segs[1:])

    def _method_targets(self, cls_qname: str, name: str) -> list[tuple[str, str]]:
        targets: list[tuple[str, str]] = []
        primary = self._method(cls_qname, name)
        if primary:
            targets.append((primary, "function"))
        for override in self._overrides(cls_qname, name):
            if (override, "function") not in targets:
                targets.append((override, "function"))
        return targets

    def _walk_dotted(self, base: str, segs: list[str]) -> list[tuple[str, str]]:
        current = base
        for index, seg in enumerate(segs):
            last = index == len(segs) - 1
            if current in self.classes:
                if last:
                    return self._method_targets(current, seg)
                attr_cls = self._attr_type(current, seg)
                if attr_cls is None:
                    return []
                current = attr_cls
                continue
            candidate = f"{current}.{seg}"
            if last:
                if candidate in self.functions:
                    return [(candidate, "function")]
                if candidate in self.classes:
                    return [(candidate, "class")]
                return []
            if candidate in self.classes or candidate in self.modules:
                current = candidate
            else:
                return []
        return []

    # -- graph construction --------------------------------------------------

    def link(self) -> CallGraph:
        edges: list[Edge] = []
        dynamic_entries: dict[str, str] = {}
        ctor_allocs: dict[str, list[tuple[int, str, list[str]]]] = {}
        forward_args: list[ForwardArg] = []

        for summary in self.modules.values():
            for fn in summary.functions:
                self._link_function(summary, fn, edges, dynamic_entries, ctor_allocs)
                self._link_forward_args(summary, fn, forward_args)
            for ref, line, via in summary.hooks:
                for target, kind in self._resolve_module_ref(summary, ref):
                    if kind == "function":
                        dynamic_entries.setdefault(
                            target, f"registered {via} at {summary.path}:{line}"
                        )

        edges.sort(key=lambda e: (e.caller, e.callee, e.line, e.kind))
        forward_args.sort(key=lambda a: (a.caller, a.line, a.callee, a.param))
        out_edges: dict[str, list[Edge]] = {}
        for edge in edges:
            out_edges.setdefault(edge.caller, []).append(edge)
        return CallGraph(
            modules=self.modules,
            functions=self.functions,
            classes=self.classes,
            edges=edges,
            out_edges=out_edges,
            dynamic_entries=dynamic_entries,
            ctor_allocs=ctor_allocs,
            module_paths={m: s.path for m, s in self.modules.items()},
            forward_args=forward_args,
        )

    def _link_forward_args(
        self,
        summary: ModuleSummary,
        fn: FunctionInfo,
        forward_args: list[ForwardArg],
    ) -> None:
        for callee_text, line, position, keyword, kind, value in fn.sched_args:
            for target, target_kind in self.resolve(fn, summary, callee_text):
                if target_kind != "function":
                    continue
                callee = self.functions[target]
                if keyword is not None:
                    param = keyword if keyword in callee.params else None
                else:
                    segs = callee_text.split(".")
                    head_is_class = (
                        segs[0] not in {"self", "cls"}
                        and len(segs) > 1
                        and self._resolve_class_ref(segs[0], summary) is not None
                    )
                    offset = (
                        1
                        if callee.is_method
                        and callee.params
                        and callee.params[0] in {"self", "cls"}
                        and not head_is_class
                        else 0
                    )
                    index = position + offset
                    param = (
                        callee.params[index] if index < len(callee.params) else None
                    )
                if param is None:
                    continue
                forward_args.append(
                    ForwardArg(
                        caller=fn.qname,
                        callee=target,
                        line=line,
                        param=param,
                        kind=kind,
                        value=value,
                    )
                )

    def _resolve_module_ref(
        self, summary: ModuleSummary, ref: str
    ) -> list[tuple[str, str]]:
        shim = FunctionInfo(
            qname=f"{summary.module}.<module>",
            name="<module>",
            cls=None,
            line=1,
            params=[],
            is_method=False,
        )
        return self.resolve(shim, summary, ref)

    def _link_function(
        self,
        summary: ModuleSummary,
        fn: FunctionInfo,
        edges: list[Edge],
        dynamic_entries: dict[str, str],
        ctor_allocs: dict[str, list[tuple[int, str, list[str]]]],
    ) -> None:
        seen: set[tuple[str, str, str]] = set()
        for text, line in fn.calls:
            for target, kind in self.resolve(fn, summary, text):
                if kind == "class":
                    self._record_ctor(
                        summary, fn, line, target, ctor_allocs, edges, seen
                    )
                elif (fn.qname, target, "call") not in seen:
                    seen.add((fn.qname, target, "call"))
                    edges.append(Edge(fn.qname, target, line, "call"))
                    self._add_override_edges(fn, target, line, edges, seen)
        for text, line in fn.callbacks:
            for target, kind in self.resolve(fn, summary, text):
                if kind == "class":
                    init = self._method(target, "__init__")
                    target = init or ""
                if target and (fn.qname, target, "callback") not in seen:
                    seen.add((fn.qname, target, "callback"))
                    edges.append(Edge(fn.qname, target, line, "callback"))
                    dynamic_entries.setdefault(
                        target, f"scheduled from {fn.qname} at {summary.path}:{line}"
                    )

    def _add_override_edges(
        self,
        fn: FunctionInfo,
        target: str,
        line: int,
        edges: list[Edge],
        seen: set[tuple[str, str, str]],
    ) -> None:
        callee = self.functions.get(target)
        if callee is None or callee.cls is None:
            return
        owner = target.rsplit(".", 2)
        cls_qname = ".".join(owner[:2]) if len(owner) >= 2 else None
        if cls_qname is None or cls_qname not in self.classes:
            return
        for override in self._overrides(cls_qname, callee.name):
            if (fn.qname, override, "override") not in seen:
                seen.add((fn.qname, override, "override"))
                edges.append(Edge(fn.qname, override, line, "override"))

    def _record_ctor(
        self,
        summary: ModuleSummary,
        fn: FunctionInfo,
        line: int,
        cls_qname: str,
        ctor_allocs: dict[str, list[tuple[int, str, list[str]]]],
        edges: list[Edge],
        seen: set[tuple[str, str, str]],
    ) -> None:
        rules = ("S205", "E302")
        pools = (
            set(summary.file_suppressions),
            set(summary.suppression_lines.get(line, ())),
        )
        matched = sorted(
            {rule for pool in pools for rule in pool if rule == "*" or rule in rules}
        )
        ctor_allocs.setdefault(fn.qname, []).append((line, cls_qname, matched))
        init = self._method(cls_qname, "__init__")
        if init and (fn.qname, init, "call") not in seen:
            seen.add((fn.qname, init, "call"))
            edges.append(Edge(fn.qname, init, line, "call"))


def link_modules(summaries: Sequence[ModuleSummary]) -> CallGraph:
    """Link per-module summaries into the whole-program call graph."""
    return _Linker(summaries).link()


def summarize_paths(paths: Sequence[Path | str]) -> list[ModuleSummary]:
    """Summarize every Python file under ``paths`` (sorted, deterministic)."""
    return [
        summarize_module(path.read_text(encoding="utf-8"), path)
        for path in iter_python_files(paths)
    ]


__all__ = [
    "CallGraph",
    "ClassInfo",
    "Edge",
    "EFFECT_KINDS",
    "ForwardArg",
    "FunctionInfo",
    "KIND_BASE_RULES",
    "KIND_EFFECT_RULES",
    "ModuleSummary",
    "link_modules",
    "module_qname",
    "summarize_module",
    "summarize_paths",
]
