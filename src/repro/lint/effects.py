"""Whole-program effect propagation and the E3xx rule family.

Built on the call graph from :mod:`repro.lint.callgraph`, this module
propagates per-function effect sets transitively and enforces the
contracts that per-file rules cannot see:

* **E301** — no wall-clock / ambient-RNG / I-O effects reachable from a
  kernel entry point (``Simulator.run``, ``Port._advance``,
  ``DRE.measure``, scheme ``choose_uplink`` overrides, every scheduled
  callback and registered ``on_transmit`` hook).
* **E302** — no allocation effects (closures, comprehensions, known-class
  construction) reachable from the per-packet train path *without
  crossing a callback edge* — the synchronous per-packet code that PR 7's
  train batching made allocation-free.  S205's concern followed in depth
  from four entries; S205 itself patrols in breadth (DESIGN.md says why
  both stay).
* **E303** — nothing unpicklable reaches a schedule slot
  (``sim.schedule*`` / ``Timer`` / ``PeriodicTimer`` callback): a lambda
  or nested def passed directly (depth 0), or a lambda handed into a
  parameter that is transitively scheduled (depth n — through two
  helpers into ``sim.schedule`` breaks subprocess shipping just the same).
* **E304** — stale suppression comments: an ``ignore[...]`` whose rules
  no longer match any (pre-suppression) finding at that site.

Every E301/E302/E303 finding carries a concrete witness chain — entry
point → call → … → effect site, with ``path:line`` per hop — rendered in
the violation message, exported in ``--format json``, and dumped by
``conga-repro callgraph``.

Propagation runs over the condensation of the call graph (iterative
Tarjan SCCs, callees first).  Crossing a ``callback`` edge marks an
effect *deferred*: still on the kernel clock (E301 bans it) but not part
of the synchronous per-packet path (E302 ignores it).  Witnesses are
first-acquisition: a function records how it first obtained an effect and
never overwrites it, which keeps chains loop-free even inside SCCs.

Suppression semantics: an effect whose *site line* carries a suppression
for the matching base rule (D101 for time, S205 for alloc, …) or for the
E-rule itself never enters propagation — the per-file waiver covers the
transitive report too, and E304 tracks whether each waiver still matches
anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.callgraph import (
    CallGraph,
    ModuleSummary,
    link_modules,
    summarize_paths,
)
from repro.lint.engine import Violation

#: Effect kinds banned on the kernel clock (E301) and the train path (E302).
E301_BANNED = ("time", "rng", "io")
E302_BANNED = ("alloc",)

#: Entry points of the kernel-clock contract (fnmatch patterns on qnames).
DEFAULT_E301_ENTRIES: tuple[str, ...] = (
    "repro.sim.kernel.Simulator.run*",
    "repro.sim.kernel.run_until_idle",
    "repro.sim.kernel.Timer._fire",
    "repro.sim.kernel.PeriodicTimer._fire",
    "repro.net.port.Port.send",
    "repro.net.port.Port._advance",
    "repro.net.port.Port._arrive",
    "repro.core.dre.DRE.measure",
    "repro.core.dre.DRE.on_transmit",
    "repro.lb.*.choose_uplink",
)

#: Entry points of the allocation-free per-packet train path (E302).
DEFAULT_E302_ENTRIES: tuple[str, ...] = (
    "repro.net.port.Port.send",
    "repro.net.port.Port._advance",
    "repro.core.dre.DRE.measure",
    "repro.core.dre.DRE.on_transmit",
)


@dataclass(frozen=True)
class EffectRule:
    """Catalog metadata for one E3xx rule (mirrors ``Rule`` attributes)."""

    rule_id: str
    title: str
    rationale: str
    paper_ref: str
    patrols: str = "whole program (call graph over the analyzed paths)"


EFFECT_RULE_CATALOG: tuple[EffectRule, ...] = (
    EffectRule(
        rule_id="E301",
        title="no wall-clock/RNG/io effects reachable from kernel entry points",
        rationale=(
            "The simulation must be a pure function of the spec; a helper two "
            "calls below Simulator.run that reads the wall clock or ambient "
            "RNG breaks the golden digests even though no per-file rule fires."
        ),
        paper_ref="repo determinism contract (tests/golden/), CONGA §5.2",
    ),
    EffectRule(
        rule_id="E302",
        title="no allocation effects reachable from the per-packet train path",
        rationale=(
            "Port._advance/DRE.measure run once per packet at 1M events/sec; "
            "any reachable closure, comprehension, or object construction on "
            "the synchronous path is a per-packet allocation (S205's "
            "concern followed across call boundaries from four entries)."
        ),
        paper_ref="CONGA §3.2 (DRE on the data path), tests/test_frame_budget.py",
    ),
    EffectRule(
        rule_id="E303",
        title="nothing unpicklable reaches a schedule slot, directly or forwarded",
        rationale=(
            "A lambda or nested def in a kernel.schedule*/Timer callback "
            "slot — passed directly or forwarded through helpers — lands on "
            "the event heap that SubprocessBackend workers pickle, and "
            "captures state that diverges between a cancelled and a "
            "re-armed event.  Pass a bound method or module-level function "
            "(plus the arg slot for data)."
        ),
        paper_ref="repro.runner subprocess isolation contract (run_sweep)",
    ),
    EffectRule(
        rule_id="E304",
        title="no stale suppression comments",
        rationale=(
            "An ignore[...] comment whose rules no longer match any finding "
            "hides future regressions at that site; stale waivers must be "
            "removed (ruff unused-noqa analogue)."
        ),
        paper_ref="repo lint policy (DESIGN.md)",
    ),
)

EFFECT_RULE_IDS: tuple[str, ...] = tuple(r.rule_id for r in EFFECT_RULE_CATALOG)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

#: A witness records how a function first acquired an effect key:
#: ``(line, callee_qname | None, callee_key | None, detail | None)`` —
#: own effect when ``callee`` is None, else the call/override/callback
#: edge it arrived through.
Witness = tuple[int, str | None, str | None, str | None]


def _key(kind: str, deferred: bool) -> str:
    return f"{kind}@deferred" if deferred else kind


def _split_key(key: str) -> tuple[str, bool]:
    if key.endswith("@deferred"):
        return key[: -len("@deferred")], True
    return key, False


def _own_effects(graph: CallGraph) -> dict[str, dict[str, Witness]]:
    """Per-function atomic effects (extraction + link-time ctor allocs)."""
    own: dict[str, dict[str, Witness]] = {}
    for qname, fn in graph.functions.items():
        table: dict[str, Witness] = {}
        for kind, line, detail in fn.effects:
            table.setdefault(_key(kind, False), (line, None, None, detail))
        for line, cls_qname, matched in graph.ctor_allocs.get(qname, ()):
            if not matched:
                table.setdefault(
                    _key("alloc", False),
                    (line, None, None, f"constructs {cls_qname}"),
                )
        if table:
            own[qname] = table
    return own


def _tarjan_sccs(
    nodes: Sequence[str], successors: dict[str, list[str]]
) -> list[list[str]]:
    """Iterative Tarjan; emits SCCs callees-first (reverse topological)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = successors.get(node, [])
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in index:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                component.sort()
                sccs.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def propagate(graph: CallGraph) -> dict[str, dict[str, Witness]]:
    """Transitive effect sets with first-acquisition witnesses."""
    own = _own_effects(graph)
    nodes = sorted(graph.functions)
    successors = {
        qname: [edge.callee for edge in graph.out_edges.get(qname, ())]
        for qname in nodes
    }
    result: dict[str, dict[str, Witness]] = {}
    for component in _tarjan_sccs(nodes, successors):
        for member in component:
            result[member] = dict(own.get(member, {}))
        changed = True
        while changed:
            changed = False
            for member in component:
                table = result[member]
                for edge in graph.out_edges.get(member, ()):
                    callee_table = result.get(edge.callee)
                    if not callee_table:
                        continue
                    crosses = edge.kind == "callback"
                    for callee_key in list(callee_table):
                        kind, deferred = _split_key(callee_key)
                        new_key = _key(kind, deferred or crosses)
                        if new_key not in table:
                            table[new_key] = (
                                edge.line,
                                edge.callee,
                                callee_key,
                                None,
                            )
                            changed = True
    return result


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainHop:
    """One hop of a witness chain."""

    qname: str
    path: str
    line: int


@dataclass
class EffectFinding:
    """One E301/E302/E303 finding with its full witness chain."""

    rule: str
    kind: str
    entry: str
    entry_reason: str
    chain: list[ChainHop]
    site_path: str
    site_line: int
    detail: str

    def chain_text(self) -> str:
        hops = " -> ".join(f"{hop.qname} ({hop.path}:{hop.line})" for hop in self.chain)
        return f"{hops} -> {self.detail} ({self.site_path}:{self.site_line})"

    def message(self) -> str:
        return (
            f"{self.detail} ({self.kind}) reachable from {self.entry} "
            f"[{self.entry_reason}]; witness: {self.chain_text()}"
        )

    def to_violation(self) -> Violation:
        return Violation(
            rule=self.rule,
            path=self.site_path,
            line=self.site_line,
            col=1,
            message=self.message(),
        )

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "kind": self.kind,
            "entry": self.entry,
            "entry_reason": self.entry_reason,
            "chain": [
                {"function": hop.qname, "path": hop.path, "line": hop.line}
                for hop in self.chain
            ],
            "site": {
                "path": self.site_path,
                "line": self.site_line,
                "detail": self.detail,
            },
        }


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


def _witness_chain(
    graph: CallGraph,
    propagation: dict[str, dict[str, Witness]],
    start: str,
    start_key: str,
) -> tuple[list[ChainHop], str, str, int]:
    """Reconstruct ``(hops, detail, site_path, site_line)`` for one key."""
    hops: list[ChainHop] = []
    qname, key = start, start_key
    # Terminates: a witness always names a key its callee acquired earlier.
    while True:
        line, callee, callee_key, detail = propagation[qname][key]
        path = graph.path_of(qname)
        hops.append(ChainHop(qname=qname, path=path, line=line))
        if callee is None:
            return hops, detail or key, path, line
        qname, key = callee, callee_key or key


def _match_entries(
    graph: CallGraph, patterns: Sequence[str]
) -> dict[str, str]:
    matched: dict[str, str] = {}
    for qname in graph.functions:
        for pattern in patterns:
            if fnmatchcase(qname, pattern):
                matched[qname] = f"entry pattern {pattern}"
                break
    return matched


def _check_reachability(
    graph: CallGraph,
    propagation: dict[str, dict[str, Witness]],
    entries: dict[str, str],
    banned: Sequence[str],
    rule: str,
    *,
    allow_deferred: bool,
) -> list[EffectFinding]:
    findings: list[EffectFinding] = []
    seen_sites: set[tuple[str, str, int, str]] = set()
    for entry in sorted(entries):
        table = propagation.get(entry, {})
        for kind in banned:
            for deferred in (False, True) if allow_deferred else (False,):
                key = _key(kind, deferred)
                if key not in table:
                    continue
                hops, detail, site_path, site_line = _witness_chain(
                    graph, propagation, entry, key
                )
                site_id = (rule, site_path, site_line, kind)
                if site_id in seen_sites:
                    continue
                seen_sites.add(site_id)
                findings.append(
                    EffectFinding(
                        rule=rule,
                        kind=kind,
                        entry=entry,
                        entry_reason=entries[entry],
                        chain=hops,
                        site_path=site_path,
                        site_line=site_line,
                        detail=detail,
                    )
                )
                break  # one witness per (entry, kind) is enough
    return findings


# ---------------------------------------------------------------------------
# E303: unpicklable values in schedule slots, direct or forwarded
# ---------------------------------------------------------------------------


def _check_forwarding(
    graph: CallGraph,
    used_marks: dict[tuple[str, int], set[str]],
) -> list[EffectFinding]:
    """Lambdas/nested defs in a schedule/Timer slot, direct or via helpers."""
    # Fixpoint: (function, param) pairs whose value ends up scheduled.
    forwarding: dict[tuple[str, str], tuple] = {}
    for qname, fn in graph.functions.items():
        for name, line in fn.sched_params:
            forwarding[(qname, name)] = ("site", line)
    changed = True
    while changed:
        changed = False
        for arg in graph.forward_args:
            if arg.kind != "name" or arg.value is None:
                continue
            source = (arg.caller, arg.value)
            target = (arg.callee, arg.param)
            if target in forwarding and source not in forwarding:
                forwarding[source] = ("call", arg.line, arg.callee, arg.param)
                changed = True

    findings: list[EffectFinding] = []
    # Depth 0: the unpicklable value sits in the slot itself.
    for qname, fn in graph.functions.items():
        if not fn.sched_direct:
            continue
        owner = qname.rsplit(".", 2 if fn.cls else 1)[0]
        path = graph.path_of(qname)
        for line, name in fn.sched_direct:
            if name is not None and f"{owner}.{name}" in graph.functions:
                continue  # also a module-level function: not provably the closure
            matched = _suppressed_at(graph, qname, line, ("E303",))
            if matched:
                used_marks.setdefault((path, line), set()).update(matched)
                continue
            what = "lambda" if name is None else f"nested function {name!r}"
            findings.append(
                EffectFinding(
                    rule="E303",
                    kind="unpicklable-callback",
                    entry=qname,
                    entry_reason="schedules it directly",
                    chain=[ChainHop(qname=qname, path=path, line=line)],
                    site_path=path,
                    site_line=line,
                    detail=(
                        f"{what} scheduled on the event kernel; pass a bound "
                        "method or module-level function (use the arg slot for "
                        "data) so the component stays picklable for "
                        "SubprocessBackend workers"
                    ),
                )
            )
    # Depth n: a lambda handed to a parameter that ends up scheduled.
    for arg in graph.forward_args:
        if arg.kind != "lambda":
            continue
        target = (arg.callee, arg.param)
        if target not in forwarding:
            continue
        caller_path = graph.path_of(arg.caller)
        matched = _suppressed_at(graph, arg.caller, arg.line, ("E303",))
        if matched:
            used_marks.setdefault((caller_path, arg.line), set()).update(matched)
            continue
        hops = [ChainHop(qname=arg.caller, path=caller_path, line=arg.line)]
        qname, param = arg.callee, arg.param
        witness = forwarding[target]
        site_line = arg.line
        site_path = caller_path
        guard = 0
        while guard < 64:
            guard += 1
            path = graph.path_of(qname)
            if witness[0] == "site":
                hops.append(ChainHop(qname=qname, path=path, line=witness[1]))
                site_path, site_line = path, witness[1]
                break
            _tag, line, callee, callee_param = witness
            hops.append(ChainHop(qname=qname, path=path, line=line))
            qname, param = callee, callee_param
            witness = forwarding.get((qname, param), ("site", 1))
        findings.append(
            EffectFinding(
                rule="E303",
                kind="unpicklable-callback",
                entry=arg.caller,
                entry_reason=f"lambda argument to {arg.callee}",
                chain=hops,
                site_path=caller_path,
                site_line=arg.line,
                detail=(
                    f"lambda forwarded into parameter {param!r} of {arg.callee}, "
                    f"which schedules it on the event kernel "
                    f"({site_path}:{site_line}); scheduled callbacks must be "
                    "picklable for SubprocessBackend workers"
                ),
            )
        )
    findings.sort(key=lambda f: (f.site_path, f.site_line, f.entry))
    return findings


def _suppressed_at(
    graph: CallGraph, qname: str, line: int, rules: tuple[str, ...]
) -> set[str]:
    """Suppression ids at ``line`` of the module defining ``qname``."""
    probe = qname
    summary: ModuleSummary | None = None
    while probe:
        if probe in graph.modules:
            summary = graph.modules[probe]
            break
        if "." not in probe:
            break
        probe = probe.rsplit(".", 1)[0]
    if summary is None:
        return set()
    pools = (
        set(summary.file_suppressions),
        set(summary.suppression_lines.get(line, ())),
    )
    return {rule for pool in pools for rule in pool if rule == "*" or rule in rules}


# ---------------------------------------------------------------------------
# E304: stale suppressions
# ---------------------------------------------------------------------------


def _check_suppressions(
    graph: CallGraph,
    used_marks: dict[tuple[str, int], set[str]],
) -> tuple[list[Violation], list[SuppressionStatus]]:
    violations: list[Violation] = []
    statuses: list[SuppressionStatus] = []
    for module in sorted(graph.modules.values(), key=lambda s: s.path):
        findings_by_line: dict[int, set[str]] = {}
        file_rules_seen: set[str] = set()
        for found in module.rule_findings:
            findings_by_line.setdefault(found.line, set()).add(found.rule)
            file_rules_seen.add(found.rule)
        suppressed_by_line: dict[int, set[str]] = {}
        for fn in module.functions:
            for _kind, line, _detail, matched in fn.suppressed_effects:
                suppressed_by_line.setdefault(line, set()).update(matched)
            for line, _cls, matched in graph.ctor_allocs.get(fn.qname, ()):
                if matched:
                    suppressed_by_line.setdefault(line, set()).update(matched)
        for (path, line), marks in used_marks.items():
            if path == module.path:
                suppressed_by_line.setdefault(line, set()).update(marks)

        for line in sorted(module.suppression_lines):
            rules = module.suppression_lines[line]
            at_line = findings_by_line.get(line, set())
            waived = suppressed_by_line.get(line, set())
            used = sorted(
                rule
                for rule in rules
                if rule in waived
                or (rule == "*" and (at_line or waived))
                or rule in at_line
            )
            stale = [rule for rule in rules if rule not in used]
            statuses.append(
                SuppressionStatus(
                    path=module.path, line=line, rules=rules, used=used, stale=stale
                )
            )
            if stale:
                listed = ",".join(stale)
                violations.append(
                    Violation(
                        rule="E304",
                        path=module.path,
                        line=line,
                        col=1,
                        message=(
                            f"suppression ignore[{listed}] matches no finding "
                            "at this line — stale waiver, remove it"
                        ),
                    )
                )
        if module.file_suppressions:
            all_waived = {
                rule for marks in suppressed_by_line.values() for rule in marks
            }
            used = sorted(
                rule
                for rule in module.file_suppressions
                if rule in file_rules_seen
                or rule in all_waived
                or (rule == "*" and (file_rules_seen or all_waived))
            )
            stale = [r for r in module.file_suppressions if r not in used]
            statuses.append(
                SuppressionStatus(
                    path=module.path,
                    line=0,
                    rules=list(module.file_suppressions),
                    used=used,
                    stale=stale,
                )
            )
            if stale:
                violations.append(
                    Violation(
                        rule="E304",
                        path=module.path,
                        line=1,
                        col=1,
                        message=(
                            f"whole-file suppression ignore-file[{','.join(stale)}] "
                            "matches no finding in this file — stale waiver"
                        ),
                    )
                )
    return violations, statuses


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


@dataclass
class EffectsReport:
    """Result of one analysis pass: per-file findings and the E3xx family."""

    #: Per-file D/S/R findings (and E001) that survived suppression.
    file_violations: list[Violation]
    findings: list[EffectFinding]
    stale: list[Violation]
    suppressions: list[SuppressionStatus]
    files_checked: int
    graph: CallGraph
    propagation: dict[str, dict[str, Witness]] = field(repr=False, default_factory=dict)

    def violations(self, select: Iterable[str] | None = None) -> list[Violation]:
        """Every violation, optionally narrowed to selected rule ids.

        E001 is never narrowed away: nothing can be said about a file
        that does not parse, whatever was selected.
        """
        out = list(self.file_violations)
        out.extend(finding.to_violation() for finding in self.findings)
        out.extend(self.stale)
        if select is not None:
            wanted = {"E001", *select}
            out = [violation for violation in out if violation.rule in wanted]
        out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
        return out

    @property
    def ok(self) -> bool:
        return not (self.file_violations or self.findings or self.stale)

    def to_json(self) -> dict[str, object]:
        return {
            "version": 1,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "findings": [finding.to_json() for finding in self.findings],
            "stale_suppressions": [
                {
                    "path": violation.path,
                    "line": violation.line,
                    "message": violation.message,
                }
                for violation in self.stale
            ],
            "suppressions": [status.to_json() for status in self.suppressions],
        }


def analyze_effects(
    paths: Sequence[Path | str],
    *,
    e301_entries: Sequence[str] = DEFAULT_E301_ENTRIES,
    e302_entries: Sequence[str] = DEFAULT_E302_ENTRIES,
    include_dynamic_entries: bool = True,
) -> EffectsReport:
    """The one analysis pass over ``paths``.

    file → module summary (one parse, one rule sweep) → {per-file
    findings, linked call graph} → E301–E304 → report.
    """
    summaries = summarize_paths(paths)
    graph = link_modules(summaries)
    propagation = propagate(graph)

    e301 = _match_entries(graph, e301_entries)
    if include_dynamic_entries:
        for qname, reason in graph.dynamic_entries.items():
            e301.setdefault(qname, reason)
    e302 = _match_entries(graph, e302_entries)

    findings = _check_reachability(
        graph, propagation, e301, E301_BANNED, "E301", allow_deferred=True
    )
    findings.extend(
        _check_reachability(
            graph, propagation, e302, E302_BANNED, "E302", allow_deferred=False
        )
    )
    used_marks: dict[tuple[str, int], set[str]] = {}
    findings.extend(_check_forwarding(graph, used_marks))
    findings.sort(key=lambda f: (f.site_path, f.site_line, f.rule, f.entry))
    stale, suppressions = _check_suppressions(graph, used_marks)

    return EffectsReport(
        file_violations=[v for summary in summaries for v in summary.violations],
        findings=findings,
        stale=stale,
        suppressions=suppressions,
        files_checked=len(summaries),
        graph=graph,
        propagation=propagation,
    )


def dump_callgraph(
    report: EffectsReport,
    *,
    entries: Sequence[str] | None = None,
    kinds: Sequence[str] | None = None,
) -> list[dict[str, object]]:
    """Witness chains for every effect reachable from the entry points.

    Powers ``conga-repro callgraph``: one record per (entry, effect key)
    with the full hop list, independent of whether the effect violates an
    E-rule — the exploratory view of what the kernel clock can reach.
    """
    graph = report.graph
    if entries is None:
        matched = _match_entries(
            graph, tuple(DEFAULT_E301_ENTRIES) + tuple(DEFAULT_E302_ENTRIES)
        )
        for qname, reason in graph.dynamic_entries.items():
            matched.setdefault(qname, reason)
    else:
        matched = _match_entries(graph, entries)
    records: list[dict[str, object]] = []
    for entry in sorted(matched):
        table = report.propagation.get(entry, {})
        for key in sorted(table):
            kind, deferred = _split_key(key)
            if kinds is not None and kind not in kinds:
                continue
            hops, detail, site_path, site_line = _witness_chain(
                graph, report.propagation, entry, key
            )
            records.append(
                {
                    "entry": entry,
                    "entry_reason": matched[entry],
                    "kind": kind,
                    "deferred": deferred,
                    "detail": detail,
                    "site": {"path": site_path, "line": site_line},
                    "chain": [
                        {"function": hop.qname, "path": hop.path, "line": hop.line}
                        for hop in hops
                    ],
                }
            )
    return records


__all__ = [
    "DEFAULT_E301_ENTRIES",
    "DEFAULT_E302_ENTRIES",
    "E301_BANNED",
    "E302_BANNED",
    "EFFECT_RULE_CATALOG",
    "EFFECT_RULE_IDS",
    "EffectFinding",
    "EffectRule",
    "EffectsReport",
    "SuppressionStatus",
    "analyze_effects",
    "dump_callgraph",
    "propagate",
]
