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
  train batching made allocation-free.  Generalizes S205 beyond syntactic
  lambdas in the same file.
* **E303** — nothing unpicklable handed into a parameter that is
  (transitively) scheduled on the event kernel: a lambda passed through
  two helpers into ``sim.schedule`` breaks subprocess shipping even
  though S201's per-file check never sees it.
* **E304** — stale suppression comments: an ``ignore[...]`` whose rules
  no longer match any (pre-suppression) finding at that site.

Every E301/E302/E303 finding carries a concrete witness chain — entry
point → call → … → effect site, with ``path:line`` per hop — rendered in
the violation message, exported in JSON/SARIF ``codeFlows``, and dumped
by ``conga-repro callgraph``.

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

import hashlib
import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.callgraph import (
    CallGraph,
    ModuleSummary,
    link_modules,
    summarize_module,
)
from repro.lint.engine import Violation, iter_python_files

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
    scopes: tuple[str, ...] | None = None


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
            "the synchronous path is a per-packet allocation (generalizes "
            "S205 across call boundaries)."
        ),
        paper_ref="CONGA §3.2 (DRE on the data path), BENCH_kernel.json gate",
    ),
    EffectRule(
        rule_id="E303",
        title="values scheduled on the kernel must be transitively picklable",
        rationale=(
            "A lambda forwarded through helpers into kernel.schedule* lands "
            "on the event heap that SubprocessBackend workers pickle; S201 "
            "only sees the schedule call itself (generalized via the call "
            "graph)."
        ),
        paper_ref="repro.runner subprocess isolation contract",
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


@dataclass
class PropagationStats:
    """Cache-effectiveness counters asserted by the incremental tests."""

    files_total: int = 0
    files_analyzed: int = 0
    files_cached: int = 0
    sccs_total: int = 0
    sccs_repropagated: int = 0

    def to_json(self) -> dict[str, int]:
        return {
            "files_total": self.files_total,
            "files_analyzed": self.files_analyzed,
            "files_cached": self.files_cached,
            "sccs_total": self.sccs_total,
            "sccs_repropagated": self.sccs_repropagated,
        }


def _fingerprints(
    graph: CallGraph, own: dict[str, dict[str, Witness]]
) -> dict[str, str]:
    """Stable per-function digest of own effects + resolved out-edges."""
    prints: dict[str, str] = {}
    for qname in graph.functions:
        payload = {
            "own": sorted(
                (key, value[0], value[3] or "")
                for key, value in own.get(qname, {}).items()
            ),
            "edges": sorted(
                (edge.callee, edge.kind, edge.line)
                for edge in graph.out_edges.get(qname, ())
            ),
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        prints[qname] = hashlib.sha256(blob).hexdigest()
    return prints


def propagate(
    graph: CallGraph,
    *,
    cached_propagation: dict[str, dict[str, Witness]] | None = None,
    cached_fingerprints: dict[str, str] | None = None,
    stats: PropagationStats | None = None,
) -> tuple[dict[str, dict[str, Witness]], dict[str, str]]:
    """Transitive effect sets with first-acquisition witnesses.

    When cached propagation + fingerprints from a previous run are given,
    only strongly-connected components that can reach a changed function
    are recomputed; clean SCCs reuse the cached transitive sets.
    """
    own = _own_effects(graph)
    prints = _fingerprints(graph, own)
    cached_propagation = cached_propagation or {}
    cached_fingerprints = cached_fingerprints or {}
    seeds = {
        qname
        for qname, fingerprint in prints.items()
        if cached_fingerprints.get(qname) != fingerprint
    }

    nodes = sorted(graph.functions)
    successors = {
        qname: [edge.callee for edge in graph.out_edges.get(qname, ())]
        for qname in nodes
    }
    sccs = _tarjan_sccs(nodes, successors)
    scc_of = {member: i for i, component in enumerate(sccs) for member in component}

    result: dict[str, dict[str, Witness]] = {}
    dirty: list[bool] = []
    if stats is not None:
        stats.sccs_total = len(sccs)

    for component in sccs:
        is_dirty = any(member in seeds for member in component) or any(
            member not in cached_propagation for member in component
        )
        if not is_dirty:
            for member in component:
                for edge in graph.out_edges.get(member, ()):
                    callee_scc = scc_of.get(edge.callee)
                    if callee_scc is not None and callee_scc < len(dirty):
                        if dirty[callee_scc]:
                            is_dirty = True
                            break
                if is_dirty:
                    break
        dirty.append(is_dirty)
        if not is_dirty:
            for member in component:
                result[member] = dict(cached_propagation[member])
            continue
        if stats is not None:
            stats.sccs_repropagated += 1
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
    return result, prints


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
    seen: set[tuple[str, str]] = set()
    while (qname, key) not in seen and len(hops) < 64:
        seen.add((qname, key))
        witness = propagation.get(qname, {}).get(key)
        if witness is None:
            break
        line, callee, callee_key, detail = witness
        path = graph.path_of(qname)
        hops.append(ChainHop(qname=qname, path=path, line=line))
        if callee is None:
            return hops, detail or key, path, line
        qname, key = callee, callee_key or key
    # Degenerate (cache corruption): anchor at the entry itself.
    fn = graph.functions.get(start)
    line = fn.line if fn else 1
    path = graph.path_of(start)
    if not hops:
        hops = [ChainHop(qname=start, path=path, line=line)]
    return hops, _split_key(start_key)[0], hops[-1].path, hops[-1].line


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
# E303: transitive callback forwarding
# ---------------------------------------------------------------------------


def _check_forwarding(
    graph: CallGraph,
    used_marks: dict[tuple[str, int], set[str]],
) -> list[EffectFinding]:
    """Lambdas forwarded through helpers into a schedule/Timer slot."""
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
    for arg in graph.forward_args:
        if arg.kind != "lambda":
            continue
        target = (arg.callee, arg.param)
        if target not in forwarding:
            continue
        caller_path = graph.path_of(arg.caller)
        matched = _suppressed_at(graph, arg.caller, arg.line, ("S201", "E303"))
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
        for rule, line in module.rule_findings:
            findings_by_line.setdefault(line, set()).add(rule)
            file_rules_seen.add(rule)
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
    """Result of one whole-program effects pass."""

    findings: list[EffectFinding]
    stale: list[Violation]
    suppressions: list[SuppressionStatus]
    stats: PropagationStats
    files_checked: int
    graph: CallGraph
    propagation: dict[str, dict[str, Witness]] = field(repr=False, default_factory=dict)

    def violations(self, select: Iterable[str] | None = None) -> list[Violation]:
        """All E3xx violations, optionally filtered to selected rule ids."""
        wanted = set(select) if select is not None else None
        out = [
            finding.to_violation()
            for finding in self.findings
            if wanted is None or finding.rule in wanted
        ]
        if wanted is None or "E304" in wanted:
            out.extend(self.stale)
        out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
        return out

    @property
    def ok(self) -> bool:
        return not self.findings and not self.stale

    def to_json(self) -> dict[str, object]:
        return {
            "version": 1,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "stats": self.stats.to_json(),
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
    cache_path: Path | str | None = None,
    e301_entries: Sequence[str] = DEFAULT_E301_ENTRIES,
    e302_entries: Sequence[str] = DEFAULT_E302_ENTRIES,
    include_dynamic_entries: bool = True,
) -> EffectsReport:
    """Run the whole-program effects pass over ``paths``.

    ``cache_path`` enables the per-file content-hash cache: unchanged
    files reuse their summaries, and only SCCs that can reach a changed
    function are re-propagated (:class:`PropagationStats` records both).
    """
    from repro.lint.effcache import EffectCache

    cache = EffectCache(Path(cache_path)) if cache_path is not None else None
    stats = PropagationStats()

    summaries: list[ModuleSummary] = []
    for path in iter_python_files(paths):
        raw = path.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        stats.files_total += 1
        summary = cache.summary_for(str(path), digest) if cache else None
        if summary is None:
            summary = summarize_module(raw.decode("utf-8"), path)
            stats.files_analyzed += 1
        else:
            stats.files_cached += 1
        if cache:
            cache.store_summary(str(path), digest, summary)
        summaries.append(summary)

    graph = link_modules(summaries)
    propagation, fingerprints = propagate(
        graph,
        cached_propagation=cache.propagation if cache else None,
        cached_fingerprints=cache.fingerprints if cache else None,
        stats=stats,
    )

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

    if cache:
        cache.store_propagation(propagation, fingerprints)
        cache.save()

    return EffectsReport(
        findings=findings,
        stale=stale,
        suppressions=suppressions,
        stats=stats,
        files_checked=stats.files_total,
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
    "PropagationStats",
    "SuppressionStatus",
    "analyze_effects",
    "dump_callgraph",
    "propagate",
]
