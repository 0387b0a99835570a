"""The paper's claims as data: one frozen :class:`Claim` row per check.

Each row names

* ``grid`` — what it reads: ``scenarios/*.yaml`` files compiled and run as
  one :func:`repro.runner.run_sweep` (every packet grid, on built-in schemes
  only, so any backend runs it), or one named function of :data:`GRIDS`,
  whose result is read as is (the fluid, theory and trace checks, which
  simulate no packets);
* ``metric`` — an extractor of :data:`EXTRACTORS`, turning that result
  into a table ``{cell: {side: value}}``: one cell per load, fault cell or
  setting the claim holds at;
* ``sides``, ``relation`` and ``tolerance`` — at every cell, ``a
  relation tolerance × b`` for each neighbouring pair ``(a, b)`` of
  ``sides``; a side is a column of the table or a constant.

A row with a ``deviation`` states the paper's claim where this
reproduction knowingly departs from it (EXPERIMENTS.md "Known
deviations"): it must fail, and ``benchmarks/`` marks it a strict xfail.

:data:`FIGURES` prints each grid's figure tables.  :data:`CLAIMS` keeps
each grid's rows together, in a fixed order (the figures' former file
names, alphabetically), so ``pytest benchmarks -s`` output stays diffable
against earlier runs.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.analysis.degradation import fault_cell, recovery_matrix
from repro.analysis.fct import relative_to
from repro.analysis.report import print_table
from repro.apps import incast_throughput_percent
from repro.units import milliseconds, to_microseconds, to_milliseconds

#: The committed scenario files a claim's ``grid`` names.
SCENARIOS = Path(__file__).resolve().parents[3] / "scenarios"

Table = dict[str, dict[str, Any]]

#: relation -> (margin of ``a`` over ``tolerance × b``, whether 0 holds).
RELATIONS: dict[str, tuple[Callable[[float, float, float], float], bool]] = {
    "<": (lambda a, b, t: t * b - a, False),
    "<=": (lambda a, b, t: t * b - a, True),
    ">": (lambda a, b, t: a - t * b, False),
    ">=": (lambda a, b, t: a - t * b, True),
    "~": (lambda a, b, t: t - abs(a - b), True),  # |a - b| <= t
    "~rel": (lambda a, b, t: t * abs(b) - abs(a - b), False),  # |a - b| < t |b|
}


@dataclass(frozen=True)
class Claim:
    """One checkable sentence of the paper, against one grid."""

    id: str
    metric: str
    sides: tuple[str | float, ...]
    relation: str = "<"
    tolerance: float = 1.0
    _: KW_ONLY
    anchor: str
    grid: tuple[str, ...]
    #: The table cells the claim is made at; empty means every cell.
    cells: tuple[str, ...] = ()
    #: Why this reproduction departs from the claim (a strict xfail).
    deviation: str = ""

    def margins(self, table: Table) -> dict[str, float]:
        """Per cell, the smallest margin over neighbouring pairs of sides."""
        margin, _ = RELATIONS[self.relation]
        out = {}
        for cell in self.cells or table:
            row = table[cell]
            values = [row[side] if isinstance(side, str) else side for side in self.sides]
            pairs = [margin(a, b, self.tolerance) for a, b in zip(values, values[1:])]
            out[cell] = min(pairs) if not any(map(math.isnan, pairs)) else math.nan
        return out

    def holds(self, margins: dict[str, float]) -> bool:
        """Whether every margin passes (NaN never does)."""
        _, closed = RELATIONS[self.relation]
        return bool(margins) and all(
            m >= 0 if closed else m > 0 for m in margins.values()
        )


def run_grid(grid: tuple[str, ...]) -> Any:
    """What a claim reads: a named function's result, or the files' points."""
    if grid[0] in GRIDS:
        return GRIDS[grid[0]]()
    from repro.runner import run_sweep
    from repro.scenarios import load_scenario

    specs = [s for name in grid for s in load_scenario(SCENARIOS / name).compile()]
    sweep = run_sweep(specs, cache=None)
    if sweep.failures:
        failure = sweep.failures[0]
        raise RuntimeError(f"{failure.spec.label()}: {failure.kind}: {failure.error}")
    return list(sweep)


# -- shared views -------------------------------------------------------------


def _axis(points, key: Callable) -> list:
    """The distinct values of ``key`` over ``points``, in grid order."""
    return list(dict.fromkeys(key(p) for p in points))


def _flip(table: dict) -> Table:
    """``{a: {b: v}}`` as ``{b: {a: v}}``."""
    out: Table = {}
    for a, row in table.items():
        for b, value in row.items():
            out.setdefault(b, {})[a] = value
    return out


def _by_load(points, value: Callable) -> Table:
    """``{"<workload> @<load>": {scheme: value(point)}}``."""
    table: Table = {}
    for p in points:
        table.setdefault(f"{p.workload} @{p.load:g}", {})[p.scheme] = value(p)
    return table


def _mean_fct(p) -> float:
    return p.summary.mean_normalized


def _vs_ecmp(field: str) -> Callable:
    """Each scheme's ``field`` FCT relative to ECMP's at the same point."""

    def extract(points) -> Table:
        ecmp = {p.load: getattr(p.summary, field) for p in points if p.scheme == "ecmp"}
        return _by_load(points, lambda p: relative_to(getattr(p.summary, field), ecmp[p.load]))

    return extract


def _fct_panels(points, figure: str, panels: str) -> None:
    """Fig. 9/10: one table per panel, loads down, schemes across."""
    schemes, loads = _axis(points, lambda p: p.scheme), _axis(points, lambda p: p.load)
    workload = points[0].workload
    tables = {
        "a": (f"{workload} overall avg FCT (normalized to optimal)", _mean_fct),
        "b": ("small flows (<100KB) avg FCT relative to ECMP", _vs_ecmp("mean_fct_small")),
        "c": ("large flows (>10MB) avg FCT relative to ECMP", _vs_ecmp("mean_fct_large")),
    }
    for panel in panels:
        title, view = tables[panel]
        table = _by_load(points, view) if panel == "a" else view(points)
        print_table(
            f"Figure {figure}({panel}): {title}",
            ["load"] + schemes,
            [[load] + [table[f"{workload} @{load:g}"][s] for s in schemes] for load in loads],
        )


def _large_flow_gain(points) -> Table:
    """Fig. 9c across loads: CONGA's mean large-flow FCT relative to ECMP."""
    ratios = [r for r in _flip(_vs_ecmp("mean_fct_large")(points))["conga"].values()
              if not math.isnan(r)]
    mean = sum(ratios) / len(ratios) if ratios else math.nan
    return {"across loads": {"loads sampled": len(ratios), "conga / ecmp": mean}}


def _unfinished(points) -> Table:
    return {f"{i}: {p.spec.label()}": {"unfinished": p.unfinished} for i, p in enumerate(points)}


# -- §3.6 / §7 ablation and §2.2 design space ---------------------------------

#: CongaParams fields that count something; the other integers are durations.
_COUNTS = ("quantization_bits", "flowlet_table_size")


def _variant(p) -> str:
    """A point's row label, read off its spec.

    ``hedera-10ms`` for ``hedera``; for ``conga``, the params fields set off
    §3.6's defaults (``flowlet_timeout=300us``), or ``conga`` if none; else
    the scheme.
    """
    config = p.spec.config
    if p.scheme == "hedera":
        return f"hedera-{to_milliseconds(config.controller_period):g}ms"
    if p.scheme != "conga":
        return p.scheme
    changed = []
    for f in fields(config.params):
        value = getattr(config.params, f.name)
        if value != f.default:
            if isinstance(value, int) and f.name not in _COUNTS:
                value = f"{to_microseconds(value):g}us"
            changed.append(f"{f.name}={value}")
    return ", ".join(changed) or "conga"


def _variant_fct(points) -> Table:
    """``{variant: {"fct": its FCT, <every variant>: that variant's FCT}}``."""
    fct = {_variant(p): _mean_fct(p) for p in points}
    return {name: {"fct": value, **fct} for name, value in fct.items()}


def _print_vs(points, title: str, header: list[str]) -> None:
    """One row per variant: its FCT, and that relative to default ``conga``."""
    fct = {_variant(p): _mean_fct(p) for p in points}
    print_table(title, header, [[k, v, v / fct["conga"]] for k, v in fct.items()])


# -- CAFT recovery matrix -----------------------------------------------------


def _recovery(points) -> dict[str, dict[str, dict[str, float]]]:
    """``{"<tier>-<kind>/x<density>": {scheme: {stat: mean over seeds}}}``."""
    out = {}
    for faults, schemes in recovery_matrix(points).items():
        tier, kind, density = fault_cell(faults)
        out[f"{tier}-{kind}/x{density}"] = {
            scheme: {stat: float(np.mean(values)) for stat, values in stats.items()}
            for scheme, stats in schemes.items()
        }
    return out


def _recovery_stat(stat: str) -> Callable:
    """One stat per cell and scheme, plus the best and worst of conga/ecmp."""

    def extract(points) -> Table:
        table: Table = {}
        for cell, schemes in _recovery(points).items():
            row = table[cell] = {scheme: stats[stat] for scheme, stats in schemes.items()}
            row["max(conga, ecmp)"] = max(row["conga"], row["ecmp"])
            row["min(conga, ecmp)"] = min(row["conga"], row["ecmp"])
        return table

    return extract


def _recovery_asym(points) -> Table:
    return {
        f"{cell} {scheme}": {"asym": stats["asym"]}
        for cell, schemes in _recovery(points).items()
        for scheme, stats in schemes.items()
    }


def _print_recovery(points) -> None:
    print_table(
        "CAFT recovery matrix: 2-pod Clos, enterprise @60%, faults @600us "
        "(goodput vs healthy baseline over the fault window)",
        ["cell", "scheme", "goodput retained", "mean FCT (norm)", "RTO timeouts",
         "peak tier asym"],
        [
            [cell, scheme, s["retained"], s["fct"], s["timeouts"], s["asym"]]
            for cell, schemes in _recovery(points).items()
            for scheme, s in schemes.items()
        ],
    )


# -- Figs. 11-16 and the multi-pod extension ----------------------------------


def _ecmp_gap(points) -> Table:
    """Fig. 11 per workload: ECMP/CONGA at 0.5 and 0.7, CONGA vs the best."""
    fct = {(p.workload, p.load, p.scheme): _mean_fct(p) for p in points}
    schemes = _axis(points, lambda p: p.scheme)
    table: Table = {}
    for workload in _axis(points, lambda p: p.workload):
        at = {(load, s): fct[(workload, load, s)] for load in (0.5, 0.7) for s in schemes}
        table[workload] = {
            "ecmp/conga @0.5": at[(0.5, "ecmp")] / at[(0.5, "conga")],
            "ecmp/conga @0.7": at[(0.7, "ecmp")] / at[(0.7, "conga")],
            "conga @0.7": at[(0.7, "conga")],
            "best @0.7": min(at[(0.7, s)] for s in schemes),
        }
    return table


def _print_fig11(points) -> None:
    for workload in _axis(points, lambda p: p.workload):
        mine = [p for p in points if p.workload == workload]
        schemes, loads = _axis(mine, lambda p: p.scheme), _axis(mine, lambda p: p.load)
        table = _by_load(mine, _mean_fct)
        print_table(
            f"Figure 11: {workload} avg FCT with link failure (norm. to optimal)",
            ["load"] + schemes,
            [[load] + [table[f"{workload} @{load:g}"][s] for s in schemes] for load in loads],
        )


def _hotspot(points) -> Table:
    """Fig. 11c: ``{scheme: {"mean", "p90"}}`` of the one monitored port."""
    out = {}
    for p in points:
        series = np.array(p.queue_series.series(p.queue_series.port_names[0]))
        out[p.scheme] = {"mean": float(series.mean()), "p90": float(np.percentile(series, 90))}
    return out


def _imbalance(points) -> Table:
    """Fig. 12: imbalance (%) of the loaded-phase windows, per scheme."""
    out = {}
    for p in points:
        last_arrival = max(r.start_time for r in p.records)
        samples = np.array(p.imbalance_series.samples_before(last_arrival)) * 100.0
        out[p.scheme] = {
            "mean": float(samples.mean()),
            "median": float(np.percentile(samples, 50)),
            "p90": float(np.percentile(samples, 90)),
            "windows": len(samples),
        }
    return out


def _incast(points) -> dict[tuple[int, int, str], list[float]]:
    """Fig. 13: ``{(MTU, minRTO ms, scheme): [throughput % by fan-in]}``."""
    table: dict[tuple[int, int, str], list[float]] = {}
    for p in points:
        tcp = p.spec.tcp_params
        key = (tcp.mss + 40, tcp.min_rto // milliseconds(1), p.scheme)
        table.setdefault(key, []).append(incast_throughput_percent(p))
    return table


def _incast_top(points) -> Table:
    """Per MTU: each transport and minRTO at the largest and two largest fan-ins."""
    table: Table = {}
    for (mtu, rto, scheme), series in _incast(points).items():
        row = table.setdefault(f"{mtu}B", {})
        row[f"{scheme} {rto}ms top fan-in"] = series[-1]
        row[f"{scheme} {rto}ms top-2 min"] = min(series[-2:])
        row[f"{scheme} {rto}ms top-2 max"] = max(series[-2:])
    return table


def _incast_lowest(points) -> Table:
    table: Table = {}
    for (mtu, rto, scheme), series in _incast(points).items():
        table.setdefault(f"{mtu}B {rto}ms", {})[scheme] = min(series)
    return table


def _print_fig13(points) -> None:
    table = _incast(points)
    fan_ins = _axis(points, lambda p: p.spec.traffic.fan_in)
    for mtu in (1500, 9000):
        print_table(
            f"Figure 13: Incast effective throughput %, MTU={mtu}",
            ["config"] + [f"N={n}" for n in fan_ins],
            [[f"CONGA+TCP ({rto}ms)"] + table[(mtu, rto, "conga")] for rto in (200, 1)]
            + [[f"MPTCP ({rto}ms)"] + table[(mtu, rto, "mptcp")] for rto in (200, 1)],
        )


def _hdfs(points) -> dict[tuple[str, bool], list[float]]:
    """Fig. 14: job completion times (ms) by (scheme, link failed)."""
    table: dict[tuple[str, bool], list[float]] = {}
    for p in points:
        # Every replica transfer starts at time 0: the job ends with the last.
        completion = max(r.start_time + r.fct for r in p.records)
        table.setdefault((p.scheme, bool(p.spec.failed_links)), []).append(
            to_milliseconds(completion)
        )
    return table


def _hdfs_job(points) -> Table:
    return {"mean job time": {
        f"{scheme} {'failure' if failed else 'baseline'}": np.mean(times)
        for (scheme, failed), times in _hdfs(points).items()
    }}


def _print_fig14(points) -> None:
    table, rows = _hdfs(points), []
    for fail in (False, True):
        for scheme in _axis(points, lambda p: p.scheme):
            values = np.array(table[(scheme, fail)])
            rows.append(["failure" if fail else "baseline", scheme,
                         float(values.mean()), float(values.min()), float(values.max())])
    print_table(
        "Figure 14: HDFS write job completion time (ms), 3 trials",
        ["topology", "scheme", "mean", "min", "max"], rows,
    )


def _access(p) -> float:
    return p.spec.config.host_rate_bps / 1e9


def _access_fct(points) -> Table:
    table: Table = {}
    for p in points:
        table.setdefault(f"{_access(p):g}G access @{p.load:g}", {})[p.scheme] = _mean_fct(p)
    return table


def _access_gain(points) -> Table:
    """Fig. 15: CONGA's FCT gain over ECMP summed across loads, per access rate."""
    gains = {}
    for access in _axis(points, _access):
        total = {s: sum(_mean_fct(p) for p in points if _access(p) == access and p.scheme == s)
                 for s in ("conga", "ecmp")}
        gains[f"{access:g}G"] = 1 - total["conga"] / total["ecmp"]
    return {"gain over loads": gains}


def _print_fig15(points) -> None:
    table, rows = _access_fct(points), []
    for access in _axis(points, _access):
        for load in _axis(points, lambda p: p.load):
            row = table[f"{access:g}G access @{load:g}"]
            rows.append([f"{access:g}G access / 10G fabric", load, row["ecmp"], row["conga"],
                         row["conga"] / row["ecmp"]])
    print_table(
        "Figure 15: web-search FCT, CONGA relative to ECMP",
        ["topology", "load", "ecmp (norm)", "conga (norm)", "conga/ecmp"], rows,
    )


def _fig16_queues(p) -> tuple[list[float], list[float]]:
    """Time-averaged queues of the surviving leaf uplinks and spine downlinks."""
    names = p.queue_series.port_names
    leaf_up = [p.queue_series.mean(n) for n in names if ".up" in n]
    spine_down = [p.queue_series.mean(n) for n in names if n.startswith("spine")]
    return leaf_up, spine_down


def _fig16(points) -> Table:
    table: Table = {"mean FCT": {}, "fabric queue": {}, "leaf-uplink queue": {}}
    for p in points:
        leaf_up, spine_down = _fig16_queues(p)
        table["mean FCT"][p.scheme] = _mean_fct(p)
        table["fabric queue"][p.scheme] = np.mean(leaf_up + spine_down)
        table["leaf-uplink queue"][p.scheme] = np.mean(leaf_up)
    return table


def _print_fig16(points) -> None:
    rows = []
    for p in points:
        leaf_up, spine_down = _fig16_queues(p)
        rows.append([p.scheme, _mean_fct(p), float(np.mean(leaf_up)) / 1e3,
                     float(np.mean(spine_down)) / 1e3, float(np.max(spine_down)) / 1e3])
    print_table(
        "Figure 16: 6x4 fabric, 9 failed links, web-search @60% (time-averaged queues)",
        ["scheme", "avg FCT (norm)", "avg leaf-up queue (KB)", "avg spine-down queue (KB)",
         "worst spine-down queue (KB)"],
        rows,
    )


def _pods(p) -> dict[str, Any]:
    """Multi-pod: FCT overall, within a pod and across pods; inter-pod bytes."""
    hosts_per_pod = p.spec.config.hosts_per_leaf * p.spec.config.leaves_per_pod
    intra = [r for r in p.records if r.src // hosts_per_pod == r.dst // hosts_per_pod]
    inter = [r for r in p.records if r.src // hosts_per_pod != r.dst // hosts_per_pod]

    def mean(records) -> float:
        return float(np.mean([r.normalized_fct for r in records])) if records else math.nan

    return {
        "overall": mean(p.records), "intra-pod": mean(intra), "inter-pod": mean(inter),
        # A completed inter-pod flow crossed the core tier.
        "inter-pod bytes": sum(r.size for r in inter),
    }


# -- the no-packet checks: fluid model, traces, theory ------------------------


def fig2() -> Table:
    """Fig. 2's asymmetric split under each allocator (Gbps)."""
    from repro.fluid import (
        conga_split, ecmp_split, figure2_demand, figure2_network, local_aware_split,
    )

    network, demand, table = figure2_network(), figure2_demand(), {}
    for name, allocator, paper in (
        ("ecmp", ecmp_split, 90.0),
        ("local", local_aware_split, 80.0),
        ("conga", conga_split, 100.0),
    ):
        allocation = allocator(network, demand)
        split = allocation.splits[0]
        table[name] = {
            "paper": paper, "measured": allocation.total_throughput(),
            "via S0": split[("L0", "S0", "L1")], "via S1": split[("L0", "S1", "L1")],
        }
    return table


def fig3() -> Table:
    """Fig. 3: CONGA's L1->L2 split with and without L0->L2, vs static weights."""
    from repro.fluid import FluidAllocation, FluidDemand, conga_split, figure3_network

    network, table = figure3_network(), {}
    for l0_rate in (0.0, 40.0):
        demands = [FluidDemand("L1", "L2", 40.0)]
        if l0_rate:
            demands.append(FluidDemand("L0", "L2", l0_rate))
        allocation = conga_split(network, demands)
        split = allocation.splits[0]
        table[f"{l0_rate:g}"] = {
            "via S0": split[("L1", "S0", "L2")], "via S1": split[("L1", "S1", "L2")],
            "bottleneck util": allocation.max_utilization(),
            "delivered": allocation.total_throughput(),
        }
    # The static weights that were right for (a), applied to matrix (b).
    static = FluidAllocation(
        network, [FluidDemand("L1", "L2", 40.0), FluidDemand("L0", "L2", 40.0)]
    )
    static.splits = [
        {("L1", "S0", "L2"): 20.0, ("L1", "S1", "L2"): 20.0},
        {("L0", "S0", "L2"): 40.0},
    ]
    table["static-weights-case-b"] = {
        "via S0": 20.0, "via S1": 20.0,
        "bottleneck util": static.max_utilization(), "delivered": static.total_throughput(),
    }
    return table


def fig5() -> dict[str, Any]:
    """Fig. 5 / §2.6.1 on synthetic traces: byte CDFs, medians, concurrency."""
    from repro.traces import (
        FIGURE5_GAPS, SyntheticTraceGenerator, byte_median_size, byte_weighted_cdf,
        concurrency_per_window, flowlet_sizes,
    )

    trace = SyntheticTraceGenerator(seed=42).generate(300)
    probes = np.logspace(1, 9, 17)
    curves, medians = {}, {}
    for name, gap in FIGURE5_GAPS.items():
        sizes = flowlet_sizes(trace, gap)
        curves[name] = byte_weighted_cdf(sizes, probes)
        medians[name] = byte_median_size(sizes)
    busy = SyntheticTraceGenerator(seed=43).generate(500, arrival_rate_per_s=50_000.0)
    return {"probes": probes, "curves": curves, "medians": medians,
            "concurrency": concurrency_per_window(busy)}


def _print_fig5(result) -> None:
    probes, curves, medians = result["probes"], result["curves"], result["medians"]
    print_table(
        "Figure 5: fraction of bytes in transfers <= size",
        ["size (B)"] + list(curves),
        [[f"{p:.0f}"] + [f"{curves[name][i]:.2f}" for name in curves]
         for i, p in enumerate(probes)],
    )
    print_table(
        "Figure 5: byte-median transfer size",
        ["granularity", "paper", "measured (B)"],
        [
            ["flow-250ms", "~30 MB", f"{medians['flow-250ms']:.3g}"],
            ["flowlet-500us", "~500 KB", f"{medians['flowlet-500us']:.3g}"],
            ["flowlet-100us", "< 500 KB", f"{medians['flowlet-100us']:.3g}"],
        ],
    )
    concurrency = result["concurrency"]
    print_table(
        "2.6.1: concurrent distinct flows per 1 ms window",
        ["metric", "paper", "measured"],
        [["median", "~130", int(np.median(concurrency))],
         ["max", "< 300", int(concurrency.max())]],
    )


#: §5.2.1's pivot: the byte share of flows below it tells the workloads apart.
FIG8_PIVOT_BYTES = 35_000_000


def fig8() -> dict[str, Any]:
    """Fig. 8: flow-size and byte CDFs of the scenario file's workloads."""
    from repro.apps import get_workload
    from repro.scenarios import load_scenario

    probes = np.logspace(2, 9, 15)
    workloads = load_scenario(SCENARIOS / "fig8_workloads.yaml").workloads or ()
    cdfs = {}
    for dist in map(get_workload, workloads):
        sizes = [p[0] for p in dist.points]
        flow_cdf = [
            dist.points[min(np.searchsorted(sizes, probe), len(sizes) - 1)][1]
            if probe >= sizes[0] else 0.0
            for probe in probes
        ]
        cdfs[dist.name] = (dist, flow_cdf, [dist.byte_fraction_below(p) for p in probes])
    return {"probes": probes, "cdfs": cdfs}


def _fig8(result) -> Table:
    dists = {name: dist for name, (dist, _, _) in result["cdfs"].items()}
    return {
        "bytes below 35 MB": {n: d.byte_fraction_below(FIG8_PIVOT_BYTES) for n, d in dists.items()},
        "CoV": {n: d.coefficient_of_variation() for n, d in dists.items()},
    }


def _print_fig8(result) -> None:
    for name, (_, flow_cdf, byte_cdf) in result["cdfs"].items():
        print_table(
            f"Figure 8: {name} workload CDFs",
            ["size (B)", "flows <= size", "bytes <= size"],
            [[f"{p:.0f}", f"{f:.2f}", f"{b:.2f}"]
             for p, f, b in zip(result["probes"], flow_cdf, byte_cdf)],
        )
    below = _fig8(result)["bytes below 35 MB"]
    print_table(
        "5.2.1: byte share of flows below 35 MB",
        ["workload", "paper", "measured"],
        [["enterprise", "~50%", f"{below['enterprise']:.0%}"],
         ["data-mining", "~5%", f"{below['data-mining']:.0%}"]],
    )


def fullscale() -> Table:
    """The 64-host testbed with unscaled data-mining flows, flow-level model."""
    from repro.fluid import run_flow_level
    from repro.topology import TESTBED
    from repro.workloads import DATA_MINING

    def mean_norm(**kwargs) -> float:
        done = run_flow_level(TESTBED, DATA_MINING, num_flows=1200, seed=3, **kwargs)
        return float(np.mean([c.normalized_fct for c in done]))

    table: Table = {}
    for load in (0.5, 0.6, 0.7):
        for scheme in ("ecmp", "conga"):
            table.setdefault(f"baseline @{load:g}", {})[scheme] = mean_norm(
                load=load, scheme=scheme
            )
            table.setdefault(f"failure @{load:g}", {})[scheme] = mean_norm(
                load=load, scheme=scheme, failed_links=[(1, 1, 0)], clients=list(range(32, 64)),
            )
    return table


def _print_fullscale(table) -> None:
    rows = []
    for topo in ("baseline", "failure"):
        for load in (0.5, 0.6, 0.7):
            row = table[f"{topo} @{load:g}"]
            rows.append([topo, load, row["ecmp"], row["conga"], row["ecmp"] / row["conga"]])
    print_table(
        "Full-scale check (64 hosts, unscaled data-mining, flow-level)",
        ["topology", "load", "ecmp", "conga", "ecmp/conga"], rows,
    )


def thm1() -> dict[str, Any]:
    """Thm. 1: the Fig. 17 gadget, and random instances from adversarial starts."""
    from repro.theory import BottleneckGame, GameUser, figure17_gadget

    game, nash = figure17_gadget()
    gadget = {
        "nash_bottleneck": game.network_bottleneck(nash),
        "optimal_bottleneck": game.optimal_bottleneck(),
        "poa": game.price_of_anarchy(nash),
        "is_nash": game.is_nash(nash),
        "natural_dynamics_bottleneck": game.network_bottleneck(game.best_response_dynamics()),
    }
    rng = np.random.default_rng(123)
    poas = []
    for _ in range(20):
        leaves, spines = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        up = rng.uniform(0.5, 2.0, size=(leaves, spines))
        down = rng.uniform(0.5, 2.0, size=(spines, leaves))
        users = []
        for _ in range(int(rng.integers(1, 5))):
            src, dst = rng.choice(leaves, size=2, replace=False)
            users.append(GameUser(int(src), int(dst), float(rng.uniform(0.2, 2.0))))
        random_game = BottleneckGame(up, down, users)
        start = np.zeros((len(users), spines))
        for index, user in enumerate(users):
            weights = rng.uniform(0.05, 1.0, size=spines)
            start[index] = user.demand * weights / weights.sum()
        poas.append(random_game.price_of_anarchy(random_game.best_response_dynamics(start=start)))
    return {"gadget": gadget, "random_poas": np.array(poas)}


def _print_thm1(result) -> None:
    gadget, poas = result["gadget"], result["random_poas"]
    print_table(
        "Theorem 1 / Figure 17: Price of Anarchy",
        ["quantity", "paper", "measured"],
        [
            ["worst-case gadget B(Nash)", "1", gadget["nash_bottleneck"]],
            ["worst-case gadget B(opt)", "1/2", gadget["optimal_bottleneck"]],
            ["worst-case gadget PoA", "2", gadget["poa"]],
            ["gadget flow is Nash", "yes", gadget["is_nash"]],
            ["dynamics from even split", "near-optimal", gadget["natural_dynamics_bottleneck"]],
            ["random instances: max PoA", "<= 2", float(poas.max())],
            ["random instances: mean PoA", "close to 1", float(poas.mean())],
        ],
    )


def thm2() -> dict[str, list]:
    """Thm. 2 by Monte-Carlo: decay in t, the CoV ordering, flowlet splitting."""
    from repro.theory import (
        flowlet_split_sampler, sampler_from_distribution, simulate_imbalance,
    )
    from repro.workloads import DATA_MINING, ENTERPRISE, WEB_SEARCH

    def chi(dist, t, sampler=None, rate=400.0, trials=120, seed=22):
        return simulate_imbalance(
            arrival_rate=rate, num_links=4, mean_size=dist.mean(),
            cov=dist.coefficient_of_variation(), t=t,
            sampler=sampler or sampler_from_distribution(dist), trials=trials, seed=seed,
        )

    decay = []
    for t in (5.0, 20.0, 80.0):
        estimate = chi(WEB_SEARCH, t, seed=21)
        decay.append([t, estimate.mean_imbalance, estimate.bound])
    workloads = [
        [dist.name, dist.coefficient_of_variation(), chi(dist, 30.0).mean_imbalance]
        for dist in (WEB_SEARCH, ENTERPRISE, DATA_MINING)
    ]
    base = sampler_from_distribution(DATA_MINING)
    flowlets = [
        [label, chi(DATA_MINING, 30.0, sampler, rate=200.0, trials=80, seed=23).mean_imbalance]
        for label, sampler in (
            ("per-flow", base),
            ("flowlet 500KB", flowlet_split_sampler(base, 500_000.0)),
            ("flowlet 50KB", flowlet_split_sampler(base, 50_000.0)),
        )
    ]
    return {"decay": decay, "workloads": workloads, "flowlets": flowlets}


def _print_thm2(result) -> None:
    print_table(
        "Theorem 2: E[chi(t)] vs the 1/sqrt(lambda_e t) bound (web-search)",
        ["t", "measured E[chi]", "bound"], result["decay"],
    )
    print_table(
        "Theorem 2: workload heaviness (CoV) drives imbalance @ t=30",
        ["workload", "CoV", "E[chi]"], result["workloads"],
    )
    print_table(
        "Theorem 2: flowlet splitting improves balance (data-mining)",
        ["granularity", "E[chi]"], result["flowlets"],
    )


#: The named grid functions a claim's ``grid`` may name.
GRIDS: dict[str, Callable[[], Any]] = {
    "fig2": fig2,
    "fig3": fig3,
    "fig5": fig5,
    "fig8": fig8,
    "fullscale": fullscale,
    "thm1": thm1,
    "thm2": thm2,
}

#: Named extractors: a grid's result -> ``{cell: {side: value}}``.
EXTRACTORS: dict[str, Callable[[Any], Table]] = {
    "mean_fct": lambda points: _by_load(points, _mean_fct),
    "small_fct_vs_ecmp": _vs_ecmp("mean_fct_small"),
    "large_fct_gain": _large_flow_gain,
    "unfinished": _unfinished,
    "fabric": lambda points: _flip({p.scheme: {
        "mean FCT": _mean_fct(p), "max fabric queue": p.fabric_max_queue_bytes,
    } for p in points}),
    "incast_percent": lambda points: {"throughput %": {
        p.scheme: incast_throughput_percent(p) for p in points
    }},
    "variant_fct": _variant_fct,
    "recovery_fct": _recovery_stat("fct"),
    "recovery_retained": _recovery_stat("retained"),
    "recovery_timeouts": _recovery_stat("timeouts"),
    "recovery_asym": _recovery_asym,
    "ecmp_gap": _ecmp_gap,
    "hotspot_queue": lambda points: _flip(_hotspot(points)),
    "imbalance": lambda points: _flip(_imbalance(points)),
    "incast_top": _incast_top,
    "incast_lowest": _incast_lowest,
    "hdfs_job": _hdfs_job,
    "access_fct": _access_fct,
    "access_gain": _access_gain,
    "fig16": _fig16,
    "pods": lambda points: _flip({p.scheme: _pods(p) for p in points}),
    "pod_bytes": lambda points: {
        p.spec.label(): {"inter-pod bytes": _pods(p)["inter-pod bytes"]} for p in points
    },
    "table": lambda table: table,
    "throughput": lambda table: {"measured": _flip(table)["measured"]},
    "fig5": lambda r: {"byte-median": r["medians"],
                       "concurrency": {"max": r["concurrency"].max()}},
    "fig8": _fig8,
    "fullscale_gap": lambda table: {"failure ecmp/conga": {
        cell.split("@")[1]: row["ecmp"] / row["conga"]
        for cell, row in table.items() if cell.startswith("failure")
    }},
    "thm1": lambda r: {
        "gadget": {"is Nash": float(r["gadget"]["is_nash"]), "PoA": r["gadget"]["poa"]},
        "random instances": {"max PoA": r["random_poas"].max(),
                             "mean PoA": r["random_poas"].mean()},
    },
    "thm2_bound": lambda r: {f"t={t:g}": {"measured": m, "bound": b} for t, m, b in r["decay"]},
    "thm2": lambda r: {
        "decay": {f"t={t:g}": m for t, m, _ in r["decay"]},
        "CoV": {name: chi for name, _, chi in r["workloads"]},
        "flowlets": dict(r["flowlets"]),
    },
}


def _print_dctcp_fct(points) -> None:
    print_table(
        "Ablation: CONGA + DCTCP, enterprise @60%",
        ["transport", "avg FCT (norm)", "max fabric queue (KB)"],
        [[p.scheme, _mean_fct(p), p.fabric_max_queue_bytes / 1e3] for p in points],
    )


def _print_dctcp_incast(points) -> None:
    labels = {"conga": "tcp (1MB buffer)", "conga-dctcp": "dctcp (1MB buffer, K=100KB)"}
    print_table(
        "Ablation: Incast (fan-in 31, shallow 1MB edge buffer)",
        ["transport", "effective throughput %"],
        [[labels[p.scheme], incast_throughput_percent(p)] for p in points],
    )


def _print_pods(points) -> None:
    print_table(
        "7 extension: 2-pod fabric, intra-pod failure, web-search @60%",
        ["scheme", "overall FCT", "intra-pod FCT", "inter-pod FCT"],
        [[p.scheme, *(_pods(p)[k] for k in ("overall", "intra-pod", "inter-pod"))]
         for p in points],
    )


def _print_hotspot(points) -> None:
    print_table(
        "Figure 11(c): hotspot [Spine1->Leaf1] queue occupancy, data-mining @60%",
        ["scheme", "mean (KB)", "p90 (KB)"],
        [[s, q["mean"] / 1e3, q["p90"] / 1e3] for s, q in _hotspot(points).items()],
    )


def _rows_of(title: str, header: list[str], view: Callable = lambda r: r) -> Callable:
    """A printer of ``view(result)``: one row per key, the key then its values."""
    return lambda result: print_table(
        title, header, [[key, *row.values()] for key, row in view(result).items()]
    )


#: Each grid's figure tables, printed the first time the grid runs.
FIGURES: dict[tuple[str, ...], Callable[[Any], None]] = {
    ("ablation_dctcp_fct.yaml",): _print_dctcp_fct,
    ("ablation_dctcp_incast.yaml",): _print_dctcp_incast,
    ("ablation_parameters.yaml", "design_space.yaml"): lambda points: _print_vs(
        points, "Ablation (3.6/7): CONGA variants, data-mining @60%, failed link",
        ["variant", "avg FCT (norm)", "vs default"],
    ),
    ("caft_recovery.yaml",): _print_recovery,
    ("design_space.yaml", "design_hedera.yaml"): lambda points: _print_vs(
        points, "Design space (2.2): data-mining @60%, failed link — avg FCT (norm)",
        ["scheme", "avg FCT", "vs conga"],
    ),
    ("fig10_datamining.yaml",): lambda points: _fct_panels(points, "10", "ab"),
    ("fig11_enterprise.yaml", "fig11_datamining.yaml"): _print_fig11,
    ("fig11_hotspot.yaml",): _print_hotspot,
    ("fig12_imbalance.yaml",): _rows_of(
        "Figure 12: enterprise uplink throughput imbalance @ high load (%)",
        ["scheme", "mean", "median", "p90", "windows"], _imbalance,
    ),
    ("fig13_incast.yaml",): _print_fig13,
    ("fig14_hdfs.yaml",): _print_fig14,
    ("fig15_access_2g5.yaml", "fig15_access_10g.yaml"): _print_fig15,
    ("fig16_multi_failure.yaml",): _print_fig16,
    ("fig2",): _rows_of(
        "Figure 2: asymmetric scenario throughput (Gbps)",
        ["scheme", "paper", "measured", "via S0", "via S1"],
    ),
    ("fig3",): _rows_of(
        "Figure 3: L1->L2 split through S0 vs traffic matrix (Gbps)",
        ["L0->L2 traffic", "via S0", "via S1", "bottleneck util", "delivered"],
    ),
    ("fig5",): _print_fig5,
    ("fig8",): _print_fig8,
    ("fig9_enterprise.yaml",): lambda points: _fct_panels(points, "9", "abc"),
    ("fullscale",): _print_fullscale,
    ("multipod_extension.yaml",): _print_pods,
    ("thm1",): _print_thm1,
    ("thm2",): _print_thm2,
}


def _figure(anchor: str, *grid: str) -> Callable[..., Claim]:
    return partial(Claim, anchor=anchor, grid=grid)


_on_dctcp = _figure("§5 + DCTCP [4]: fabric queue and FCT", "ablation_dctcp_fct.yaml")
_on_dctcp_incast = _figure("§5 + DCTCP [4]: incast at a 1 MB buffer", "ablation_dctcp_incast.yaml")
_on_ablation = _figure(
    "§3.6 parameter robustness, §7 path metric", "ablation_parameters.yaml", "design_space.yaml"
)
_on_caft = _figure("CAFT (PAPERS.md) on the 3-tier Clos", "caft_recovery.yaml")
_on_design = _figure("§2.2 Fig. 1 design space", "design_space.yaml", "design_hedera.yaml")
_on_fig10 = _figure("§5.2 Fig. 10a", "fig10_datamining.yaml")
_on_fig11 = _figure("§5.3 Fig. 11a/b", "fig11_enterprise.yaml", "fig11_datamining.yaml")
_on_fig11c = _figure("§5.3 Fig. 11c", "fig11_hotspot.yaml")
_on_fig12 = _figure("§5.3 Fig. 12", "fig12_imbalance.yaml")
_on_fig13 = _figure("§5.4 Fig. 13", "fig13_incast.yaml")
_on_fig14 = _figure("§5.4 Fig. 14", "fig14_hdfs.yaml")
_on_fig15 = _figure("§5.5 Fig. 15", "fig15_access_2g5.yaml", "fig15_access_10g.yaml")
_on_fig16 = _figure("§5.5 Fig. 16", "fig16_multi_failure.yaml")
_on_fig2 = _figure("§2.4 Fig. 2", "fig2")
_on_fig3 = _figure("§2.4 Fig. 3", "fig3")
_on_fig5 = _figure("§2.6.1 Fig. 5", "fig5")
_on_fig8 = _figure("§5.2.1 Fig. 8", "fig8")
_on_fig9 = _figure("§5.2 Fig. 9", "fig9_enterprise.yaml")
_on_full = _figure("§5 at testbed scale (flow-level model)", "fullscale")
_on_pods = _figure("§7 multi-pod extension", "multipod_extension.yaml")
_on_thm1 = _figure("§6.1 Thm. 1, Fig. 17", "thm1")
_on_thm2 = _figure("§6.2 Thm. 2", "thm2")

_BROWNOUTS = ("leaf-brownout/x1", "leaf-brownout/x2", "core-brownout/x1", "core-brownout/x2")
_HOLES = ("core-blackhole/x1", "core-blackhole/x2")
_RECOMMENDED = (
    "quantization_bits=6", "dre_time_constant=100us", "dre_time_constant=500us",
    "flowlet_timeout=300us", "flowlet_timeout=1000us",
)
_HEDERA = ("hedera-1ms", "hedera-10ms", "hedera-100ms")

#: Every claim, grouped by grid in a fixed order (module doc).
CLAIMS: tuple[Claim, ...] = (
    # DCTCP at the hosts: queues collapse toward K at equal FCT, and the
    # shallow-buffer incast that times plain TCP out stops timing out.
    _on_dctcp("dctcp.queue-halved", "fabric", ("conga-dctcp", "conga"), "<", 0.5,
           cells=("max fabric queue",)),
    _on_dctcp("dctcp.fct-kept", "fabric", ("conga-dctcp", "conga"), "<", 1.2, cells=("mean FCT",)),
    _on_dctcp_incast("dctcp.incast-beats-tcp", "incast_percent", ("conga-dctcp", "conga"), ">"),
    _on_dctcp_incast("dctcp.incast-above-80", "incast_percent", ("conga-dctcp", 80.0), ">"),
    # §3.6: "fairly robust" over Q = 3-6, tau = 100-500 us, T_fl = 300 us-1 ms.
    _on_ablation("ablation.recommended-within-1.3x", "variant_fct", ("fct", "conga"), "<", 1.3,
              cells=_RECOMMENDED),
    _on_ablation("ablation.recommended-beat-ecmp", "variant_fct", ("fct", "ecmp"),
              cells=_RECOMMENDED),
    _on_ablation("ablation.sum-metric-beats-ecmp", "variant_fct", ("fct", "ecmp"),
              cells=("path_metric=sum",)),
    _on_ablation("ablation.per-packet-beats-ecmp", "variant_fct", ("fct", "ecmp"),
              cells=("flowlet_timeout=1us",)),
    # CAFT: a brownout is asymmetry feedback can see (caft >= conga >= ecmp);
    # a black hole drains its own congestion signal (caft > ecmp > conga).
    _on_caft("caft.brownout-fct-order", "recovery_fct", ("caft", "conga", "ecmp"),
             cells=_BROWNOUTS),
    # The single-core-link brownout leaves 3 of 4 core links clean: noise.
    _on_caft("caft.brownout-goodput-order", "recovery_retained", ("caft", "conga", "ecmp"), ">",
          cells=("leaf-brownout/x1", "leaf-brownout/x2", "core-brownout/x2")),
    _on_caft("caft.blackhole-best-goodput", "recovery_retained", ("caft", "max(conga, ecmp)"), ">",
          cells=_HOLES),
    _on_caft("caft.blackhole-fewer-rtos", "recovery_timeouts", ("caft", "min(conga, ecmp)"), "<",
          0.75, cells=_HOLES),
    _on_caft("caft.blackhole-conga-below-ecmp", "recovery_retained", ("ecmp", "conga"), ">",
          cells=_HOLES),
    _on_caft("caft.faults-localized-to-tier", "recovery_asym", ("asym", 0.0), ">"),
    # §2.2: a centralized scheduler's pins arrive late at any period.
    _on_design("design.conga-ahead", "variant_fct", ("fct", "conga"), ">", 1.1,
            cells=("ecmp", "local", *_HEDERA)),
    _on_design("design.hedera-no-better-than-ecmp", "variant_fct", ("fct", "ecmp"), "<=", 1.1,
            cells=_HEDERA),
    _on_design("design.hedera-behind-conga", "variant_fct", ("fct", "conga"), ">=", cells=_HEDERA),
    _on_fig10("fig10.conga-beats-ecmp-high-load", "mean_fct", ("conga", "ecmp"),
           cells=("data-mining @0.7", "data-mining @0.9")),
    _on_fig10("fig10.conga-15pct-better-at-90", "mean_fct", ("conga", "ecmp"), "<", 0.85,
           cells=("data-mining @0.9",)),
    _on_fig10("fig10.conga-flow-beats-ecmp-at-90", "mean_fct", ("conga-flow", "ecmp"),
           cells=("data-mining @0.9",)),
    _on_fig11("fig11.ecmp-gap-at-70", "ecmp_gap", ("ecmp/conga @0.7", 1.1), ">"),
    _on_fig11("fig11.ecmp-gap-widens", "ecmp_gap", ("ecmp/conga @0.7", "ecmp/conga @0.5"), ">",
              0.9),
    _on_fig11("fig11.conga-best-at-70", "ecmp_gap", ("conga @0.7", "best @0.7"), "<=", 1.1),
    _on_fig11c("fig11c.conga-halves-ecmp-queue", "hotspot_queue", ("conga", "ecmp"), "<", 0.5,
            cells=("mean",)),
    _on_fig11c("fig11c.conga-p90-below-mptcp", "hotspot_queue", ("conga", "mptcp"), "<=",
            cells=("p90",)),
    _on_fig12("fig12.conga-beats-ecmp", "imbalance", ("conga", "ecmp"), cells=("mean",)),
    _on_fig12("fig12.conga-flow-beats-ecmp", "imbalance", ("conga-flow", "ecmp"), cells=("mean",)),
    _on_fig12("fig12.mptcp-beats-ecmp", "imbalance", ("mptcp", "ecmp"), cells=("mean",)),
    _on_fig12("fig12.paper-absolute-imbalance", "imbalance", ("conga", 50.0), cells=("mean",),
           deviation="known deviation 3: a scaled fabric has ~10x fewer flows per 1 ms "
           "window, so (MAX-MIN)/AVG reads far above the paper's"),
    _on_fig13("fig13.conga-tcp-holds-jumbo", "incast_top", ("conga 200ms top-2 min", 80.0), ">",
           cells=("9000B",)),
    _on_fig13("fig13.mptcp-collapses-jumbo", "incast_top", ("mptcp 200ms top-2 max", 30.0),
           cells=("9000B",)),
    _on_fig13("fig13.conga-tcp-2x-mptcp", "incast_top",
           ("conga 200ms top-2 min", "mptcp 200ms top-2 max"), ">", 2.0, cells=("9000B",)),
    _on_fig13("fig13.fast-rto-helps-mptcp", "incast_top",
           ("mptcp 1ms top fan-in", "mptcp 200ms top fan-in"), ">", cells=("9000B",)),
    _on_fig13("fig13.conga-tcp-ahead-at-fast-rto", "incast_top",
           ("conga 1ms top fan-in", "mptcp 1ms top fan-in"), ">", cells=("9000B",)),
    _on_fig13("fig13.conga-tcp-never-collapses", "incast_lowest", ("conga", 50.0), ">"),
    _on_fig13("fig13.paper-mptcp-collapses-1500", "incast_top", ("mptcp 200ms top-2 max", 30.0),
           cells=("1500B",),
           deviation="known deviation 4: at this buffer depth MTU 1500 / 200 ms "
           "collapses for neither transport"),
    _on_fig14("fig14.every-job-finishes", "unfinished", ("unfinished", 0.0), "~", 0.0),
    _on_fig14("fig14.baseline-comparable", "hdfs_job", ("ecmp baseline", "conga baseline"), "~rel",
           0.25),
    _on_fig14("fig14.failure-slows-ecmp", "hdfs_job", ("ecmp failure", "ecmp baseline"), ">", 1.1),
    _on_fig14("fig14.conga-unaffected", "hdfs_job", ("conga failure", "conga baseline"), "<", 1.1),
    _on_fig14("fig14.conga-beats-ecmp-under-failure", "hdfs_job", ("conga failure", "ecmp failure"),
           "<", 0.92),
    _on_fig15("fig15.conga-comparable-everywhere", "access_fct", ("conga", "ecmp"), "<=", 1.15),
    _on_fig15("fig15.conga-better-equal-speed-high-load", "access_fct", ("conga", "ecmp"),
           cells=("10G access @0.6",)),
    _on_fig15("fig15.gain-grows-with-access-speed", "access_gain", ("10G", "2.5G"), ">"),
    _on_fig16("fig16.every-flow-finishes", "unfinished", ("unfinished", 0.0), "~", 0.0),
    _on_fig16("fig16.conga-fct-far-better", "fig16", ("conga", "ecmp"), "<", 0.75,
           cells=("mean FCT",)),
    _on_fig16("fig16.fabric-queueing-drops", "fig16", ("conga", "ecmp"), "<", 0.85,
           cells=("fabric queue",)),
    _on_fig16("fig16.leaf-uplink-queues-drop", "fig16", ("conga", "ecmp"), "<", 0.75,
           cells=("leaf-uplink queue",)),
    _on_fig2("fig2.throughput-matches-paper", "table", ("measured", "paper"), "~", 1.0),
    _on_fig2("fig2.conga-splits-66-33", "table", ("via S0", 66.7), "~", 1.5, cells=("conga",)),
    _on_fig2("fig2.local-below-ecmp-below-conga", "throughput", ("local", "ecmp", "conga")),
    _on_fig3("fig3.even-split-without-l0", "table", ("via S0", 20.0), "~", 2.0, cells=("0",)),
    _on_fig3("fig3.moves-to-s1-with-l0", "table", ("via S0", 5.0), cells=("40",)),
    _on_fig3("fig3.no-link-overloaded", "table", ("bottleneck util", 1.01), "<=", cells=("40",)),
    _on_fig3("fig3.static-weights-congest", "table", ("bottleneck util", 1.2), ">",
          cells=("static-weights-case-b",)),
    _on_fig5("fig5.flows-tens-of-mb", "fig5", ("flow-250ms", 10e6), ">", cells=("byte-median",)),
    _on_fig5("fig5.flowlets-30x-finer", "fig5", ("flowlet-500us", "flow-250ms"), "<", 1 / 30,
          cells=("byte-median",)),
    _on_fig5("fig5.100us-no-coarser", "fig5", ("flowlet-100us", "flowlet-500us"), "<=",
          cells=("byte-median",)),
    _on_fig5("fig5.concurrency-fits-table", "fig5", ("max", 65_536 / 8), cells=("concurrency",)),
    _on_fig8("fig8.enterprise-half-bytes-small", "fig8", ("enterprise", 0.5), "~", 0.15,
          cells=("bytes below 35 MB",)),
    _on_fig8("fig8.data-mining-few-bytes-small", "fig8", ("data-mining", 0.15),
          cells=("bytes below 35 MB",)),
    _on_fig8("fig8.data-mining-heavier-tail", "fig8", ("data-mining", "enterprise"), ">", 0.9,
          cells=("CoV",)),
    _on_fig9("fig9.conga-never-worse-than-ecmp", "mean_fct", ("conga", "ecmp"), "<=", 1.05),
    _on_fig9("fig9.mptcp-trails-conga", "mean_fct", ("conga", "mptcp"), "<=", 1.05),
    _on_fig9("fig9.large-flows-sampled", "large_fct_gain", ("loads sampled", 0.0), ">"),
    _on_fig9("fig9.conga-improves-large-flows", "large_fct_gain", ("conga / ecmp", 0.95)),
    _on_fig9("fig9.paper-normalized-fct-scale", "mean_fct", ("conga", 10.0),
          deviation="known deviation 1: a scaled fabric and deep drop-tail buffers inflate "
          "every scheme's normalized FCT far above the paper's single digits"),
    _on_fig9("fig9.paper-mptcp-small-flow-penalty", "small_fct_vs_ecmp", ("mptcp", "ecmp"), ">",
          deviation="known deviation 2: the penalty needs losses; at these buffer depths "
          "MPTCP's parallel slow-starts make small flows faster"),
    _on_full("fullscale.symmetric-comparable", "table", ("ecmp", "conga"), "~rel", 0.1,
          cells=("baseline @0.5", "baseline @0.6", "baseline @0.7")),
    _on_full("fullscale.conga-ahead-under-failure", "table", ("conga", "ecmp"),
          cells=("failure @0.5", "failure @0.6", "failure @0.7")),
    _on_full("fullscale.gap-grows-with-load", "fullscale_gap", ("0.7", "0.5"), ">"),
    _on_pods("multipod.every-flow-finishes", "unfinished", ("unfinished", 0.0), "~", 0.0),
    _on_pods("multipod.inter-pod-traffic-exists", "pod_bytes", ("inter-pod bytes", 0.0), ">"),
    _on_pods("multipod.conga-no-worse-overall", "pods", ("conga", "ecmp"), "<=", 1.05,
           cells=("overall",)),
    _on_pods("multipod.conga-better-in-failed-pod", "pods", ("conga", "ecmp"),
           cells=("intra-pod",)),
    _on_thm1("thm1.gadget-is-nash", "thm1", ("is Nash", 1.0), "~", 0.0, cells=("gadget",)),
    _on_thm1("thm1.gadget-poa-is-2", "thm1", ("PoA", 2.0), "~", 1e-6, cells=("gadget",)),
    _on_thm1("thm1.poa-at-most-2", "thm1", ("max PoA", 2.0 + 1e-6), "<=",
          cells=("random instances",)),
    _on_thm1("thm1.typical-near-optimal", "thm1", ("mean PoA", 1.2), cells=("random instances",)),
    _on_thm2("thm2.bound-holds", "thm2_bound", ("measured", "bound"), "<=", 1.05),
    _on_thm2("thm2.decays-like-inverse-sqrt-t", "thm2", ("t=80", "t=5"), "<", 0.5,
          cells=("decay",)),
    _on_thm2("thm2.heavier-tail-balances-worse", "thm2", ("data-mining", "web-search"), ">",
          cells=("CoV",)),
    _on_thm2("thm2.500kb-flowlets-help", "thm2", ("flowlet 500KB", "per-flow"),
          cells=("flowlets",)),
    _on_thm2("thm2.50kb-flowlets-help-more", "thm2", ("flowlet 50KB", "flowlet 500KB"),
          cells=("flowlets",)),
)
