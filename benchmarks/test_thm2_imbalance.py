"""Theorem 2 (§6.2): traffic imbalance under randomized load balancing.

E[χ(t)] ≤ 1/sqrt(λ_e t) + O(1/t) with λ_e = λ / (8 n log n (1 + CoV²)).
Three consequences are checked by Monte-Carlo:

* the imbalance decays like 1/sqrt(t);
* heavier flow-size distributions (higher CoV) balance worse — data-mining
  vs web-search, the paper's explanation for Figure 9 vs Figure 10;
* chopping flows into flowlet-sized pieces slashes the imbalance, the
  theoretical case for flowlet switching.
"""

import numpy as np
import pytest
from conftest import report

from repro.theory import (
    flowlet_split_sampler,
    imbalance_bound,
    sampler_from_distribution,
    simulate_imbalance,
)
from repro.workloads import DATA_MINING, ENTERPRISE, WEB_SEARCH

ARRIVAL_RATE = 400.0
NUM_LINKS = 4


def _run():
    horizons = [5.0, 20.0, 80.0]
    decay_rows = []
    for t in horizons:
        estimate = simulate_imbalance(
            arrival_rate=ARRIVAL_RATE,
            num_links=NUM_LINKS,
            mean_size=WEB_SEARCH.mean(),
            cov=WEB_SEARCH.coefficient_of_variation(),
            t=t,
            sampler=sampler_from_distribution(WEB_SEARCH),
            trials=120,
            seed=21,
        )
        decay_rows.append([t, estimate.mean_imbalance, estimate.bound])

    workload_rows = []
    for dist in (WEB_SEARCH, ENTERPRISE, DATA_MINING):
        estimate = simulate_imbalance(
            arrival_rate=ARRIVAL_RATE,
            num_links=NUM_LINKS,
            mean_size=dist.mean(),
            cov=dist.coefficient_of_variation(),
            t=30.0,
            sampler=sampler_from_distribution(dist),
            trials=120,
            seed=22,
        )
        workload_rows.append(
            [dist.name, dist.coefficient_of_variation(), estimate.mean_imbalance]
        )

    base = sampler_from_distribution(DATA_MINING)
    flowlet_rows = []
    for label, sampler in (
        ("per-flow", base),
        ("flowlet 500KB", flowlet_split_sampler(base, 500_000.0)),
        ("flowlet 50KB", flowlet_split_sampler(base, 50_000.0)),
    ):
        estimate = simulate_imbalance(
            arrival_rate=200.0,
            num_links=NUM_LINKS,
            mean_size=DATA_MINING.mean(),
            cov=DATA_MINING.coefficient_of_variation(),
            t=30.0,
            sampler=sampler,
            trials=80,
            seed=23,
        )
        flowlet_rows.append([label, estimate.mean_imbalance])
    return decay_rows, workload_rows, flowlet_rows


def test_theorem2_traffic_imbalance():
    decay_rows, workload_rows, flowlet_rows = _run()
    report(
        "Theorem 2: E[chi(t)] vs the 1/sqrt(lambda_e t) bound (web-search)",
        ["t", "measured E[chi]", "bound"],
        decay_rows,
    )
    report(
        "Theorem 2: workload heaviness (CoV) drives imbalance @ t=30",
        ["workload", "CoV", "E[chi]"],
        workload_rows,
    )
    report(
        "Theorem 2: flowlet splitting improves balance (data-mining)",
        ["granularity", "E[chi]"],
        flowlet_rows,
    )
    # Bound holds at every horizon.
    for _t, measured, bound in decay_rows:
        assert measured <= bound * 1.05
    # Decay: quadrupling t should at least halve the imbalance (~1/sqrt t).
    assert decay_rows[-1][1] < decay_rows[0][1] / 2
    # CoV ordering: data-mining worst.
    assert workload_rows[2][2] > workload_rows[0][2]
    # Flowlets: the finer the pieces, the better the balance.
    assert flowlet_rows[1][1] < flowlet_rows[0][1]
    assert flowlet_rows[2][1] < flowlet_rows[1][1]
