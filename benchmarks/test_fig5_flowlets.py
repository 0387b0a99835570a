"""Figure 5 and §2.6.1: flowlet measurements on (synthetic) packet traces.

Paper findings on production traces:

* 50% of bytes are in flows larger than ~30 MB, but with a 500 µs flowlet
  inactivity gap the byte-median transfer drops to ~500 KB — roughly two
  orders of magnitude finer balancing granularity;
* concurrent distinct 5-tuples per 1 ms are few (median ~130, max < 300),
  so a 64K-entry flowlet table is ample.

Production traces are proprietary; the synthetic generator reproduces the
two ingredients (heavy-tailed flows, NIC-offload line-rate bursts).
"""

import numpy as np
import pytest
from conftest import report

from repro.traces import (
    FIGURE5_GAPS,
    SyntheticTraceGenerator,
    byte_median_size,
    byte_weighted_cdf,
    concurrency_per_window,
    flowlet_sizes,
)


def _run():
    generator = SyntheticTraceGenerator(seed=42)
    trace = generator.generate(300)
    probes = np.logspace(1, 9, 17)
    curves = {}
    medians = {}
    for name, gap in FIGURE5_GAPS.items():
        sizes = flowlet_sizes(trace, gap)
        curves[name] = byte_weighted_cdf(sizes, probes)
        medians[name] = byte_median_size(sizes)
    busy = SyntheticTraceGenerator(seed=43).generate(
        500, arrival_rate_per_s=50_000.0
    )
    concurrency = concurrency_per_window(busy)
    return probes, curves, medians, concurrency


def test_figure5_flowlet_size_distribution():
    probes, curves, medians, concurrency = _run()
    rows = [
        [f"{p:.0f}"] + [f"{curves[name][i]:.2f}" for name in FIGURE5_GAPS]
        for i, p in enumerate(probes)
    ]
    report(
        "Figure 5: fraction of bytes in transfers <= size",
        ["size (B)"] + list(FIGURE5_GAPS),
        rows,
    )
    report(
        "Figure 5: byte-median transfer size",
        ["granularity", "paper", "measured (B)"],
        [
            ["flow-250ms", "~30 MB", f"{medians['flow-250ms']:.3g}"],
            ["flowlet-500us", "~500 KB", f"{medians['flowlet-500us']:.3g}"],
            ["flowlet-100us", "< 500 KB", f"{medians['flowlet-100us']:.3g}"],
        ],
    )
    report(
        "2.6.1: concurrent distinct flows per 1 ms window",
        ["metric", "paper", "measured"],
        [
            ["median", "~130", int(np.median(concurrency))],
            ["max", "< 300", int(concurrency.max())],
        ],
    )
    # Shape assertions: flows are tens of MB by byte-median; 500 us flowlets
    # are ~2 orders of magnitude smaller; 100 us at most as large.
    assert medians["flow-250ms"] > 10e6
    assert medians["flowlet-500us"] < medians["flow-250ms"] / 30
    assert medians["flowlet-100us"] <= medians["flowlet-500us"]
    # Concurrency stays far below the 64K flowlet table (3.4).
    assert concurrency.max() < 65_536 / 8
