"""Measure one workload in this process: set-up, warm-up, timed repeats, trace.

The order is fixed: ``setup`` (timed once here as ``setup.import_s`` and in
fresh interpreters as ``setup_s``), one untimed warm-up repeat, then timed
repeats of the body until ``seconds`` have passed (half of that before a
traced repeat).  End-to-end metrics come from the untraced repeats only; the
traced repeat adds the ``layer.*`` attribution and ``trace.overhead_x``.
A timing is reported as its best repeat (see :func:`summarize`), ``setup_s``
as its median.
"""

from __future__ import annotations

import gc
import os
import resource
import subprocess
import sys
from statistics import median
from time import perf_counter

from benchlib import BENCH_DIR, LAYERS, SRC
from benchlib.attribution import BUCKETS, profile_call
from benchlib.checks import check_repeats_identical, check_shares, failed_operations
from benchlib.workloads import Workload

#: Fresh interpreters behind ``setup_s`` (its median is what is reported).
SETUP_PROBES = 5

_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "from benchlib.workloads import WORKLOADS; "
    "WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]), sys.argv[5] == '1')"
)


def summarize(values: list[float], pick=median) -> dict:
    """The reported value with the median, min, max and n beside it.

    ``pick`` is ``min`` for a time and ``max`` for a rate: the repeats of a
    run do identical work, so they differ only by interference, which on a
    shared box comes in bursts and only ever slows a repeat down.  The best
    repeat is the steadiest estimate of what the code costs (over ten runs
    its spread was a third of the median's); the median is kept beside it.
    A handful of samples supports no percentile.
    """
    return {
        "value": pick(values), "median": median(values),
        "min": min(values), "max": max(values), "n": len(values),
    }


def probe_setup(workload: Workload, seed: int, tiny: bool, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of ``setup``."""
    command = [
        sys.executable, "-c", _PROBE, str(BENCH_DIR), str(SRC),
        workload.name, str(seed), "1" if tiny else "0",
    ]
    seconds = []
    for _ in range(probes):
        t0 = perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        seconds.append(perf_counter() - t0)
    return seconds


def measure(workload: Workload, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run ``workload`` and return its detail record (see bench/README.md)."""
    origin = perf_counter()
    load_start = os.getloadavg()[0]
    spans, failures, identical = [], [], []
    attempted = 0

    def span(name: str, start: float, end: float, parent: str, **extra) -> None:
        spans.append({
            "name": name, "parent": parent, **extra,
            "start": round(start - origin, 6), "end": round(end - origin, 6),
        })

    def run(op: str, fn) -> dict:
        nonlocal attempted
        me = f"{workload.name}/{op}"
        # Cyclic garbage of the previous repeat (a whole fabric) is freed
        # here, outside the timed region, so that peak RSS is one repeat's
        # footprint and not a matter of when the collector last ran.
        gc.collect()
        t0 = perf_counter()
        sample = fn()
        t1 = perf_counter()
        span("repeat", t0, t1, workload.name, id=me)
        if "t1" in sample:  # a packet repeat: run_live (build, then sim.run), collect
            span("apps.run_live", sample["t0"], sample["t1"], me)
            span("sim.run", sample["t1"] - sample["sim.run_s"], sample["t1"], me)
            span("apps.collect", sample["t1"], sample["t2"], me)
        attempted += sample.get("ops", 1)
        failures.extend((f"{op}/{sub}".rstrip("/"), msg) for sub, msg in sample["failures"])
        if "digest" in sample:
            identical.append((op, sample))
        sample["span_s"] = t1 - t0
        return sample

    state = workload.setup(seed, tiny)
    import_s = perf_counter() - origin
    span("setup", origin, origin + import_s, workload.name)
    setup_s = probe_setup(workload, seed, tiny, 1 if tiny else SETUP_PROBES)

    warm = workload.warmup or workload.body
    first_run_s = run("warmup", lambda: warm(state))["span_s"]
    budget = seconds / 2 if trace else seconds
    samples = []
    loop_start = perf_counter()
    while True:
        samples.append(run(f"repeat{len(samples) + 1}", lambda: workload.body(state)))
        if perf_counter() - loop_start >= budget:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    walls = [s["wall_s"] for s in samples]
    layer = {
        "setup.import_s": summarize([import_s]),
        "apps.first_run_s": summarize([first_run_s]),
        "wall_s": summarize(walls, min),
        "wall_n": summarize([len(walls)]),
    }
    rates = _rates(workload.kind, samples)
    first = samples[0]
    if workload.kind == "micro":
        for name in first["rows"]:
            layer[name] = summarize(
                [s["rows"][name] for s in samples if name in s["rows"]],
                max if name.endswith("_per_s") else min,
            )
    else:
        layer.update({name: summarize([value]) for name, value in first["counts"].items()})
        layer["alloc_blocks"] = summarize([s["alloc_blocks"] for s in samples])
    if workload.kind == "packet":
        layer["apps.build_s"] = summarize(
            [s["t1"] - s["t0"] - s["sim.run_s"] for s in samples], min
        )
        layer["sim.run_s"] = summarize([s["sim.run_s"] for s in samples], min)
        layer["apps.collect_s"] = summarize([s["t2"] - s["t1"] for s in samples], min)
        for name in ("fct.norm_mean", "fct.norm_p99"):
            if name in first:
                layer[name] = summarize([first[name]])
    if workload.kind == "sweep":
        layer["scenarios.load_compile_ms"] = summarize([state["scenarios.load_compile_ms"]])
        for name, (_, pick) in first["layer"].items():
            layer[name] = summarize([s["layer"][name][0] for s in samples], pick)

    if trace and workload.kind == "packet":
        _, traced_s, buckets = profile_call(
            lambda: run("traced", lambda: workload.body(state))
        )
        total_self = sum(b["self_s"] for b in buckets.values())
        shares = {name: buckets[name]["self_s"] / total_self for name in BUCKETS}
        failures.extend(check_shares("traced", shares))
        ns_per_event = min(walls) / first["events"] * 1e9
        for name in BUCKETS:
            layer[f"layer.{name}.share"] = summarize([shares[name]])
        for name in LAYERS:
            layer[f"layer.{name}.calls"] = summarize([buckets[name]["calls"]])
            layer[f"layer.{name}.ns_per_event"] = summarize([shares[name] * ns_per_event])
        layer["trace.overhead_x"] = summarize([traced_s / min(walls)])

    if identical:
        failures.extend(check_repeats_identical(identical))
    end_to_end = {"setup_s": summarize(setup_s), "peak_rss_mb": summarize([peak_rss_mb])}
    for name, (values, pick) in rates.items():
        if values:
            end_to_end[name] = summarize(values, pick)
        else:
            failures.append(("end_to_end", f"{name} could not be measured"))
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "end_to_end": end_to_end,
        "per_layer": layer,
        "digest": first.get("digest"),
        "exact": sorted(
            [*first.get("counts", ()), *(n for n in layer if n.endswith(".calls"))]
        ),
        "unmeasured": first.get("unmeasured", []),
        "attempted": attempted,
        "failed": min(attempted, failed_operations(failures)),
        "failures": [f"{op}: {msg}" for op, msg in failures],
        "spans": spans,
        "loadavg": [load_start, os.getloadavg()[0]],
    }


def _rates(kind: str, samples: list[dict]) -> dict[str, tuple[list[float], object]]:
    """The two end-to-end rates, one value per timed repeat, and which is best.

    On ``layer_micro`` they are the ceilings of the same two rates: its
    kernel row (no-op events) and its port row (one link into a sink).
    """
    if kind == "micro":
        fast = [s["rows"].get("sim.schedule_fast_ns") for s in samples]
        train = [s["rows"].get("net.port_train_ns_per_pkt") for s in samples]
        return {
            "events_per_s": ([1e9 / ns for ns in fast if ns], max),
            "host_us_per_pkt": ([ns / 1e3 for ns in train if ns], min),
        }
    return {
        "events_per_s": ([s["events"] / s["wall_s"] for s in samples], max),
        "host_us_per_pkt": ([s["wall_s"] / s["packets"] * 1e6 for s in samples], min),
    }
