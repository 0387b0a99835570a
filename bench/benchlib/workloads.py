"""The seven workloads: what each one sets up and what one repeat of it runs.

``repro`` is imported inside the functions, never at module level: a
workload's ``setup`` is what ``setup_s`` times in a fresh interpreter, so the
imports have to happen there.

Sizes are chosen so that one repeat takes about 1-3 s on a 2-core box for
most seeds (flow sizes are heavy-tailed, so the work behind a fixed flow
count moves several-fold with the seed; the reported rates do not).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import sys
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Any, Callable

from benchlib import SCENARIO_DIR, micro, scratch_dir
from benchlib.checks import check_reference_digest, check_repeat, check_sweep_pass

#: Sim counts read from ``PointResult.metrics`` — exact for a fixed seed.  A
#: counter the run never registered (no flowlet table under ecmp, no tracer)
#: counts 0: it counts things that did not happen.
COUNT_NAMES = (
    "kernel.events_executed", "kernel.timer_rearms", "kernel.heap_compactions",
    "tcp.retransmissions", "tcp.timeouts",
    "flowlet.decisions", "flowlet.created",
    "feedback.sent", "overlay.encapsulated",
    "lb.caft.fault_reroutes", "trace.emitted", "timeline.samples",
)

#: Passes of the warm cache read behind ``runner.warm_hit_us``.
WARM_PASSES = 20


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``setup(seed, tiny)`` imports what the workload needs and builds its
    inputs from the seed; ``body(state)`` runs one repeat and returns a
    sample; ``warmup(state)`` is the untimed first repeat (default: one
    ``body``).  ``kind`` selects how the harness turns samples into metrics.
    Why each workload exists is in ``BENCHMARK.json`` and bench/README.md.
    """

    name: str
    kind: str  # "packet" | "sweep" | "micro"
    setup: Callable[[int, bool], Any]
    body: Callable[[Any], dict]
    warmup: Callable[[Any], dict] | None = None


# -- packet workloads ----------------------------------------------------------


def _counts(counters: dict) -> dict:
    return {name: counters.get(name, 0) for name in COUNT_NAMES}


def _port_counts(fabric) -> dict:
    """Packet counts over every port of every node, the edge included.

    ``PointResult.metrics`` counts the leaf-spine ports only.  The edge is
    where an incast drops, and a packet's share of fabric hops changes with
    the topology and the seed while two events per transmission does not,
    so the all-port count is the steadier base for ``host_us_per_pkt``.
    """
    nodes = [
        *fabric.leaves, *fabric.spines, *getattr(fabric, "cores", ()),
        *fabric.hosts.values(),
    ]
    ports = [port for node in nodes for port in node.ports]
    tx = sum(p.tx_packets for p in ports)
    return {
        "port.tx_packets": tx,
        "port.queue_dropped_packets": sum(p.queue.stats.dropped_packets for p in ports),
        "port.in_flight_packets": tx
        - sum(p.rx_packets for p in ports) - sum(p.lost_packets for p in ports),
    }


def _run_spec(spec) -> dict:
    """One repeat of an ``ExperimentSpec``, timed in three phases."""
    from repro.analysis.fct import records_digest
    from repro.apps import PointResult

    blocks = sys.getallocatedblocks()
    t0 = perf_counter()
    live = spec.run_live()
    t1 = perf_counter()
    point = PointResult.from_live(spec, live, wall_seconds=t1 - t0)
    t2 = perf_counter()
    counts = {**_counts(point.metrics.counters), **_port_counts(live.fabric)}
    return {
        "t0": t0, "t1": t1, "t2": t2,
        "wall_s": t2 - t0,
        "sim.run_s": live.sim.wall_seconds,
        "events": point.events_executed,
        "packets": counts["port.tx_packets"],
        "counts": counts,
        "alloc_blocks": sys.getallocatedblocks() - blocks,
        "digest": records_digest(list(point.records)),
        "arrivals": point.arrivals,
        "completed": point.completed,
        "fct.norm_mean": point.summary.mean_normalized if point.summary else 0.0,
        "fct.norm_p99": point.summary.p99_normalized if point.summary else 0.0,
    }


def _spec_body(state: dict) -> dict:
    sample = _run_spec(state["spec"])
    sample["failures"] = check_repeat("", sample)
    return sample


def _setup_conga_enterprise(seed: int, tiny: bool) -> dict:
    from repro.apps import ExperimentSpec

    return {
        "spec": ExperimentSpec(
            "conga", "enterprise", load=0.7, seed=seed,
            num_flows=30 if tiny else 400, size_scale=0.02 if tiny else 0.05,
        )
    }


def _setup_ecmp_datamining(seed: int, tiny: bool) -> dict:
    from repro.apps import ExperimentSpec

    return {
        "spec": ExperimentSpec(
            "ecmp", "data-mining", load=0.6, seed=seed,
            num_flows=30 if tiny else 300, size_scale=0.005 if tiny else 0.02,
        )
    }


def _setup_conga_obs_on(seed: int, tiny: bool) -> dict:
    from repro.apps import ObsSpec
    from repro.obs.timeline import TimelineSpec

    plain = _setup_conga_enterprise(seed, tiny)["spec"]
    return {
        "plain": plain,
        "spec": plain.with_(obs=ObsSpec(timeline=TimelineSpec())),
    }


def _warmup_conga_obs_on(state: dict) -> dict:
    # The same point without obs gives the digest every obs-on repeat must
    # reproduce (it is workload conga_enterprise's spec, so its digest too).
    state["reference_digest"] = _run_spec(state["plain"])["digest"]
    return _body_conga_obs_on(state)


def _body_conga_obs_on(state: dict) -> dict:
    sample = _run_spec(state["spec"])
    sample["failures"] = check_repeat("", sample) + check_reference_digest(
        "", sample["digest"], state["reference_digest"], "the obs-off run's"
    )
    return sample


def _setup_caft_fault_multipod(seed: int, tiny: bool) -> dict:
    from repro.scenarios import load_scenario

    template = load_scenario(SCENARIO_DIR / "caft_fault_multipod.yaml").template
    changes = {"seed": seed}
    if tiny:
        changes["num_flows"] = 40
    return {"spec": template.with_(**changes)}


def _setup_incast_rto(seed: int, tiny: bool) -> dict:
    import repro.apps  # noqa: F401 -- timed here, used by the body
    import repro.lb  # noqa: F401
    import repro.topology  # noqa: F401
    import repro.transport  # noqa: F401

    rng = random.Random(seed)
    hosts_per_leaf = 4 if tiny else 16
    client = rng.randrange(2 * hosts_per_leaf)
    return {
        "seed": seed,
        "hosts_per_leaf": hosts_per_leaf,
        "client": client,
        # The seed moves the client and the request size by up to one part
        # in 250: enough to change every duration, not the amount of work.
        "request_bytes": (1_000_000 if tiny else 25_000_000) + rng.randrange(100_000),
        "requests": 1 if tiny else 2,
    }


def _body_incast_rto(state: dict) -> dict:
    """31 servers answer one client through a shallow edge buffer, 1 ms RTO."""
    from repro.apps import IncastClient, tcp_flow_factory
    from repro.lb import CongaSelector
    from repro.sim import Simulator
    from repro.topology import build_leaf_spine, scaled_testbed
    from repro.transport import TcpParams
    from repro.units import milliseconds, seconds

    blocks = sys.getallocatedblocks()
    t0 = perf_counter()
    sim = Simulator(seed=state["seed"])
    fabric = build_leaf_spine(
        sim,
        scaled_testbed(
            hosts_per_leaf=state["hosts_per_leaf"], host_queue_bytes=1_000_000
        ),
    )
    fabric.finalize(CongaSelector.factory())
    params = TcpParams(min_rto=milliseconds(1), initial_rto=milliseconds(1))
    make_flow = tcp_flow_factory(params)
    flows = []

    def counting_factory(src, dst, size, done):
        flow = make_flow(src, dst, size, done)
        flows.append(flow)
        return flow

    client = IncastClient(
        sim, fabric, client=state["client"],
        servers=[h for h in sorted(fabric.hosts) if h != state["client"]],
        flow_factory=counting_factory,
        request_bytes=state["request_bytes"], repeats=state["requests"],
    )
    client.start()
    sim.run(until=seconds(120))
    t1 = perf_counter()
    teps = [leaf.tep for leaf in fabric.leaves]
    selectors = [leaf.selector for leaf in fabric.leaves]
    counts = {
        **{name: 0 for name in COUNT_NAMES},
        **_port_counts(fabric),
        "kernel.events_executed": sim.events_executed,
        "kernel.timer_rearms": sim.timer_rearms,
        "kernel.heap_compactions": sim.heap_compactions,
        "tcp.retransmissions": sum(f.sender.stats.retransmissions for f in flows),
        "tcp.timeouts": sum(f.sender.stats.timeouts for f in flows),
        "flowlet.decisions": sum(s.decisions for s in selectors),
        "flowlet.created": sum(s.flowlets.new_flowlets for s in selectors),
        "feedback.sent": sum(t.feedback_sent for t in teps),
        "overlay.encapsulated": sum(t.encapsulated for t in teps),
    }
    durations = client.result.request_durations
    t2 = perf_counter()
    sample = {
        "t0": t0, "t1": t1, "t2": t2,
        "wall_s": t2 - t0,
        "sim.run_s": sim.wall_seconds,
        "events": sim.events_executed,
        "packets": counts["port.tx_packets"],
        "counts": counts,
        "alloc_blocks": sys.getallocatedblocks() - blocks,
        "digest": hashlib.sha256(",".join(map(str, durations)).encode()).hexdigest(),
        "arrivals": state["requests"],
        "completed": len(durations),
    }
    sample["failures"] = check_repeat("", sample)
    return sample


# -- sweep workload --------------------------------------------------------------


def _setup_sweep_small_points(seed: int, tiny: bool) -> dict:
    from repro.runner import run_sweep  # noqa: F401 -- timed here, used by the body
    from repro.scenarios import load_scenario

    t0 = perf_counter()
    scenario = load_scenario(SCENARIO_DIR / "sweep_small_points.yaml")
    if tiny:
        scenario = dataclasses.replace(
            scenario, loads=(0.5,), seeds=scenario.seed_list()[:2],
            template=scenario.template.with_(num_flows=10, size_scale=0.02),
        )
    specs = scenario.compile()
    load_compile_ms = (perf_counter() - t0) * 1e3
    # The seed orders the dispatch and leaves the points alone.  With tiny
    # points the fixed costs this workload exists to show (spawn, protocol,
    # cache) are amortised over the simulated work, and that work moves
    # two-fold with the points' own seeds: drawing them from --seed made
    # the rates a function of the seed, not of the runner.
    random.Random(seed).shuffle(specs)
    return {
        "specs": specs,
        "scenarios.load_compile_ms": load_compile_ms,
        "workers": min(2, os.cpu_count() or 1),
    }


def _warmup_sweep_small_points(state: dict) -> dict:
    """Two points inline without a cache: lazy imports done, nothing cached."""
    from repro.runner import run_sweep

    t0 = perf_counter()
    run_sweep(state["specs"][:2], workers=0, cache=None)
    return {"wall_s": perf_counter() - t0, "ops": 0, "failures": []}


def _body_sweep_small_points(state: dict) -> dict:
    """Cold then warm through inline, the local pool and worker subprocesses.

    ``wall_s`` is the sum of those six passes.  The extra warm passes behind
    ``runner.warm_hit_us`` and the report render are timed on their own and
    left out of it.  ``layer`` maps each per-layer name to its value and to
    which of a run's repeats the harness should report for it.
    """
    from repro.analysis.htmlreport import sweep_report
    from repro.runner import LocalBackend, PointFailure, SubprocessBackend, run_sweep

    specs = state["specs"]
    workers = state["workers"]
    backends = (
        ("inline", LocalBackend(workers=0), 1),
        ("local", LocalBackend(workers=workers), workers),
        ("subproc", SubprocessBackend(workers=workers), workers),
    )
    blocks = sys.getallocatedblocks()
    failures, cold_s, layer = [], {}, {}
    reference = counts = None
    wall = 0.0
    events = packets = ops = 0
    for name, backend, width in backends:
        with scratch_dir(f"sweep-{name}-") as cache_dir:
            t0 = perf_counter()
            cold = run_sweep(specs, cache=cache_dir, backend=backend)
            t1 = perf_counter()
            warm = run_sweep(specs, cache=cache_dir, backend=backend)
            t2 = perf_counter()
            cold_s[name] = t1 - t0
            wall += t2 - t0
            good = [p for p in cold.points if not isinstance(p, PointFailure)]
            if name == "inline":
                reference = cold.digest()
                counts = _sum_counts(good)
                warm_s = []
                for _ in range(WARM_PASSES):
                    t0 = perf_counter()
                    run_sweep(specs, cache=cache_dir, backend=backend)
                    warm_s.append(perf_counter() - t0)
                layer["runner.warm_hit_us"] = (median(warm_s) / len(specs) * 1e6, min)
                t0 = perf_counter()
                sweep_report(good, title="bench sweep_small_points")
                layer["analysis.report_render_ms"] = ((perf_counter() - t0) * 1e3, min)
        for label, result in (("cold", cold), ("warm", warm)):
            ops += len(specs)
            failures += check_sweep_pass(
                f"{name}/{label}", points=len(result.points),
                expected_points=len(specs), failures=len(result.failures),
                digest=result.digest(), reference=reference,
                warm=label == "warm", all_cached=result.all_cached,
            )
        events += sum(p.events_executed for p in good)
        packets += sum(p.metrics.counters["port.tx_packets"] for p in good)
        layer[f"runner.{name}_points_per_s"] = (len(specs) / cold_s[name], max)
        busy_share = sum(p.wall_seconds for p in good) / (width * cold_s[name])
        if name == "inline":
            layer["runner.inline_overhead_share"] = (1.0 - busy_share, min)
        else:
            layer[f"runner.{name}_efficiency"] = (busy_share, max)
    layer["runner.protocol_overhead_s"] = (cold_s["subproc"] - cold_s["local"], median)
    return {
        "wall_s": wall,
        "events": events,
        "packets": packets,
        "counts": counts,
        "alloc_blocks": sys.getallocatedblocks() - blocks,
        "digest": reference,
        "layer": layer,
        "ops": ops,
        "failures": failures,
    }


def _sum_counts(points) -> dict:
    """Counts summed over a sweep's points.

    A ``PointResult`` carries no fabric, so the port counts here are the
    leaf-spine ones of its metrics report, not the all-port ones of
    :func:`_port_counts`.
    """
    totals = {name: 0 for name in COUNT_NAMES}
    totals.update({"port.tx_packets": 0, "port.queue_dropped_packets": 0})
    for point in points:
        counters = point.metrics.counters
        for name in totals:
            totals[name] += counters.get(name, 0)
    return totals


# -- registry ----------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("conga_enterprise", "packet", _setup_conga_enterprise, _spec_body),
        Workload("ecmp_datamining", "packet", _setup_ecmp_datamining, _spec_body),
        Workload("incast_rto", "packet", _setup_incast_rto, _body_incast_rto),
        Workload(
            "conga_obs_on", "packet", _setup_conga_obs_on, _body_conga_obs_on,
            _warmup_conga_obs_on,
        ),
        Workload("caft_fault_multipod", "packet", _setup_caft_fault_multipod, _spec_body),
        Workload(
            "sweep_small_points", "sweep", _setup_sweep_small_points,
            _body_sweep_small_points, _warmup_sweep_small_points,
        ),
        Workload("layer_micro", "micro", micro.setup, micro.body),
    )
}
