"""Workload ``layer_micro``: one layer's public functions, everything else stubbed.

Each row builds the smallest object graph its function needs (no-op
callbacks, a sink node), loops over it a fixed number of times and reports
host time per operation.  A row is the *ceiling* of its layer: the place
where that layer is ~100 % of the work, so a change to it shows at full
size here and at its traced share on the packet workloads.

A row returns ``(operations, seconds, ok)``; ``ok`` is the row's own output
check (every event ran, every packet reached the sink).  A row whose public
function is gone raises ``ImportError``/``AttributeError`` and is reported
``unmeasured`` — never guessed.

One body is every row once, sized for roughly 30 ms a row; the harness
repeats bodies for ``--seconds`` and takes each row's median.  Rows are kept
that short on purpose: interference on a shared box comes in bursts that hit
single rows, and only a median over a dozen or more bodies shrugs those off.
"""

from __future__ import annotations

import pickle
import random
from time import perf_counter

from benchlib import scratch_dir

_NS, _US = 1e9, 1e6


def setup(seed: int, tiny: bool) -> dict:
    """Import every layer the rows touch; fixtures are built by the warm-up."""
    import repro.analysis  # noqa: F401 -- timed here, used by the rows
    import repro.apps  # noqa: F401
    import repro.fluid  # noqa: F401
    import repro.runner  # noqa: F401

    return {"seed": seed, "scale": 0.05 if tiny else 1.0}


def _fixtures(state: dict) -> dict:
    """Inputs shared by the rows, drawn once from the seed."""
    from repro.apps import ExperimentSpec
    from repro.net import Packet

    rng = random.Random(state["seed"])
    packets = [
        Packet(
            src=rng.randrange(64), dst=64 + rng.randrange(64), size=1500,
            sport=rng.randrange(1 << 16), dport=80, flow_id=i, payload_len=1460,
        )
        for i in range(2048)
    ]
    spec = ExperimentSpec(
        "conga", "enterprise", load=0.5, seed=state["seed"], num_flows=40,
        size_scale=0.02,
    )
    return {
        "n": lambda count: max(64, int(count * state["scale"])),
        "near": [rng.randrange(1, 500_000) for _ in range(1024)],
        "far": [rng.randrange(2_000_000, 20_000_000) for _ in range(1024)],
        "packets": packets,
        "spec": spec,
        "point": spec.run(),
        "seed": state["seed"],
    }


def body(state: dict) -> dict:
    """Every row once."""
    if "fx" not in state:
        state["fx"] = _fixtures(state)
    fx = state["fx"]
    rows, unmeasured, failures = {}, [], []
    t_body = perf_counter()
    for name, row, scale in ROWS:
        try:
            ops, seconds, ok = row(fx)
        except (ImportError, AttributeError) as exc:
            unmeasured.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        rows[name] = ops / seconds if scale is None else seconds / ops * scale
        if not ok:
            failures.append((name, "row output check failed"))
    return {
        "wall_s": perf_counter() - t_body,
        "rows": rows,
        "unmeasured": unmeasured,
        "ops": len(ROWS) - len(unmeasured),
        "failures": failures,
    }


# -- sim -------------------------------------------------------------------------


def _chains(fx: dict, delays: list[int], count: int):
    """64 self-rescheduling no-op events: schedule + pop in steady state."""
    from repro.sim import Simulator

    sim = Simulator(seed=fx["seed"])
    schedule_fast = sim.schedule_fast
    left = [count]

    def hop(k: int) -> None:
        n = left[0]
        if n:
            left[0] = n - 1
            schedule_fast(delays[n & 1023], hop, k)

    t0 = perf_counter()
    for k in range(64):
        schedule_fast(delays[k], hop, k)
    sim.run()
    seconds = perf_counter() - t0
    return count + 64, seconds, sim.events_executed == count + 64


def sim_schedule_fast(fx):
    """Delays inside the calendar ring (< 1 ms)."""
    return _chains(fx, fx["near"], fx["n"](50_000))


def sim_schedule_far(fx):
    """Delays past the ring horizon: overflow heap push, adopt on activation."""
    return _chains(fx, fx["far"], fx["n"](20_000))


def sim_timer_restart(fx):
    """One RTO-style Timer restarted from a 1 us event chain (the per-ACK shape)."""
    from repro.sim import Simulator, Timer

    count = fx["n"](40_000)
    sim = Simulator(seed=fx["seed"])
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    left = [count]

    def ack(_arg) -> None:
        timer.start(1_000_000)
        if left[0]:
            left[0] -= 1
            sim.schedule_fast(1_000, ack, None)

    t0 = perf_counter()
    sim.schedule_fast(1_000, ack, None)
    sim.run()
    seconds = perf_counter() - t0
    return count + 1, seconds, len(fired) == 1


# -- net -------------------------------------------------------------------------


def net_port_train(fx):
    """One Port, one link, an MTU train into a sink node."""
    from repro.net import Node, connect
    from repro.sim import Simulator

    class Sink(Node):
        received = 0

        def receive(self, packet, port) -> None:
            self.received += 1

    count = fx["n"](15_000)
    packets = fx["packets"]
    sim = Simulator(seed=fx["seed"])
    sender, sink = Sink(sim, "sender"), Sink(sim, "sink")
    out = sender.add_port(10_000_000_000, queue_capacity=None)
    connect(out, sink.add_port(10_000_000_000, queue_capacity=None))
    t0 = perf_counter()
    for i in range(count):
        out.send(packets[i & 2047])
    sim.run()
    seconds = perf_counter() - t0
    return count, seconds, sink.received == count and out.tx_packets == count


def net_queue_offer_poll(fx):
    from repro.net import DropTailQueue

    count = fx["n"](70_000)
    packets = fx["packets"]
    queue = DropTailQueue(10_000_000)
    polled = 0
    t0 = perf_counter()
    for i in range(count):
        queue.offer(packets[i & 2047])
        if queue.poll() is not None:
            polled += 1
    seconds = perf_counter() - t0
    return count, seconds, polled == count and queue.is_empty


# -- core ------------------------------------------------------------------------


def core_dre_measure(fx):
    """Fused decay + increment + CE stamp on an encapsulated packet.

    The clock stands still inside a batch and moves one DRE period between
    batches, so the decay multiply runs once per 4096 packets.
    """
    from repro.core.dre import DRE
    from repro.net import OverlayHeader, Packet
    from repro.sim import Simulator

    count = fx["n"](100_000)
    sim = Simulator(seed=fx["seed"])
    dre = DRE(sim, 40_000_000_000)
    packet = Packet(src=0, dst=1, size=1500)
    packet.overlay = OverlayHeader(src_leaf=0, dst_leaf=1, lbtag=0)
    measure = dre.measure
    done = 0
    t0 = perf_counter()
    while done < count:
        for _ in range(4096):
            measure(packet)
        done += 4096
        sim.run(until=sim.now + 20_000)
    seconds = perf_counter() - t0
    return done, seconds, dre.register > 0 and packet.overlay.ce > 0


def core_flowlet_lookup(fx):
    """Active-flowlet hits over 2048 installed five-tuples."""
    from repro.core.flowlet import FlowletTable
    from repro.sim import Simulator

    count = fx["n"](40_000)
    table = FlowletTable(Simulator(seed=fx["seed"]))
    tuples = [p.five_tuple for p in fx["packets"]]
    for five_tuple in tuples:
        table.install(table.lookup(five_tuple), 1)
    lookup = table.lookup
    hits = 0
    t0 = perf_counter()
    for i in range(count):
        if lookup(tuples[i & 2047]).valid:
            hits += 1
    seconds = perf_counter() - t0
    return count, seconds, hits == count


def core_tables_update_metric(fx):
    """Congestion-To-Leaf: one feedback update and one aged read."""
    from repro.core.tables import CongestionToLeafTable
    from repro.sim import Simulator

    count = fx["n"](40_000)
    table = CongestionToLeafTable(Simulator(seed=fx["seed"]), 4)
    total = 0
    t0 = perf_counter()
    for i in range(count):
        table.update(i & 7, i & 3, i & 7)
        total += table.metric(i & 7, i & 3)
    seconds = perf_counter() - t0
    return count, seconds, total > 0


def core_tables_select_feedback(fx):
    """Congestion-From-Leaf: one CE record and one round-robin selection."""
    from repro.core.tables import CongestionFromLeafTable

    count = fx["n"](40_000)
    table = CongestionFromLeafTable(4)
    selected = 0
    t0 = perf_counter()
    for i in range(count):
        table.record(i & 7, i & 3, (i >> 2) & 7)
        if table.select_feedback(i & 7) is not None:
            selected += 1
    seconds = perf_counter() - t0
    return count, seconds, selected == count


# -- overlay ---------------------------------------------------------------------


def overlay_encap_decap(fx):
    """Encapsulate at leaf 0, decapsulate at leaf 1, feedback piggybacked."""
    from repro.overlay.vxlan import TunnelEndpoint
    from repro.sim import Simulator

    count = fx["n"](15_000)
    sim = Simulator(seed=fx["seed"])
    here, there = TunnelEndpoint(sim, 0, 4), TunnelEndpoint(sim, 1, 4)
    here.from_leaf_table.record(1, 0, 3)  # so every header carries feedback
    packets = fx["packets"]
    t0 = perf_counter()
    for i in range(count):
        packet = packets[i & 2047]
        here.encapsulate(packet, 1, i & 3)
        there.decapsulate(packet)
    seconds = perf_counter() - t0
    return count, seconds, there.decapsulated == count and there.feedback_received == count


# -- lb --------------------------------------------------------------------------


def _choose_uplink(fx, factory, count):
    """A leaf's selector over 2048 flows, in passes of one packet per flow.

    The clock stands still for two passes and then jumps past the flowlet
    timeout, so under conga every other pass is all decisions and the one
    after it all flowlet hits; ecmp hashes the same either way.
    """
    from repro.sim import Simulator
    from repro.topology import build_leaf_spine, scaled_testbed

    sim = Simulator(seed=fx["seed"])
    fabric = build_leaf_spine(sim, scaled_testbed())
    fabric.finalize(factory)
    leaf = fabric.leaves[0]
    candidates = leaf.candidate_uplinks(1)
    choose = leaf.selector.choose_uplink
    packets = fx["packets"]
    ok = True
    done = 0
    t0 = perf_counter()
    while done < count:
        for _ in range(2):
            for packet in packets:
                if choose(packet, 1, candidates) not in candidates:
                    ok = False
        done += 2 * len(packets)
        sim.run(until=sim.now + 1_500_000)
    seconds = perf_counter() - t0
    return done, seconds, ok


def lb_conga_choose_uplink(fx):
    from repro.lb import CongaSelector

    return _choose_uplink(fx, CongaSelector.factory(), fx["n"](8_000))


def lb_ecmp_choose_uplink(fx):
    from repro.lb import EcmpSelector

    return _choose_uplink(fx, EcmpSelector.factory(), fx["n"](40_000))


# -- transport -------------------------------------------------------------------


def transport_tcp_segment(fx):
    """One TcpFlow between two hosts under one leaf, per data segment sent."""
    from repro.lb import EcmpSelector
    from repro.sim import Simulator
    from repro.topology import build_leaf_spine, scaled_testbed
    from repro.transport import TcpFlow

    segments = fx["n"](1_500)
    sim = Simulator(seed=fx["seed"])
    fabric = build_leaf_spine(sim, scaled_testbed())
    fabric.finalize(EcmpSelector.factory())
    first, second = fabric.hosts_under(0)[:2]
    flow = TcpFlow(sim, fabric.host(first), fabric.host(second), segments * 1460)
    t0 = perf_counter()
    flow.start()
    sim.run()
    seconds = perf_counter() - t0
    return flow.sender.stats.segments_sent, seconds, flow.finished


# -- obs -------------------------------------------------------------------------


def obs_tracer_emit(fx):
    from repro.obs import Tracer
    from repro.obs.events import PacketDropped

    count = fx["n"](100_000)
    tracer = Tracer()
    event = PacketDropped(time=1, port="p", flow_id=1, size=1500, reason="queue-full")
    emit = tracer.emit
    t0 = perf_counter()
    for _ in range(count):
        emit(event)
    seconds = perf_counter() - t0
    return count, seconds, tracer.emitted == count


# -- runner ----------------------------------------------------------------------


def runner_spec_hash(fx):
    count = fx["n"](700)
    spec = fx["spec"]
    t0 = perf_counter()
    for _ in range(count):
        digest = spec.content_hash()
    seconds = perf_counter() - t0
    return count, seconds, len(digest) == 64


def runner_point_pickle(fx):
    """One PointResult (40 flows) through the pool's pickle round trip."""
    count = fx["n"](200)
    point = fx["point"]
    t0 = perf_counter()
    for _ in range(count):
        copy = pickle.loads(pickle.dumps(point, protocol=pickle.HIGHEST_PROTOCOL))
    seconds = perf_counter() - t0
    return count, seconds, copy.records == point.records


def _cache_row(fx, timed: str):
    """put, then get, one PointResult under distinct keys in a fresh cache."""
    from repro.runner import ResultCache

    count = fx["n"](40)
    point = fx["point"]
    specs = [fx["spec"].with_(seed=fx["seed"] + 1 + i) for i in range(count)]
    with scratch_dir("micro-cache-") as root:
        cache = ResultCache(root)
        t0 = perf_counter()
        for spec in specs:
            cache.put(spec, point)
        t1 = perf_counter()
        hits = sum(cache.get(spec) is not None for spec in specs)
        t2 = perf_counter()
    return count, (t1 - t0 if timed == "put" else t2 - t1), hits == count


def runner_cache_put(fx):
    return _cache_row(fx, "put")


def runner_cache_get(fx):
    return _cache_row(fx, "get")


# -- fluid -----------------------------------------------------------------------


def fluid_flows(fx):
    from repro.apps import get_workload
    from repro.fluid import run_flow_level
    from repro.topology import scaled_testbed

    flows = fx["n"](200)
    t0 = perf_counter()
    done = run_flow_level(
        scaled_testbed(), get_workload("enterprise"), 0.6,
        scheme="conga", num_flows=flows, seed=fx["seed"],
    )
    seconds = perf_counter() - t0
    return flows, seconds, len(done) == flows


#: (metric, row, scale): the metric is ``seconds / ops * scale``, or
#: ``ops / seconds`` where scale is None.
ROWS = (
    ("sim.schedule_fast_ns", sim_schedule_fast, _NS),
    ("sim.schedule_far_ns", sim_schedule_far, _NS),
    ("sim.timer_restart_ns", sim_timer_restart, _NS),
    ("net.port_train_ns_per_pkt", net_port_train, _NS),
    ("net.queue_offer_poll_ns", net_queue_offer_poll, _NS),
    ("core.dre.measure_ns", core_dre_measure, _NS),
    ("core.flowlet.lookup_ns", core_flowlet_lookup, _NS),
    ("core.tables.update_metric_ns", core_tables_update_metric, _NS),
    ("core.tables.select_feedback_ns", core_tables_select_feedback, _NS),
    ("overlay.encap_decap_ns", overlay_encap_decap, _NS),
    ("lb.conga.choose_uplink_ns", lb_conga_choose_uplink, _NS),
    ("lb.ecmp.choose_uplink_ns", lb_ecmp_choose_uplink, _NS),
    ("transport.tcp.segment_ns", transport_tcp_segment, _NS),
    ("obs.tracer.emit_ns", obs_tracer_emit, _NS),
    ("runner.spec_hash_us", runner_spec_hash, _US),
    ("runner.point_pickle_us", runner_point_pickle, _US),
    ("runner.cache_put_us", runner_cache_put, _US),
    ("runner.cache_get_us", runner_cache_get, _US),
    ("fluid.flows_per_s", fluid_flows, None),
)
