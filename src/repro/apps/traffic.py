"""Open-loop empirical traffic generation (paper §5.2).

Reproduces the paper's client-server traffic generator: every host runs a
client that requests flows according to a Poisson process from randomly
chosen servers under *other* leaves (so all generated traffic crosses the
spine, stressing fabric load balancing), with flow sizes sampled from an
empirical distribution.  Data flows from the chosen server back to the
requesting client.

Load is defined relative to the fabric bisection: at load 1.0 each leaf's
uplink capacity is fully utilized in expectation.  With the testbed's 2:1
oversubscription this matches the paper's axis, where 100% load means
saturated uplinks (not saturated host NICs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Protocol

from repro.transport.tcp import FlowRecord, PacedSource, TcpFlow, TcpParams
from repro.units import microseconds
from repro.workloads.distributions import FlowSizeDistribution

if TYPE_CHECKING:
    from repro.net.node import Host
    from repro.sim import Simulator
    from repro.switch.fabric import Fabric


class Flow(Protocol):
    """Anything start-able that eventually completes with an FCT."""

    def start(self) -> None: ...  # noqa: E704 - protocol stub

    @property
    def fct(self) -> int: ...  # noqa: E704 - protocol stub


FlowFactory = Callable[["Host", "Host", int, Callable[[Flow], None]], Flow]


def tcp_flow_factory(params: TcpParams = TcpParams()) -> FlowFactory:
    """Flows carried by a single TCP connection."""

    def factory(src: "Host", dst: "Host", size: int, done: Callable) -> TcpFlow:
        return TcpFlow(src.sim, src, dst, size, params=params, on_complete=done)

    return factory


def bursty_tcp_flow_factory(
    params: TcpParams = TcpParams(),
    *,
    burst_bytes: int = 65_536,
    mean_gap: int = microseconds(600),
) -> FlowFactory:
    """TCP flows whose application releases data in paced bursts.

    Models the burstiness of production datacenter senders (paper 2.6.1):
    inter-burst gaps straddle the flowlet timeout, so flowlet-granular
    schemes get mid-flow rebalancing opportunities.  Used by the Figure 12
    load-balancing-efficiency experiment.
    """

    def factory(src: "Host", dst: "Host", size: int, done: Callable) -> TcpFlow:
        source = PacedSource(
            src.sim, size, burst_bytes=burst_bytes, mean_gap=mean_gap
        )
        return TcpFlow(
            src.sim, src, dst, size, params=params, source=source,
            on_complete=done,
        )

    return factory


def dctcp_flow_factory(params: TcpParams = TcpParams()) -> FlowFactory:
    """Flows carried by DCTCP connections.

    Requires a fabric built with ``ecn_threshold_bytes`` set so switches
    CE-mark; without marking this degenerates to plain NewReno.
    """
    from repro.transport.dctcp import DctcpCC

    def factory(src: "Host", dst: "Host", size: int, done: Callable) -> TcpFlow:
        return TcpFlow(
            src.sim, src, dst, size, params=params, cc=DctcpCC(),
            on_complete=done,
        )

    return factory


def mptcp_flow_factory(
    params: TcpParams = TcpParams(), subflows: int | None = None
) -> FlowFactory:
    """Flows carried by MPTCP connections with ``subflows`` subflows.

    ``None`` means :data:`repro.transport.mptcp.DEFAULT_SUBFLOWS`.
    """
    from repro.transport.mptcp import DEFAULT_SUBFLOWS, MptcpConnection

    if subflows is None:
        subflows = DEFAULT_SUBFLOWS

    def factory(
        src: "Host", dst: "Host", size: int, done: Callable
    ) -> MptcpConnection:
        return MptcpConnection(
            src.sim, src, dst, size,
            num_subflows=subflows, params=params, on_complete=done,
        )

    return factory


@dataclass
class TrafficStats:
    """Aggregate outcome of a traffic run.

    ``retransmissions`` / ``fast_retransmits`` / ``timeouts`` sum the
    sender-side loss-recovery counters of *completed* flows — the
    degradation signal the fault-plane analysis reports alongside goodput
    (flows still in recovery at the deadline show up in ``unfinished``
    instead).
    """

    records: list[FlowRecord] = field(default_factory=list)
    arrivals: int = 0
    completed: int = 0
    retransmissions: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0

    @property
    def unfinished(self) -> int:
        """Flows that had arrived but did not finish before the deadline."""
        return self.arrivals - self.completed


def _flow_senders(flow: Flow):
    """The TCP sender objects behind ``flow`` (one, or MPTCP's subflows)."""
    sender = getattr(flow, "sender", None)
    if sender is not None:
        return (sender,)
    return tuple(getattr(flow, "subflows", ()))


class CrossRackTraffic:
    """Poisson open-loop cross-rack traffic on a Leaf-Spine fabric.

    Parameters
    ----------
    load:
        Offered load as a fraction of each leaf's uplink bisection capacity.
    num_flows:
        Total flow arrivals to generate across all clients.
    size_scale:
        Multiplier applied to sampled flow sizes.  Used to scale experiments
        down for simulation runtime while preserving the *shape* of the
        distribution (and hence the coefficient of variation that §6.2
        shows governs load balancing difficulty).
    """

    def __init__(
        self,
        sim: "Simulator",
        fabric: "Fabric",
        workload: FlowSizeDistribution,
        load: float,
        *,
        flow_factory: FlowFactory,
        num_flows: int,
        size_scale: float = 1.0,
        clients: Iterable[int] | None = None,
        stream: str = "traffic",
        on_all_done: Callable[[], None] | None = None,
    ) -> None:
        if not 0.0 < load:
            raise ValueError(f"load must be positive, got {load}")
        if num_flows < 1:
            raise ValueError(f"need at least one flow, got {num_flows}")
        if len(fabric.leaves) < 2:
            raise ValueError("cross-rack traffic needs at least two leaves")
        self.sim = sim
        self.fabric = fabric
        self.workload = workload
        self.load = load
        self.flow_factory = flow_factory
        self.num_flows = num_flows
        self.size_scale = size_scale
        self.on_all_done = on_all_done
        self._rng = sim.rng(stream)
        self.stats = TrafficStats()
        self._remaining = num_flows
        self._active = 0

        # Per-client arrival rate from the load definition: at load 1.0 the
        # expected server->client traffic into each leaf equals its uplink
        # capacity.  ``clients`` restricts which hosts request flows (e.g.
        # only hosts under leaf 1 to load one direction, as in Fig. 11's
        # hotspot analysis); by default every host is a client.
        self._clients = sorted(clients) if clients is not None else sorted(fabric.hosts)
        if not self._clients:
            raise ValueError("need at least one client host")
        leaf0 = fabric.leaves[0]
        uplink_capacity = sum(port.rate_bps for port in leaf0.uplinks)
        clients_per_leaf = max(
            1,
            len(self._clients)
            // len({fabric.leaf_of(c) for c in self._clients}),
        )
        per_client_bps = load * uplink_capacity / clients_per_leaf
        mean_size = workload.mean() * size_scale
        self._per_client_rate = per_client_bps / (8.0 * mean_size)  # flows/s

    def start(self) -> None:
        """Schedule the first arrival at every client."""
        for client in self._clients:
            self._schedule_arrival(client)

    def _schedule_arrival(self, client: int) -> None:
        gap_seconds = self._rng.exponential(1.0 / self._per_client_rate)
        # Bound method + arg slot instead of a closure: keeps the traffic
        # generator picklable and the per-arrival path allocation-free.
        self.sim.schedule(max(1, round(gap_seconds * 1e9)), self._arrive, client)

    def _arrive(self, client: int) -> None:
        if self._remaining <= 0:
            return
        self._remaining -= 1
        server = self._pick_server(client)
        size = max(1, round(self.workload.sample(self._rng) * self.size_scale))
        src_host = self.fabric.host(server)
        dst_host = self.fabric.host(client)
        started_at = self.sim.now
        record = FlowRecord(
            flow_id=0,
            src=server,
            dst=client,
            size=size,
            start_time=started_at,
            fct=0,
            ideal_fct=self.fabric.ideal_fct(server, client, size),
        )
        flow = self.flow_factory(
            src_host, dst_host, size, lambda f, r=record: self._complete(f, r)
        )
        self._active += 1
        self.stats.arrivals += 1
        flow.start()
        if self._remaining > 0:
            self._schedule_arrival(client)

    def _pick_server(self, client: int) -> int:
        client_leaf = self.fabric.leaf_of(client)
        other_leaves = [
            leaf.leaf_id
            for leaf in self.fabric.leaves
            if leaf.leaf_id != client_leaf
        ]
        leaf_id = other_leaves[int(self._rng.integers(len(other_leaves)))]
        servers = self.fabric.hosts_under(leaf_id)
        return servers[int(self._rng.integers(len(servers)))]

    def _complete(self, flow: Flow, record: FlowRecord) -> None:
        record.fct = flow.fct
        self.stats.records.append(record)
        self.stats.completed += 1
        for sender in _flow_senders(flow):
            stats = sender.stats
            self.stats.retransmissions += stats.retransmissions
            self.stats.fast_retransmits += stats.fast_retransmits
            self.stats.timeouts += stats.timeouts
        self._active -= 1
        if self.finished and self.on_all_done is not None:
            self.on_all_done()

    @property
    def finished(self) -> bool:
        """All arrivals generated and all flows completed."""
        return self._remaining <= 0 and self._active == 0


__all__ = [
    "CrossRackTraffic",
    "Flow",
    "FlowFactory",
    "TrafficStats",
    "mptcp_flow_factory",
    "tcp_flow_factory",
]
