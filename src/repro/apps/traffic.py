"""Traffic: the value a spec names and the generators that drive a run.

A run's traffic is data.  :class:`~repro.apps.spec.ExperimentSpec` carries
one frozen, hashable description in its ``traffic`` field, and
``run_live`` attaches it through the description's :meth:`attach`:

* :class:`PoissonTraffic` — the default and the paper's client-server
  generator (§5.2): every host runs a client that requests flows according
  to a Poisson process from randomly chosen servers under *other* leaves
  (so all generated traffic crosses the spine, stressing fabric load
  balancing), with flow sizes sampled from the spec's workload CDF.  Data
  flows from the chosen server back to the requesting client.  Load is
  defined relative to the fabric bisection: at load 1.0 each leaf's uplink
  capacity is fully utilized in expectation.  With the testbed's 2:1
  oversubscription this matches the paper's axis, where 100% load means
  saturated uplinks (not saturated host NICs).  With ``burst_bytes`` set,
  each sender's application releases its bytes in paced bursts (Fig. 12).
* :class:`IncastTraffic` — one client's striped requests (§5.3, Fig. 13).
* :class:`HdfsTraffic` — a replicated HDFS write job (§5.4, Fig. 14).

Whatever the shape, every flow is launched and accounted by one
:class:`TrafficStats` ledger, so records, arrivals, completions and the
loss-recovery totals mean the same thing for every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol

from repro.transport.tcp import FlowRecord, PacedSource, TcpFlow, TcpParams
from repro.units import megabytes, microseconds
from repro.workloads.distributions import FlowSizeDistribution

if TYPE_CHECKING:
    from repro.apps.experiment import SchemeSpec
    from repro.apps.spec import ExperimentSpec
    from repro.net.node import Host
    from repro.sim import Simulator
    from repro.switch.fabric import Fabric


class Flow(Protocol):
    """Anything start-able that eventually completes with an FCT."""

    def start(self) -> None: ...  # noqa: E704 - protocol stub

    @property
    def fct(self) -> int: ...  # noqa: E704 - protocol stub


FlowFactory = Callable[["Host", "Host", int, Callable[[Flow], None]], Flow]


def tcp_flow_factory(
    params: TcpParams = TcpParams(), pacing: PoissonTraffic | None = None
) -> FlowFactory:
    """Flows carried by a single TCP connection.

    With a ``pacing`` description whose ``burst_bytes`` is set, each flow's
    application releases its bytes in those bursts (a
    :class:`~repro.transport.tcp.PacedSource`).
    """
    return _tcp_factory(params, pacing, cc=None)


def dctcp_flow_factory(
    params: TcpParams = TcpParams(), pacing: PoissonTraffic | None = None
) -> FlowFactory:
    """Flows carried by DCTCP connections.

    Requires switches that CE-mark (a scheme or topology with an ECN
    threshold); without marking this degenerates to plain NewReno.
    ``pacing`` is as for :func:`tcp_flow_factory`.
    """
    from repro.transport.dctcp import DctcpCC

    return _tcp_factory(params, pacing, cc=DctcpCC)


def _tcp_factory(
    params: TcpParams, pacing: PoissonTraffic | None, cc: Callable[[], Any] | None
) -> FlowFactory:
    """One TCP connection per flow; ``cc`` builds its congestion control."""
    burst = None if pacing is None else pacing.burst_bytes

    def factory(src: "Host", dst: "Host", size: int, done: Callable) -> TcpFlow:
        source = None
        if burst is not None:
            source = PacedSource(src.sim, size, burst_bytes=burst, mean_gap=pacing.mean_gap)
        return TcpFlow(
            src.sim, src, dst, size, params=params, source=source,
            cc=None if cc is None else cc(), on_complete=done,
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
    """The one ledger of a run's flows, whatever generated them.

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

    def start_flow(
        self,
        fabric: "Fabric",
        flow_factory: FlowFactory,
        src: int,
        dst: int,
        size: int,
        done: Callable[[], None],
    ) -> None:
        """Launch one ``src`` → ``dst`` flow now and account for it.

        Its :class:`FlowRecord` lands in ``records`` when it completes,
        before ``done`` is called.
        """
        record = FlowRecord(
            flow_id=0,
            src=src,
            dst=dst,
            size=size,
            start_time=fabric.sim.now,
            fct=0,
            ideal_fct=fabric.ideal_fct(src, dst, size),
        )

        def complete(flow: Flow) -> None:
            record.fct = flow.fct
            self.records.append(record)
            self.completed += 1
            for sender in _flow_senders(flow):
                stats = sender.stats
                self.retransmissions += stats.retransmissions
                self.fast_retransmits += stats.fast_retransmits
                self.timeouts += stats.timeouts
            done()

        flow = flow_factory(fabric.host(src), fabric.host(dst), size, complete)
        self.arrivals += 1
        flow.start()


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
        self.stats.start_flow(
            self.fabric, self.flow_factory, server, client, size, self._flow_done
        )
        if self._remaining > 0:
            self._schedule_arrival(client)

    def _pick_server(self, client: int) -> int:
        client_leaf = self.fabric.leaf_of(client)
        other_leaves = [
            leaf.leaf_id
            for leaf in self.fabric.leaves
            if leaf.leaf_id != client_leaf
        ]
        leaf_id = other_leaves[self._rng.integers(len(other_leaves))]
        servers = self.fabric.hosts_under(leaf_id)
        return servers[self._rng.integers(len(servers))]

    def _flow_done(self) -> None:
        if self.finished and self.on_all_done is not None:
            self.on_all_done()

    @property
    def finished(self) -> bool:
        """All arrivals generated and all flows completed."""
        return self._remaining <= 0 and self.stats.unfinished == 0


# -- the traffic descriptions a spec carries ------------------------------------------
#
# Each is a frozen value (it hashes and pickles with the spec) whose
# ``attach`` builds the run's generator and returns it unstarted.  Every
# generator stops the simulator once its last flow completes.


@dataclass(frozen=True)
class PoissonTraffic:
    """Open-loop Poisson arrivals over the spec's workload CDF — the default.

    Reads the spec's ``workload``, ``load``, ``num_flows``, ``size_scale``
    and ``clients``.  A spec carrying the default hashes as if the
    ``traffic`` field did not exist.

    With ``burst_bytes`` set the senders are paced (Fig. 12): each flow's
    application releases ``burst_bytes`` every gap drawn uniformly from
    ``[0.5, 1.5] × mean_gap``; continuously backlogged senders have no
    flowlet gaps, which would reduce CONGA to per-flow decisions.  The
    scheme's transport does the pacing (``make_flow_factory(params,
    pacing=...)``); MPTCP's subflows share one connection buffer, so its
    connections run unpaced (DESIGN.md "Key modelling conventions").
    """

    burst_bytes: int | None = None
    mean_gap: int = microseconds(600)

    def __post_init__(self) -> None:
        if (self.burst_bytes is not None and self.burst_bytes < 1) or self.mean_gap < 1:
            raise ValueError("burst_bytes and mean_gap must be positive")

    def attach(
        self,
        sim: "Simulator",
        fabric: "Fabric",
        spec: "ExperimentSpec",
        scheme: "SchemeSpec",
        workload: FlowSizeDistribution,
    ) -> CrossRackTraffic:
        """The run's unstarted generator."""
        return CrossRackTraffic(
            sim,
            fabric,
            workload,
            spec.load,
            flow_factory=(
                scheme.make_flow_factory(spec.tcp_params)
                if self.burst_bytes is None
                else scheme.make_flow_factory(spec.tcp_params, pacing=self)
            ),
            num_flows=spec.num_flows,
            size_scale=spec.size_scale,
            clients=spec.clients,
            on_all_done=sim.stop,
        )


@dataclass(frozen=True)
class IncastTraffic:
    """Striped requests from host 0 to ``fan_in`` servers (Fig. 13).

    The servers are hosts 1..``fan_in``; each of the ``requests`` requests
    (issued back to back) asks every server for ``request_bytes / fan_in``.
    The spec's workload, load, flow count, size scale and clients play no
    part.
    """

    fan_in: int
    request_bytes: int = megabytes(10)
    requests: int = 3

    def __post_init__(self) -> None:
        for name in ("fan_in", "request_bytes", "requests"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")

    def attach(self, sim, fabric, spec, scheme, workload):
        """The run's unstarted :class:`~repro.apps.incast.IncastClient`."""
        from repro.apps.incast import IncastClient

        return IncastClient(
            sim,
            fabric,
            client=0,
            servers=sorted(fabric.hosts)[1 : self.fan_in + 1],
            flow_factory=scheme.make_flow_factory(spec.tcp_params),
            request_bytes=self.request_bytes,
            repeats=self.requests,
            on_done=lambda result: sim.stop(),
        )


@dataclass(frozen=True)
class HdfsTraffic:
    """A 3-way-replicated write job from every host (Fig. 14).

    Each host writes ``blocks_per_writer`` blocks of ``block_bytes``.  The
    spec's workload, load, flow count, size scale and clients play no part.
    """

    block_bytes: int = megabytes(8)
    blocks_per_writer: int = 1

    def __post_init__(self) -> None:
        if self.block_bytes < 1 or self.blocks_per_writer < 1:
            raise ValueError("block_bytes and blocks_per_writer must be at least 1")

    def attach(self, sim, fabric, spec, scheme, workload):
        """The run's unstarted :class:`~repro.apps.hdfs.HdfsWriteJob`."""
        from repro.apps.hdfs import HdfsWriteJob

        return HdfsWriteJob(
            sim,
            fabric,
            flow_factory=scheme.make_flow_factory(spec.tcp_params),
            block_bytes=self.block_bytes,
            blocks_per_writer=self.blocks_per_writer,
            on_done=lambda result: sim.stop(),
        )


#: What ``ExperimentSpec.traffic`` may hold.
Traffic = PoissonTraffic | IncastTraffic | HdfsTraffic


__all__ = [
    "CrossRackTraffic",
    "Flow",
    "FlowFactory",
    "HdfsTraffic",
    "IncastTraffic",
    "PoissonTraffic",
    "Traffic",
    "TrafficStats",
    "dctcp_flow_factory",
    "mptcp_flow_factory",
    "tcp_flow_factory",
]
