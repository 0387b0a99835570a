"""Dynamic flow-level simulator for full-scale experiments.

The packet-level simulator is exact but must scale experiments down (fewer
hosts, smaller flows) to run in seconds.  This module adds the standard
*flow-level* abstraction used for large datacenter studies: flows arrive by
a Poisson process, each is assigned a 2-hop path by the scheme under test,
and at any instant every active flow transmits at its **max-min fair**
share of the links it crosses.  The simulation advances from event to event
(arrival or earliest completion), recomputing the rate allocation each
time.

This abstracts away packets, TCP dynamics, and queues — what remains is
exactly the *placement* quality of the load balancing decision, evaluated
at the paper's true scale: the 64-host testbed with unscaled flow sizes
runs in seconds.  Scheme behaviour at this level:

* ``ecmp`` — hash the flow to an uplink (static);
* ``conga`` — pick the uplink minimizing the maximum utilization along the
  path, i.e. CONGA's decision rule with perfect (un-quantized, un-delayed)
  congestion information and one decision per flow.  This is the model of
  §6.1 and an upper bound on what CONGA-Flow can achieve.

The FCT of a flow is its completion time under the evolving max-min
allocation, normalized against the idle-network transfer time.

Every draw — arrival gaps, sizes, endpoints, CONGA's tie order — comes
from one :class:`~repro.sim.pcg64.PCG64Stream`, numpy's
``default_rng(seed)`` stream in plain Python, so a flow-level run loads
no numpy.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from repro.fluid.model import water_fill
from repro.net.hashing import stable_hash
from repro.sim.pcg64 import PCG64Stream
from repro.topology.leafspine import LeafSpineConfig
from repro.workloads.distributions import FlowSizeDistribution

#: Link identifiers: ("acc-up", host) / ("acc-down", host) are access links,
#: ("up", leaf, uplink) a leaf uplink, ("down", spine, leaf) the aggregate
#: spine->leaf capacity.
LinkId = tuple


@dataclass
class ActiveFlow:
    """A flow in flight: remaining bytes plus its (fixed) path links."""

    flow_id: int
    src: int
    dst: int
    size: int
    remaining: float
    links: tuple[LinkId, ...]
    started_at: float
    rate: float = 0.0


@dataclass
class CompletedFlow:
    """Completion record with the idle-network baseline."""

    flow_id: int
    src: int
    dst: int
    size: int
    fct: float
    ideal_fct: float

    @property
    def normalized_fct(self) -> float:
        """FCT over the idle-network optimum."""
        return self.fct / self.ideal_fct


class FlowLevelFabric:
    """Capacity bookkeeping for a Leaf-Spine fabric at flow granularity."""

    def __init__(self, config: LeafSpineConfig) -> None:
        self.config = config
        self.capacity: dict[LinkId, float] = {}
        hosts = config.num_leaves * config.hosts_per_leaf
        for host in range(hosts):
            self.capacity[("acc-up", host)] = float(config.host_rate_bps)
            self.capacity[("acc-down", host)] = float(config.host_rate_bps)
        for leaf in range(config.num_leaves):
            for uplink in range(config.uplinks_per_leaf):
                self.capacity[("up", leaf, uplink)] = float(
                    config.fabric_rate_bps
                )
        for spine in range(config.num_spines):
            for leaf in range(config.num_leaves):
                self.capacity[("down", spine, leaf)] = float(
                    config.links_per_pair * config.fabric_rate_bps
                )

    def leaf_of(self, host: int) -> int:
        """The leaf serving ``host``."""
        return host // self.config.hosts_per_leaf

    def spine_of_uplink(self, uplink: int) -> int:
        """The spine an uplink index points at (pod-major ordering)."""
        return uplink // self.config.links_per_pair

    def fail_link(self, leaf: int, spine: int, which: int = 0) -> None:
        """Remove one parallel link of a leaf-spine pair (Figure 7b)."""
        uplink = spine * self.config.links_per_pair + which
        key = ("up", leaf, uplink)
        if key not in self.capacity:
            raise ValueError(f"no such uplink: leaf {leaf} uplink {uplink}")
        del self.capacity[key]
        down = ("down", spine, leaf)
        self.capacity[down] -= float(self.config.fabric_rate_bps)
        if self.capacity[down] <= 0:
            del self.capacity[down]

    def candidate_uplinks(self, src_leaf: int, dst_leaf: int) -> list[int]:
        """Uplinks at ``src_leaf`` with a surviving path to ``dst_leaf``."""
        found = []
        for uplink in range(self.config.uplinks_per_leaf):
            if ("up", src_leaf, uplink) not in self.capacity:
                continue
            spine = self.spine_of_uplink(uplink)
            if ("down", spine, dst_leaf) in self.capacity:
                found.append(uplink)
        return found

    def path_links(self, src: int, dst: int, uplink: int) -> tuple[LinkId, ...]:
        """The link set of host->host traffic via ``uplink``."""
        src_leaf, dst_leaf = self.leaf_of(src), self.leaf_of(dst)
        if src_leaf == dst_leaf:
            return (("acc-up", src), ("acc-down", dst))
        spine = self.spine_of_uplink(uplink)
        return (
            ("acc-up", src),
            ("up", src_leaf, uplink),
            ("down", spine, dst_leaf),
            ("acc-down", dst),
        )

    def ideal_fct(self, src: int, dst: int, size: int) -> float:
        """Idle-network transfer time (seconds)."""
        links = self.path_links(src, dst, uplink=0)
        bottleneck = min(
            self.capacity.get(link, float(self.config.fabric_rate_bps))
            for link in links
            if link[0].startswith("acc")
        )
        return size * 8.0 / bottleneck


def max_min_rates(
    flows: list[ActiveFlow], capacity: dict[LinkId, float]
) -> None:
    """Assign each flow its max-min fair rate, in place (``flow.rate``).

    The uncapped case of :func:`repro.fluid.model.water_fill`.
    """
    rates = water_fill([flow.links for flow in flows], capacity)
    for flow, rate in zip(flows, rates):
        flow.rate = rate


class FlowLevelSimulation:
    """Event-driven flow-level run of one (scheme, workload, load) point."""

    def __init__(
        self,
        config: LeafSpineConfig,
        workload: FlowSizeDistribution,
        load: float,
        *,
        scheme: str = "conga",
        num_flows: int = 2000,
        seed: int = 1,
        failed_links: list[tuple[int, int, int]] | None = None,
        clients: list[int] | None = None,
    ) -> None:
        if scheme not in ("ecmp", "conga"):
            raise ValueError(f"unknown flow-level scheme {scheme!r}")
        if not 0 < load:
            raise ValueError(f"load must be positive, got {load}")
        try:
            num_flows = operator.index(num_flows)
        except TypeError:
            raise TypeError(f"num_flows must be an integer, got {num_flows!r}") from None
        if num_flows < 0:
            raise ValueError(f"num_flows must be non-negative, got {num_flows}")
        self.fabric = FlowLevelFabric(config)
        for leaf, spine, which in failed_links or []:
            self.fabric.fail_link(leaf, spine, which)
        self.workload = workload
        self.load = load
        self.scheme = scheme
        self.num_flows = num_flows
        self.rng = PCG64Stream(seed)
        hosts = config.num_leaves * config.hosts_per_leaf
        self.clients = sorted(clients) if clients is not None else list(range(hosts))
        self.completed: list[CompletedFlow] = []
        self._ids = itertools.count(1)

        uplink_capacity = config.leaf_uplink_capacity_bps
        clients_per_leaf = max(
            1, len(self.clients) // len({self.fabric.leaf_of(c) for c in self.clients})
        )
        per_client_bps = load * uplink_capacity / clients_per_leaf
        self.arrival_rate = (
            per_client_bps * len(self.clients) / (8.0 * workload.mean())
        )

    # -- placement -----------------------------------------------------------------

    def _place(self, src: int, dst: int, flow_id: int,
               active: list[ActiveFlow]) -> tuple[LinkId, ...]:
        src_leaf, dst_leaf = self.fabric.leaf_of(src), self.fabric.leaf_of(dst)
        if src_leaf == dst_leaf:
            return self.fabric.path_links(src, dst, uplink=0)
        candidates = self.fabric.candidate_uplinks(src_leaf, dst_leaf)
        if not candidates:
            raise RuntimeError(f"no path from leaf {src_leaf} to {dst_leaf}")
        if self.scheme == "ecmp":
            key = stable_hash((src, dst, flow_id, 80, "tcp"), salt=src_leaf)
            choice = candidates[key % len(candidates)]
        else:
            # CONGA: minimize the max utilization along the candidate path,
            # computed from the current offered load (rates of active flows).
            loads: dict[LinkId, float] = {}
            for flow in active:
                for link in flow.links:
                    loads[link] = loads.get(link, 0.0) + flow.rate
            best_metric, best = None, None
            order = self.rng.permutation(len(candidates))
            for position in order:
                uplink = candidates[int(position)]
                links = self.fabric.path_links(src, dst, uplink)
                metric = max(
                    loads.get(link, 0.0) / self.fabric.capacity[link]
                    for link in links
                    if not link[0].startswith("acc")
                )
                if best_metric is None or metric < best_metric:
                    best_metric, best = metric, uplink
            choice = best
        return self.fabric.path_links(src, dst, choice)

    # -- main loop -------------------------------------------------------------------

    def draw_arrivals_and_sizes(self) -> tuple[list[float], list[int]]:
        """Every flow's arrival time, then every flow's size, from :attr:`rng`.

        One draw at a time, summed and rounded as numpy's
        ``cumsum(exponential(size=n))`` and
        :meth:`~repro.workloads.FlowSizeDistribution.sample_many` do.
        """
        mean_gap = 1.0 / self.arrival_rate
        arrivals = list(itertools.accumulate(
            self.rng.exponential(mean_gap) for _ in range(self.num_flows)
        ))
        interp = self.workload.interp
        sizes = [
            max(1, int(interp(self.rng.uniform())))
            for _ in range(self.num_flows)
        ]
        return arrivals, sizes

    def run(self) -> list[CompletedFlow]:
        """Run to completion of all flows; returns the completion records."""
        arrivals, sizes = self.draw_arrivals_and_sizes()
        active: list[ActiveFlow] = []
        now = 0.0
        next_arrival = 0
        while active or next_arrival < self.num_flows:
            max_min_rates(active, self.fabric.capacity)
            # Earliest completion among active flows.
            completion_at = None
            completing = None
            for flow in active:
                if flow.rate <= 0:
                    continue
                eta = now + flow.remaining * 8.0 / flow.rate
                if completion_at is None or eta < completion_at:
                    completion_at, completing = eta, flow
            arrival_at = (
                arrivals[next_arrival] if next_arrival < self.num_flows else None
            )
            if arrival_at is not None and (
                completion_at is None or arrival_at <= completion_at
            ):
                elapsed = arrival_at - now
                self._drain(active, elapsed)
                now = arrival_at
                active.append(self._spawn(next_arrival, sizes, now, active))
                next_arrival += 1
            else:
                assert completing is not None and completion_at is not None
                elapsed = completion_at - now
                self._drain(active, elapsed)
                now = completion_at
                active.remove(completing)
                self.completed.append(
                    CompletedFlow(
                        flow_id=completing.flow_id,
                        src=completing.src,
                        dst=completing.dst,
                        size=completing.size,
                        fct=now - completing.started_at,
                        ideal_fct=self.fabric.ideal_fct(
                            completing.src, completing.dst, completing.size
                        ),
                    )
                )
        return self.completed

    def _spawn(
        self, index: int, sizes: list[int], now: float,
        active: list[ActiveFlow],
    ) -> ActiveFlow:
        client = self.clients[int(self.rng.integers(len(self.clients)))]
        client_leaf = self.fabric.leaf_of(client)
        other = [
            leaf
            for leaf in range(self.fabric.config.num_leaves)
            if leaf != client_leaf
        ]
        server_leaf = other[int(self.rng.integers(len(other)))]
        per_leaf = self.fabric.config.hosts_per_leaf
        server = server_leaf * per_leaf + int(self.rng.integers(per_leaf))
        size = sizes[index]
        flow_id = next(self._ids)
        # Data flows server -> client, as in the paper's traffic generator.
        links = self._place(server, client, flow_id, active)
        return ActiveFlow(
            flow_id=flow_id,
            src=server,
            dst=client,
            size=size,
            remaining=float(size),
            links=links,
            started_at=now,
        )

    @staticmethod
    def _drain(active: list[ActiveFlow], elapsed: float) -> None:
        if elapsed <= 0:
            return
        for flow in active:
            flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed / 8.0)


def run_flow_level(
    config: LeafSpineConfig,
    workload: FlowSizeDistribution,
    load: float,
    **kwargs,
) -> list[CompletedFlow]:
    """Convenience wrapper: build, run, and return completion records."""
    simulation = FlowLevelSimulation(config, workload, load, **kwargs)
    return simulation.run()


__all__ = [
    "ActiveFlow",
    "CompletedFlow",
    "FlowLevelFabric",
    "FlowLevelSimulation",
    "max_min_rates",
    "run_flow_level",
]
