"""Flow-level (fluid) model of a Leaf-Spine fabric.

The motivating examples of §2.4 (Figures 2 and 3) are steady-state
arguments about *rates*, not packets.  This module reproduces them with a
fluid model: demands are splittable flows between leaf pairs, paths are the
two-hop leaf→spine→leaf routes, and three allocators mirror the schemes:

* :func:`ecmp_split` — equal split across paths (what hashing achieves in
  expectation over many flows), then TCP backpressure caps each path at its
  bottleneck capacity share;
* :func:`local_aware_split` — the §2.4 strawman: the source leaf equalizes
  *delivered* rate across its uplinks (that is the fixed point of moving
  traffic toward locally-idle links while TCP slows the capped paths);
* :func:`conga_split` — CONGA's fixed point: minimize the maximum link
  utilization (the bottleneck-game equilibrium of §6.1, computed here by
  best-response iteration).

Throughputs are then evaluated with max-min fair sharing per link, the
standard fluid abstraction of long-lived TCP flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence


@dataclass(frozen=True)
class FluidLink:
    """A directed link with a capacity (arbitrary consistent rate units)."""

    src: str
    dst: str
    capacity: float

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive: {self}")

    @property
    def key(self) -> tuple[str, str]:
        """Dictionary key for the link."""
        return (self.src, self.dst)


@dataclass(frozen=True)
class FluidDemand:
    """``rate`` units of traffic from ``src`` leaf to ``dst`` leaf."""

    src: str
    dst: str
    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"demand must be positive: {self}")


class FluidLeafSpine:
    """A Leaf-Spine graph for fluid analysis.

    Paths between two leaves are the 2-hop routes through each spine that
    has a link from the source leaf and to the destination leaf.  Asymmetry
    is expressed by giving links different capacities (or omitting them).
    """

    def __init__(self, links: list[FluidLink]) -> None:
        if not links:
            raise ValueError("need at least one link")
        self.links: dict[tuple[str, str], FluidLink] = {}
        for link in links:
            if link.key in self.links:
                raise ValueError(f"duplicate link {link.key}")
            self.links[link.key] = link
        self.leaves = sorted(
            {n for key in self.links for n in key if n.startswith("L")}
        )
        self.spines = sorted(
            {n for key in self.links for n in key if n.startswith("S")}
        )

    def paths(self, src: str, dst: str) -> list[tuple[str, ...]]:
        """All 2-hop paths (src, spine, dst) that exist in the graph."""
        found = []
        for spine in self.spines:
            if (src, spine) in self.links and (spine, dst) in self.links:
                found.append((src, spine, dst))
        if not found:
            raise ValueError(f"no path from {src} to {dst}")
        return found

    @staticmethod
    def path_links(path: tuple[str, ...]) -> list[tuple[str, str]]:
        """The (src, dst) link keys along a path."""
        return list(zip(path, path[1:]))


@dataclass
class FluidAllocation:
    """Per-demand path splits plus the derived link loads and throughputs."""

    network: FluidLeafSpine
    demands: list[FluidDemand]
    # splits[i][path] = offered rate of demand i on that path
    splits: list[dict[tuple[str, ...], float]] = field(default_factory=list)

    def link_loads(self) -> dict[tuple[str, str], float]:
        """Total offered rate per link."""
        loads = {key: 0.0 for key in self.network.links}
        for split in self.splits:
            for path, rate in split.items():
                for key in FluidLeafSpine.path_links(path):
                    loads[key] += rate
        return loads

    def max_utilization(self) -> float:
        """The network bottleneck B(f): max link load over capacity."""
        loads = self.link_loads()
        return max(
            loads[key] / link.capacity for key, link in self.network.links.items()
        )

    def delivered_throughput(self) -> list[float]:
        """Per-demand delivered rate under max-min fair sharing.

        Each path's offered rate is treated as one fluid "flow"; link
        bandwidth is shared max-min among the flows crossing it, except a
        flow never receives more than it offers (TCP cannot exceed the
        application's demand on that path).
        """
        flows = [
            (index, path, offered)
            for index, split in enumerate(self.splits)
            for path, offered in split.items()
            if offered > 0
        ]
        rates = water_fill(
            [FluidLeafSpine.path_links(path) for _index, path, _offered in flows],
            {key: link.capacity for key, link in self.network.links.items()},
            caps=[offered for _index, _path, offered in flows],
        )
        delivered = [0.0] * len(self.splits)
        for (index, _path, _offered), rate in zip(flows, rates):
            delivered[index] += rate
        return delivered

    def total_throughput(self) -> float:
        """Sum of delivered rates across demands."""
        return sum(self.delivered_throughput())


def water_fill(
    paths: Sequence[Sequence[Hashable]],
    capacity: Mapping[Hashable, float],
    caps: Sequence[float] | None = None,
) -> list[float]:
    """Progressive-filling max-min fair rates, one per path.

    ``paths[i]`` is the links flow ``i`` crosses, ``capacity`` each link's
    bandwidth, ``caps[i]`` the most flow ``i`` will take (its offered
    rate; ``None`` means no flow is capped).  Every round raises all
    unfrozen flows by the smallest per-link fair share — or the smallest
    headroom under a cap — and freezes the flows on links that share
    exhausts (relative ``1e-9``) and the flows that reached their cap
    (absolute ``1e-9``).  O(links x flows) per round.
    """
    remaining = dict(capacity)
    members: dict[Hashable, set[int]] = {}
    for index, links in enumerate(paths):
        for link in links:
            members.setdefault(link, set()).add(index)
    rates = [0.0] * len(paths)
    active = set(range(len(paths)))
    while active:
        users = {link: len(flows & active) for link, flows in members.items()}
        shares = {link: remaining[link] / n for link, n in users.items() if n}
        step = min(shares.values(), default=float("inf"))
        if caps is not None:
            step = min(step, min(caps[i] - rates[i] for i in active))
        if step == float("inf"):
            break
        frozen: set[int] = set()
        for link, share in shares.items():
            if share <= step * (1 + 1e-9):
                frozen |= members[link] & active
        for i in active:
            rates[i] += step
        for link, n in users.items():
            remaining[link] -= step * n
        if caps is not None:
            frozen |= {i for i in active if caps[i] - rates[i] <= 1e-9}
        active -= frozen or active  # nothing froze: numerical safety, stop
    return rates


# ---------------------------------------------------------------------------
# The three allocators.
# ---------------------------------------------------------------------------


def ecmp_split(
    network: FluidLeafSpine, demands: list[FluidDemand]
) -> FluidAllocation:
    """Equal split across the available paths (hashing in expectation)."""
    allocation = FluidAllocation(network, demands)
    for demand in demands:
        paths = network.paths(demand.src, demand.dst)
        share = demand.rate / len(paths)
        allocation.splits.append({path: share for path in paths})
    return allocation


def local_aware_split(
    network: FluidLeafSpine, demands: list[FluidDemand]
) -> FluidAllocation:
    """The §2.4 local-congestion strawman's fixed point.

    A local scheme moves flowlets toward the uplink whose *local* DRE reads
    lowest.  TCP caps the delivered rate of paths through remote
    bottlenecks; those uplinks then look idle locally, attracting yet more
    traffic until the delivered rate is equal on every uplink.  The fixed
    point is therefore: delivered rate r on each of the k uplinks, with r
    no larger than any path's bottleneck capacity share.
    """
    # Compute, per demand, the equal-rate fixed point: r = min over paths of
    # that path's achievable rate when all paths carry the same rate.  This
    # solver handles each demand independently, which matches the scenarios
    # of Figure 2 (single demand); for shared links the fixed point is
    # computed by iterating to convergence from the equal split.
    allocation = ecmp_split(network, demands)
    for _ in range(1000):
        # Evaluate per-path delivered rate under current splits.
        loads = allocation.link_loads()
        new_splits = []
        changed = False
        for demand, split in zip(demands, allocation.splits):
            paths = list(split)
            # Per-path cap: scale the path's rate by the worst over-utilized
            # link on it (TCP backpressure).
            delivered = {}
            for path in paths:
                scale = 1.0
                for key in FluidLeafSpine.path_links(path):
                    utilization = loads[key] / network.links[key].capacity
                    if utilization > 1.0:
                        scale = min(scale, 1.0 / utilization)
                delivered[path] = split[path] * scale
            # Local scheme: equalize delivered rate; total offered stays at
            # min(demand, k * min_delivered) because faster uplinks are
            # throttled down to the slowest by the balancing rule.
            slowest = min(delivered.values())
            target = min(demand.rate / len(paths), slowest)
            new_split = {path: target for path in paths}
            if any(abs(new_split[p] - split[p]) > 1e-9 for p in paths):
                changed = True
            new_splits.append(new_split)
        allocation.splits = new_splits
        if not changed:
            break
    return allocation


def conga_split(
    network: FluidLeafSpine,
    demands: list[FluidDemand],
    *,
    iterations: int = 2000,
    step: float = 0.02,
) -> FluidAllocation:
    """CONGA's fixed point: per-demand best-response on path bottlenecks.

    Each demand repeatedly shifts a small fraction of its traffic from its
    worst path (highest max-utilization) to its best, which is exactly
    CONGA's flowlet-by-flowlet rebalancing in the fluid limit.  The
    iteration converges to a Nash flow of the bottleneck routing game of
    §6.1; for single-demand scenarios like Figure 2 this equalizes path
    utilizations.
    """
    allocation = ecmp_split(network, demands)
    for _ in range(iterations):
        loads = allocation.link_loads()
        for demand, split in zip(demands, allocation.splits):
            paths = list(split)
            metric = {}
            for path in paths:
                metric[path] = max(
                    loads[key] / network.links[key].capacity
                    for key in FluidLeafSpine.path_links(path)
                )
            worst = max(paths, key=lambda p: (metric[p], split[p]))
            best = min(paths, key=lambda p: metric[p])
            if metric[worst] - metric[best] < 1e-9:
                continue
            # Move exactly enough to equalize the two paths' bottleneck
            # utilizations (first-order), clipped by the available traffic
            # and the configured step so shared links converge stably.
            worst_key = max(
                FluidLeafSpine.path_links(worst),
                key=lambda k: loads[k] / network.links[k].capacity,
            )
            best_key = max(
                FluidLeafSpine.path_links(best),
                key=lambda k: loads[k] / network.links[k].capacity,
            )
            c_worst = network.links[worst_key].capacity
            c_best = network.links[best_key].capacity
            equalizing = (metric[worst] - metric[best]) / (
                1.0 / c_worst + 1.0 / c_best
            )
            moved = min(split[worst], equalizing, step * demand.rate * 10)
            split[worst] -= moved
            split[best] += moved
            for key in FluidLeafSpine.path_links(worst):
                loads[key] -= moved
            for key in FluidLeafSpine.path_links(best):
                loads[key] += moved
    return allocation


# ---------------------------------------------------------------------------
# The concrete scenarios of Figures 2 and 3.
# ---------------------------------------------------------------------------


def figure2_network() -> FluidLeafSpine:
    """The asymmetric 2-leaf / 2-spine scenario of Figure 2.

    All links are 80 Gbps except (S1, L1), which lost half its capacity
    (e.g. one member of a 2×40 Gbps aggregate failed).
    """
    return FluidLeafSpine(
        [
            FluidLink("L0", "S0", 80.0),
            FluidLink("S0", "L1", 80.0),
            FluidLink("L0", "S1", 80.0),
            FluidLink("S1", "L1", 40.0),
        ]
    )


def figure2_demand() -> list[FluidDemand]:
    """100 Gbps of TCP traffic from L0 to L1."""
    return [FluidDemand("L0", "L1", 100.0)]


def figure3_network() -> FluidLeafSpine:
    """The 3-leaf / 2-spine scenario of Figure 3 (all links 40 Gbps).

    L0 connects only to S0 (its link to S1 is absent), which is what makes
    the right split for L1→L2 depend on how much L0→L2 traffic exists.
    """
    return FluidLeafSpine(
        [
            FluidLink("L0", "S0", 40.0),
            FluidLink("L1", "S0", 40.0),
            FluidLink("L1", "S1", 40.0),
            FluidLink("S0", "L2", 40.0),
            FluidLink("S1", "L2", 40.0),
        ]
    )


__all__ = [
    "FluidAllocation",
    "FluidDemand",
    "FluidLeafSpine",
    "FluidLink",
    "conga_split",
    "ecmp_split",
    "figure2_demand",
    "figure2_network",
    "figure3_network",
    "local_aware_split",
    "water_fill",
]
