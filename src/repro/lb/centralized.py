"""A Hedera-style centralized flow scheduler (the paper's design-space foil).

§2.2 argues distributed load balancing beats centralized scheduling in
datacenters because traffic is too volatile for a controller's reaction
time: "the Hedera scheduler runs every 5 seconds; it would need to run
every 100 ms to approach the performance of a distributed solution".  To
make that argument testable, this module implements the centralized design
point faithfully enough to measure its reaction-time sensitivity:

* every leaf runs a :class:`CentralizedSelector` — ECMP by default, but
  honouring per-flow *pins* installed by the controller, and keeping byte
  counters per flow for elephant detection (Hedera detects flows exceeding
  10% of NIC rate);
* a :class:`CentralizedScheduler` wakes every ``interval``, collects the
  elephants fabric-wide, estimates their demands from the observed bytes,
  and runs global first-fit: largest elephant first, each is pinned to the
  uplink whose 2-hop path (leaf uplink + spine's downlinks toward the
  destination leaf) has the most spare estimated capacity.

The design-space claims sweep the period (the topology config's
``controller_period``) to reproduce the argument: a controller at 100 ms is
no better than ECMP for flows that live less than its period, while
millisecond-scale rescheduling approaches CONGA.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.params import DEFAULT_CONTROLLER_PERIOD
from repro.lb.base import UplinkSelector
from repro.lb.ecmp import ecmp_hash
from repro.net.packet import Packet
from repro.sim.kernel import PeriodicTimer

if TYPE_CHECKING:
    from repro.sim import Simulator
    from repro.switch.fabric import Fabric
    from repro.switch.leaf import LeafSwitch


class CentralizedSelector(UplinkSelector):
    """ECMP plus controller-installed per-flow pins."""

    name = "central"
    reads_congestion = False

    def __init__(self, leaf: "LeafSwitch") -> None:
        super().__init__(leaf)
        self.pinned: dict[tuple, int] = {}
        self.flow_bytes: dict[tuple, int] = {}
        self.flow_dst_leaf: dict[tuple, int] = {}

    def choose_uplink(self, packet: Packet, dst_leaf: int, candidates: list[int]) -> int:
        key = packet.five_tuple
        self.flow_bytes[key] = self.flow_bytes.get(key, 0) + packet.size
        self.flow_dst_leaf[key] = dst_leaf
        pin = self.pinned.get(key)
        if pin is not None and pin in candidates:
            return pin
        index = ecmp_hash(key, salt=self.leaf.leaf_id)
        return candidates[index % len(candidates)]

    def drain_counters(self) -> dict[tuple, tuple[int, int]]:
        """Return and reset {flow: (bytes since last drain, dst leaf)}."""
        observed = {
            key: (size, self.flow_dst_leaf[key])
            for key, size in sorted(self.flow_bytes.items())
        }
        self.flow_bytes.clear()
        self.flow_dst_leaf.clear()
        return observed


class CentralizedScheduler:
    """Periodically re-pins elephant flows with global first-fit.

    Parameters
    ----------
    interval:
        Controller period.  Hedera's published deployment used 5 s; the
        paper's argument is about how small this must get.
    elephant_fraction:
        A flow is an elephant if its observed rate over the last interval
        exceeds this fraction of the host access rate (Hedera uses 10%).
    """

    def __init__(
        self,
        sim: "Simulator",
        fabric: "Fabric",
        *,
        interval: int = DEFAULT_CONTROLLER_PERIOD,
        elephant_fraction: float = 0.1,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if not 0.0 < elephant_fraction <= 1.0:
            raise ValueError(f"bad elephant fraction {elephant_fraction}")
        self.sim = sim
        self.fabric = fabric
        self.interval = interval
        self.elephant_fraction = elephant_fraction
        for leaf in fabric.leaves:
            if not isinstance(leaf.selector, CentralizedSelector):
                raise ValueError(
                    f"{leaf.name} does not run a CentralizedSelector"
                )
        self.rounds = 0
        self.pins_installed = 0
        self._timer = PeriodicTimer(sim, interval, self._reschedule, start=True)

    def stop(self) -> None:
        """Stop the controller."""
        self._timer.stop()

    # -- scheduling ----------------------------------------------------------------

    def _reschedule(self) -> None:
        self.rounds += 1
        elephants: list[tuple[int, "LeafSwitch", tuple, int]] = []
        previous_pins: dict[tuple[int, tuple], int] = {}
        for leaf in self.fabric.leaves:
            selector = leaf.selector
            assert isinstance(selector, CentralizedSelector)
            for key, pin in sorted(selector.pinned.items()):
                previous_pins[(leaf.leaf_id, key)] = pin
            selector.pinned.clear()
            host_rate = min(
                self.fabric.hosts[h].nic.rate_bps
                for h in self.fabric.hosts_under(leaf.leaf_id)
            )
            threshold_bytes = (
                self.elephant_fraction * host_rate * self.interval / (8 * 1e9)
            )
            # Sorted by flow key: ties in the first-fit order below must not
            # depend on the order flows first sent a packet this interval.
            for key, (size, dst_leaf) in sorted(selector.drain_counters().items()):
                if size >= threshold_bytes:
                    elephants.append((size, leaf, key, dst_leaf))
        if not elephants:
            return
        # Hedera's *natural demand* estimation: an elephant's achieved rate
        # always fits whatever bottleneck it is squeezed into, so placement
        # by observed rate never moves anything.  Estimate instead what the
        # flow would get if only its source NIC constrained it: the NIC rate
        # max-min shared among that host's elephants.
        per_source: dict[int, int] = {}
        for _size, _leaf, key, _dst in elephants:
            per_source[key[0]] = per_source.get(key[0], 0) + 1
        # Largest observed first (greedy first-fit order).
        elephants.sort(key=lambda item: -item[0])
        uplink_load: dict[tuple[int, int], float] = {}
        spine_load: dict[tuple[int, int], float] = {}
        for size, leaf, key, dst_leaf in elephants:
            observed = size * 8 * 1e9 / self.interval
            source_host = self.fabric.hosts.get(key[0])
            if source_host is not None:
                natural = source_host.nic.rate_bps / per_source[key[0]]
            else:
                natural = observed
            rate = max(observed, natural)
            candidates = leaf.candidate_uplinks(dst_leaf)
            if not candidates:
                continue
            def headroom_of(uplink: int) -> float:
                spine = leaf.uplink_spine[uplink]
                up_capacity = leaf.uplinks[uplink].rate_bps
                down_ports = spine.ports_to_leaf(dst_leaf)
                down_capacity = sum(spine.ports[i].rate_bps for i in down_ports)
                return min(
                    up_capacity - uplink_load.get((leaf.leaf_id, uplink), 0.0),
                    down_capacity
                    - spine_load.get((spine.spine_id, dst_leaf), 0.0),
                )

            # Placement stability: keep the current pin while its path still
            # fits the demand — moving a live flow reorders its packets, so
            # Hedera only migrates flows off overloaded paths.
            best = previous_pins.get((leaf.leaf_id, key))
            if best not in candidates or headroom_of(best) < rate:
                best = max(candidates, key=headroom_of)
            spine = leaf.uplink_spine[best]
            uplink_load[(leaf.leaf_id, best)] = (
                uplink_load.get((leaf.leaf_id, best), 0.0) + rate
            )
            spine_load[(spine.spine_id, dst_leaf)] = (
                spine_load.get((spine.spine_id, dst_leaf), 0.0) + rate
            )
            selector = leaf.selector
            assert isinstance(selector, CentralizedSelector)
            selector.pinned[key] = best
            self.pins_installed += 1


__all__ = ["CentralizedScheduler", "CentralizedSelector"]
