"""Incast micro-benchmark (paper §5.3, Figure 13).

A client repeatedly requests a file striped across ``fan_in`` servers; all
servers respond with ``total_bytes / fan_in`` simultaneously, converging on
the client's single access link.  The metric is the *effective throughput*:
request size divided by the time until the slowest response finishes,
expressed as a percentage of the client's line rate.

The paper's finding: MPTCP's 8 subflows per response multiply the number of
contending windows at the edge, collapsing throughput (to as little as 5%
with jumbo frames and 200 ms minRTO), while CONGA+TCP stays high because it
leaves TCP untouched.  The experiment "does not stress fabric load
balancing" — the bottleneck is the edge — so the transport is the variable.
A spec runs it through :class:`repro.apps.traffic.IncastTraffic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.apps.traffic import FlowFactory, TrafficStats
from repro.topology.leafspine import scaled_testbed
from repro.units import megabytes, to_seconds

if TYPE_CHECKING:
    from repro.apps.spec import PointResult
    from repro.sim import Simulator
    from repro.switch.fabric import Fabric
    from repro.transport.tcp import FlowRecord


@dataclass
class IncastResult:
    """Outcome of an Incast run."""

    fan_in: int
    request_bytes: int
    request_durations: list[int] = field(default_factory=list)

    @property
    def mean_duration(self) -> float:
        """Mean request completion time in ticks."""
        if not self.request_durations:
            raise ValueError("no completed requests")
        return sum(self.request_durations) / len(self.request_durations)

    def effective_throughput_bps(self) -> float:
        """Mean goodput across requests, bits per second."""
        return self.request_bytes * 8 / to_seconds(round(self.mean_duration))

    def throughput_percent(self, line_rate_bps: int) -> float:
        """Mean goodput as a percent of the client access line rate."""
        return 100.0 * self.effective_throughput_bps() / line_rate_bps

    @classmethod
    def from_records(
        cls, fan_in: int, request_bytes: int, records: Iterable["FlowRecord"]
    ) -> "IncastResult":
        """The requests whose ``fan_in`` stripes all completed, in order.

        A request's stripes start together, so its start time names it and
        its duration runs to its slowest stripe's end.
        """
        ends: dict[int, int] = {}
        stripes: dict[int, int] = {}
        for record in records:
            start = record.start_time
            ends[start] = max(ends.get(start, start), start + record.fct)
            stripes[start] = stripes.get(start, 0) + 1
        return cls(
            fan_in=fan_in,
            request_bytes=request_bytes,
            request_durations=[
                ends[start] - start for start in sorted(ends) if stripes[start] == fan_in
            ],
        )


class IncastClient:
    """Issues synchronized striped requests (the classic Incast pattern).

    Each stripe is one flow in ``stats``; :attr:`result` is derived from
    those records.
    """

    def __init__(
        self,
        sim: "Simulator",
        fabric: "Fabric",
        client: int,
        servers: list[int],
        *,
        flow_factory: FlowFactory,
        request_bytes: int = megabytes(10),
        repeats: int = 5,
        on_done: Callable[[IncastResult], None] | None = None,
    ) -> None:
        if not servers:
            raise ValueError("need at least one server")
        if client in servers:
            raise ValueError("client cannot be one of its servers")
        self.sim = sim
        self.fabric = fabric
        self.client = client
        self.servers = list(servers)
        self.flow_factory = flow_factory
        self.request_bytes = request_bytes
        self.repeats = repeats
        self.on_done = on_done
        self.stats = TrafficStats()
        self._outstanding = 0
        self._requests_done = 0

    def start(self) -> None:
        """Issue the first request."""
        self._issue_request()

    def _issue_request(self) -> None:
        stripe = max(1, self.request_bytes // len(self.servers))
        self._outstanding = len(self.servers)
        for server in self.servers:
            self.stats.start_flow(
                self.fabric, self.flow_factory, server, self.client, stripe,
                self._stripe_done,
            )

    def _stripe_done(self) -> None:
        self._outstanding -= 1
        if self._outstanding > 0:
            return
        self._requests_done += 1
        if self._requests_done < self.repeats:
            self._issue_request()
        elif self.on_done is not None:
            self.on_done(self.result)

    @property
    def result(self) -> IncastResult:
        """The completed requests so far."""
        return IncastResult.from_records(
            len(self.servers), self.request_bytes, self.stats.records
        )

    @property
    def finished(self) -> bool:
        """All requests completed."""
        return self._requests_done >= self.repeats


def incast_throughput_percent(point: "PointResult") -> float:
    """An incast point's effective throughput, % of the client's line rate.

    0.0 when a request did not finish before the deadline (the collapse the
    figures plot at zero).
    """
    if point.unfinished:
        return 0.0
    incast = point.spec.traffic
    config = point.spec.config if point.spec.config is not None else scaled_testbed()
    result = IncastResult.from_records(incast.fan_in, incast.request_bytes, point.records)
    return result.throughput_percent(config.host_rate_bps)


__all__ = ["IncastClient", "IncastResult", "incast_throughput_percent"]
