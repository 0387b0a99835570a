"""Deterministic sim-time telemetry: time-binned series over a run.

The evaluation's most convincing artifacts are *dynamics* — DRE estimates
tracking congestion within RTTs (Fig. 4), goodput draining and recovering
around a failure (Fig. 11), queues breathing at the hotspot (Fig. 16).
End-of-run scalars cannot show any of that, so this module adds a sampling
plane that rides the simulation clock itself:

* a :class:`TimelineCollector` arms one kernel :class:`PeriodicTimer` and,
  on every tick, reads — *without mutating* — per-port utilization,
  residual capacity, queue occupancy, per-uplink DRE estimates, flowlet
  decision / fault-reroute / loss-recovery rates, and goodput;
* every series lives in a bounded :class:`DecimatedSeries`, so week-long
  simulated runs keep constant memory while the curves stay faithful;
* :meth:`TimelineCollector.snapshot` freezes everything into a picklable
  :class:`Timeline` with a sha256 :meth:`~Timeline.digest`, which rides
  ``PointResult.timeline`` across process pools and the on-disk cache;
* it is the run's only sampler: a spec's queue and imbalance monitors are
  views cut from a collector's :class:`Timeline`
  (:mod:`repro.analysis.monitors`).

Determinism contract: sampling must never perturb the run.  The collector
draws no randomness (its timer takes no jitter stream), emits no trace
events, and reads DRE registers through :meth:`repro.core.dre.DRE.peek`,
which applies decay arithmetically *without* writing back — splitting one
future decay multiply into two would change low-order float bits.  Timer
events interleave with simulation events at identical timestamps, but the
kernel's monotonic sequence numbers keep the relative order of all other
events unchanged, so flow records are bit-identical with the collector on
or off (``tests/test_timeline.py`` pins this against the golden fixtures).

Every series is appended exactly once per tick ("lockstep"), so all
:class:`DecimatedSeries` decimate in the same pattern and share the
``times`` axis sample-for-sample.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from repro.core.series import DecimatedSeries
from repro.sim.kernel import PeriodicTimer
from repro.units import microseconds

if TYPE_CHECKING:
    from repro.apps.traffic import CrossRackTraffic
    from repro.faults.injector import FaultInjector
    from repro.sim import Simulator
    from repro.switch.fabric import Fabric

#: Default sampling cadence.  Scaled-down runs finish in a few simulated
#: milliseconds, so 50 µs gives O(50–200) samples — enough for a curve,
#: cheap enough to leave on.
DEFAULT_TIMELINE_INTERVAL = microseconds(50)

#: Default per-series retention.  1024 points outlives any committed
#: scenario without decimation; longer runs decimate gracefully.
DEFAULT_TIMELINE_LIMIT = 1024


@dataclass(frozen=True)
class TimelineSpec:
    """Declarative knob that turns the timeline collector on.

    ``interval`` is the sampling period in simulated nanoseconds;
    ``limit`` bounds every retained series (uniform stride decimation via
    :class:`DecimatedSeries` once a series fills).  The spec nests inside
    :class:`repro.obs.config.ObsSpec` and therefore inside the experiment
    content hash — *when set*.  A ``None`` timeline is stripped from the
    hash payload, so pre-timeline cache entries and golden hashes are
    untouched (same convention as ``obs`` itself).
    """

    interval: int = DEFAULT_TIMELINE_INTERVAL
    limit: int = DEFAULT_TIMELINE_LIMIT

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(
                f"timeline interval must be >= 1 ns, got {self.interval}"
            )
        if self.limit < 2:
            raise ValueError(
                f"timeline series limit must be >= 2, got {self.limit}"
            )


@dataclass(frozen=True)
class Timeline:
    """Picklable snapshot of one run's sampled telemetry.

    All per-port mappings are keyed by port name in the fabric's canonical
    ``fabric_ports()`` order (preserved in ``port_names``).  Per-interval
    series are *deltas over one sampling interval*; ``completed`` /
    ``arrivals`` are cumulative.  ``fault_events`` logs what the injector
    actually applied: ``(sim_time_ns, event_kind, restores)``.
    """

    interval: int
    times: tuple[int, ...]
    port_names: tuple[str, ...]
    utilization: dict[str, tuple[float, ...]]
    residual: dict[str, tuple[float, ...]]
    occupancy: dict[str, tuple[int, ...]]
    dre: dict[str, tuple[float, ...]]
    drops: tuple[int, ...]
    flowlet_decisions: tuple[int, ...]
    fault_reroutes: tuple[int, ...]
    timeouts: tuple[int, ...]
    retransmissions: tuple[int, ...]
    goodput_bytes: tuple[int, ...]
    completed: tuple[int, ...]
    arrivals: tuple[int, ...]
    fault_events: tuple[tuple[int, str, bool], ...] = ()
    samples: int = 0

    def digest(self) -> str:
        """sha256 over the canonical JSON encoding of every series.

        Bit-identical across worker processes and platforms for the same
        run; the golden timeline tests pin workers=0 against workers=2.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode()).hexdigest()

    def __len__(self) -> int:
        return len(self.times)


class TimelineCollector:
    """Samples fabric/traffic state on a fixed sim-time cadence.

    Construct after the fabric is finalized (port set and selectors are
    stable), pass the traffic generator and injector if present, and call
    :meth:`start` before ``sim.run``.  The sample callback is a bound
    method (picklable-safe, closure-free) and performs reads only — see
    the module docstring for the full determinism contract.  The DRE
    series are measured state, so the collector requires the fabric's
    congestion plane: constructed once traffic has crossed a fabric that
    runs without it, it raises
    :class:`~repro.switch.fabric.CongestionPlaneError` rather than sample
    registers nothing fed.
    """

    def __init__(
        self,
        sim: "Simulator",
        fabric: "Fabric",
        spec: TimelineSpec,
        *,
        traffic: "CrossRackTraffic | None" = None,
        injector: "FaultInjector | None" = None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.spec = spec
        self.traffic = traffic
        self.injector = injector
        fabric.require_congestion_plane()
        self._ports = list(fabric.fabric_ports())
        self._dre_ports = [p for p in self._ports if p.dre is not None]
        limit = spec.limit
        # Every series is created up front and appended in lockstep, so
        # their DecimatedSeries strides stay identical and the shared
        # `times` axis aligns with every value series sample-for-sample.
        self._times = DecimatedSeries(limit)
        self._util = [DecimatedSeries(limit) for _ in self._ports]
        self._residual = [DecimatedSeries(limit) for _ in self._ports]
        self._occupancy = [DecimatedSeries(limit) for _ in self._ports]
        self._dre = [DecimatedSeries(limit) for _ in self._dre_ports]
        self._drops = DecimatedSeries(limit)
        self._decisions = DecimatedSeries(limit)
        self._reroutes = DecimatedSeries(limit)
        self._timeouts = DecimatedSeries(limit)
        self._retx = DecimatedSeries(limit)
        self._goodput = DecimatedSeries(limit)
        self._completed = DecimatedSeries(limit)
        self._arrivals = DecimatedSeries(limit)
        self._last_busy = [port.busy_time for port in self._ports]
        self._last_drops = 0
        self._last_decisions = 0
        self._last_reroutes = 0
        self._last_timeouts = 0
        self._last_retx = 0
        self._records_seen = 0
        self.samples = 0
        # Kernel timers draw nothing from the run's RNG, so sampling cannot
        # desynchronize any random choice.
        self._timer = PeriodicTimer(sim, spec.interval, self._sample, start=False)

    def start(self) -> None:
        """Arm the sampling timer (first sample one interval from now)."""
        self._last_busy = [port.busy_time for port in self._ports]
        self._timer.start()

    def stop(self) -> None:
        """Disarm the sampling timer."""
        self._timer.stop()

    def _selector_totals(self) -> tuple[int, int]:
        """Cumulative (flowlet decisions, fault reroutes) across the fabric."""
        decisions = 0
        reroutes = 0
        for selector in self.fabric.selectors():
            decisions += getattr(selector, "decisions", 0)
            reroutes += getattr(selector, "fault_reroutes", 0)
        return decisions, reroutes

    def _sample(self) -> None:
        interval = self.spec.interval
        self.samples += 1
        self._times.append(self.sim.now)
        drops = 0
        for i, port in enumerate(self._ports):
            busy = port.busy_time
            # busy_time is charged at packet *start*, so a packet whose
            # serialization spans the sample boundary lands entirely in
            # this window — clamp the ≤ one-packet overshoot to 1.0.
            self._util[i].append(
                min(1.0, (busy - self._last_busy[i]) / interval)
            )
            self._last_busy[i] = busy
            self._residual[i].append(port.residual_fraction())
            self._occupancy[i].append(port.queue.byte_occupancy)
            drops += port.queue.stats.dropped_packets
        for i, port in enumerate(self._dre_ports):
            self._dre[i].append(port.dre.peek_utilization())
        self._drops.append(drops - self._last_drops)
        self._last_drops = drops
        decisions, reroutes = self._selector_totals()
        self._decisions.append(decisions - self._last_decisions)
        self._last_decisions = decisions
        self._reroutes.append(reroutes - self._last_reroutes)
        self._last_reroutes = reroutes
        if self.traffic is not None:
            stats = self.traffic.stats
            self._timeouts.append(stats.timeouts - self._last_timeouts)
            self._last_timeouts = stats.timeouts
            self._retx.append(
                stats.retransmissions - self._last_retx
            )
            self._last_retx = stats.retransmissions
            records = stats.records
            fresh = records[self._records_seen :]
            self._records_seen = len(records)
            self._goodput.append(sum(record.size for record in fresh))
            self._completed.append(stats.completed)
            self._arrivals.append(stats.arrivals)
        else:
            self._timeouts.append(0)
            self._retx.append(0)
            self._goodput.append(0)
            self._completed.append(0)
            self._arrivals.append(0)

    def snapshot(self) -> Timeline:
        """Freeze the recorded series into a picklable :class:`Timeline`."""
        names = tuple(port.name for port in self._ports)
        dre_names = tuple(port.name for port in self._dre_ports)
        fault_events: tuple[tuple[int, str, bool], ...] = ()
        if self.injector is not None:
            fault_events = tuple(
                (when, type(event).__name__, event.restores())
                for when, event in self.injector.applied
            )
        return Timeline(
            interval=self.spec.interval,
            times=tuple(self._times),
            port_names=names,
            utilization={
                name: tuple(series)
                for name, series in zip(names, self._util)
            },
            residual={
                name: tuple(series)
                for name, series in zip(names, self._residual)
            },
            occupancy={
                name: tuple(series)
                for name, series in zip(names, self._occupancy)
            },
            dre={
                name: tuple(series)
                for name, series in zip(dre_names, self._dre)
            },
            drops=tuple(self._drops),
            flowlet_decisions=tuple(self._decisions),
            fault_reroutes=tuple(self._reroutes),
            timeouts=tuple(self._timeouts),
            retransmissions=tuple(self._retx),
            goodput_bytes=tuple(self._goodput),
            completed=tuple(self._completed),
            arrivals=tuple(self._arrivals),
            fault_events=fault_events,
            samples=self.samples,
        )


__all__ = [
    "DEFAULT_TIMELINE_INTERVAL",
    "DEFAULT_TIMELINE_LIMIT",
    "Timeline",
    "TimelineCollector",
    "TimelineSpec",
]
