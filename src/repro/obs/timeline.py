"""Deterministic sim-time telemetry: time-binned series over a run.

The evaluation's most convincing artifacts are *dynamics* — DRE estimates
tracking congestion within RTTs (Fig. 4), goodput draining and recovering
around a failure (Fig. 11), queues breathing at the hotspot (Fig. 16).
End-of-run scalars cannot show any of that, so this module adds a sampling
plane that rides the simulation clock itself:

* a :class:`TimelineCollector` arms one kernel :class:`PeriodicTimer` and,
  on every tick, reads — *without mutating* — per-port utilization,
  residual capacity, queue occupancy, the DRE estimates of a running
  congestion plane, flowlet decision / fault-reroute / loss-recovery
  rates, and goodput;
* each tick appends one row to one bounded :class:`DecimatedSeries`, so
  week-long simulated runs keep constant memory while the curves stay
  faithful;
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

A row is the tick's time; per-port utilization, residual and occupancy;
per-DRE-port utilization (none when the fabric's congestion plane is off:
sampling observes the plane, it never starts it); the drop, decision,
reroute, RTO, retransmission and goodput deltas; then cumulative
completions and arrivals.  Decimation keeps or drops whole rows, so every
series :meth:`~TimelineCollector.snapshot` transposes out of them shares
the ``times`` axis sample-for-sample by construction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from itertools import repeat
from typing import TYPE_CHECKING

from repro.core.series import DecimatedSeries
from repro.sim.kernel import PeriodicTimer
from repro.units import microseconds

if TYPE_CHECKING:
    from repro.apps.traffic import TrafficStats
    from repro.faults.injector import FaultInjector
    from repro.sim import Simulator
    from repro.switch.fabric import Fabric

#: Default sampling cadence.  Scaled-down runs finish in a few simulated
#: milliseconds, so 50 µs gives O(50–200) samples — enough for a curve,
#: cheap enough to leave on.
DEFAULT_TIMELINE_INTERVAL = microseconds(50)

#: Default row retention.  1024 rows outlive any committed
#: scenario without decimation; longer runs decimate gracefully.
DEFAULT_TIMELINE_LIMIT = 1024


@dataclass(frozen=True)
class TimelineSpec:
    """Declarative knob that turns the timeline collector on.

    ``interval`` is the sampling period in simulated nanoseconds;
    ``limit`` bounds the retained rows (uniform stride decimation via
    :class:`DecimatedSeries` once they fill).  The spec nests inside
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
    stable), pass the run's flow ledger (and its injector, if any), and call
    :meth:`start` before ``sim.run``.  The sample callback is a bound
    method (picklable-safe, closure-free) and performs reads only — see
    the module docstring for the full determinism contract.  The ``dre``
    series hold the ports whose DREs run: every DRE port when the fabric's
    congestion plane is on as the collector is built, none when it is off.
    The collector observes the plane; it never switches it on.
    """

    def __init__(
        self,
        sim: "Simulator",
        fabric: "Fabric",
        spec: TimelineSpec,
        *,
        stats: "TrafficStats",
        injector: "FaultInjector | None" = None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.spec = spec
        self.stats = stats
        self.injector = injector
        self._ports = list(fabric.fabric_ports())
        # Only a running plane's DREs measure anything, and sampling never
        # starts it (DESIGN.md "Congestion plane on demand").
        self._dre_ports = (
            [p for p in self._ports if p.dre is not None]
            if fabric.congestion_plane else []
        )
        self._rows: DecimatedSeries[tuple] = DecimatedSeries(spec.limit)
        self._previous: tuple = ()  # _totals() at the last tick (or start)
        # Kernel timers draw nothing from the run's RNG, so sampling cannot
        # desynchronize any random choice.
        self._timer = PeriodicTimer(sim, spec.interval, self._sample, start=False)

    def start(self) -> None:
        """Arm the sampling timer (first sample one interval from now)."""
        self._previous = self._totals((0, 0))
        self._timer.start()

    def stop(self) -> None:
        """Disarm the sampling timer."""
        self._timer.stop()

    def _totals(self, previous: tuple) -> tuple:
        """Every cumulative counter a tick differences, in row order.

        Per-port busy times, then drops, flowlet decisions, fault
        reroutes, RTOs, retransmissions and delivered bytes, and last the
        number of flow records read.  Delivered bytes are ``previous``'s
        plus the sizes of the records it had not read yet.
        """
        stats = self.stats
        records = stats.records
        delivered, seen = previous[-2:]
        delivered += sum(record.size for record in records[seen:])
        drops = decisions = reroutes = 0
        for port in self._ports:
            drops += port.queue.stats.dropped_packets
        for selector in self.fabric.selectors():
            decisions += getattr(selector, "decisions", 0)
            reroutes += getattr(selector, "fault_reroutes", 0)
        return (
            *(port.busy_time for port in self._ports),
            drops,
            decisions,
            reroutes,
            stats.timeouts,
            stats.retransmissions,
            delivered,
            len(records),
        )

    def _sample(self) -> None:
        interval = self.spec.interval
        ports = self._ports
        previous = self._previous
        totals = self._previous = self._totals(previous)
        n = len(ports)
        self._rows.append((
            self.sim.now,
            # busy_time is charged at packet *start*, so a packet whose
            # serialization spans the sample boundary lands entirely in
            # this window — clamp the ≤ one-packet overshoot to 1.0.
            *(min(1.0, (now - then) / interval)
              for now, then in zip(totals[:n], previous)),
            *(port.residual_fraction() for port in ports),
            *(port.queue.byte_occupancy for port in ports),
            *(port.dre.peek_utilization() for port in self._dre_ports),
            *(now - then for now, then in zip(totals[n:-1], previous[n:-1])),
            self.stats.completed,
            self.stats.arrivals,
        ))

    def snapshot(self) -> Timeline:
        """Freeze the recorded rows, transposed, into a :class:`Timeline`."""
        names = tuple(port.name for port in self._ports)
        dre_names = tuple(port.name for port in self._dre_ports)
        fault_events: tuple[tuple[int, str, bool], ...] = ()
        if self.injector is not None:
            fault_events = tuple(
                (when, type(event).__name__, event.restores())
                for when, event in self.injector.applied
            )
        # One column per row field, taken in row order.
        columns = iter(zip(*self._rows)) if self._rows else repeat(())

        def by_port(names: tuple[str, ...]) -> dict[str, tuple]:
            return {name: next(columns) for name in names}

        return Timeline(
            interval=self.spec.interval,
            times=next(columns),
            port_names=names,
            utilization=by_port(names),
            residual=by_port(names),
            occupancy=by_port(names),
            dre=by_port(dre_names),
            drops=next(columns),
            flowlet_decisions=next(columns),
            fault_reroutes=next(columns),
            timeouts=next(columns),
            retransmissions=next(columns),
            goodput_bytes=next(columns),
            completed=next(columns),
            arrivals=next(columns),
            fault_events=fault_events,
            samples=self._rows.offered,
        )


__all__ = [
    "DEFAULT_TIMELINE_INTERVAL",
    "DEFAULT_TIMELINE_LIMIT",
    "Timeline",
    "TimelineCollector",
    "TimelineSpec",
]
