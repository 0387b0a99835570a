"""Runtime monitors: uplink throughput imbalance and queue occupancy.

Figure 12 measures load balancing efficiency directly as the *throughput
imbalance* across a leaf's uplinks: synchronized 10 ms samples of per-uplink
throughput, reporting ``(MAX − MIN) / AVG`` per sample.  Figure 11(c) and
Figure 16 report queue-occupancy distributions at fabric ports.  Both
monitors here sample on a periodic timer; ``snapshot()`` freezes what they
recorded into a picklable series, and the statistics live on that snapshot
(each through :func:`repro.analysis.stats.series_stats`), so a live run and
a cached result answer through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.stats import series_stats
from repro.core.series import DEFAULT_SERIES_LIMIT, DecimatedSeries
from repro.net.port import Port
from repro.sim.kernel import PeriodicTimer
from repro.units import milliseconds

if TYPE_CHECKING:
    from repro.sim import Simulator


def _port_name(port) -> str:
    """Accept either a live :class:`Port` or its name string."""
    return port.name if isinstance(port, Port) else port


@dataclass(frozen=True)
class ImbalanceSeries:
    """Picklable snapshot of a :class:`ThroughputImbalanceMonitor`.

    Carries the raw per-window samples (fractions, not percent) so results
    can cross a process boundary or live in an on-disk cache without
    dragging the live monitor, simulator, or ports along.
    """

    interval: int
    samples: tuple[float, ...]
    sample_times: tuple[int, ...]

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of recorded imbalance samples (percent)."""
        percent = [sample * 100.0 for sample in self.samples]
        return series_stats(percent, (q,), who="ImbalanceSeries", interval=self.interval)[1]

    def mean_percent(self) -> float:
        """Mean imbalance in percent."""
        mean = series_stats(self.samples, who="ImbalanceSeries", interval=self.interval)[0]
        return mean * 100.0

    def samples_before(self, deadline: int) -> list[float]:
        """Samples from windows that ended no later than ``deadline``.

        Restricts a statistic to the loaded phase of a run: the drain tail
        after the last arrival is near-idle windows of meaningless imbalance.
        """
        return [
            value
            for value, when in zip(self.samples, self.sample_times)
            if when <= deadline
        ]


@dataclass(frozen=True)
class QueueSeries:
    """Picklable snapshot of a :class:`QueueMonitor`.

    ``samples`` maps port name → occupancy series; ``port_names`` preserves
    the monitor's port order so callers can address "the first hotspot
    port" without a live fabric.  Lookup methods accept a ``Port`` or a
    name string.
    """

    interval: int
    samples: dict[str, tuple[int, ...]]
    port_names: tuple[str, ...]

    def series(self, port) -> tuple[int, ...]:
        """The recorded occupancy series for ``port``."""
        return self.samples[_port_name(port)]

    def _stats(self, port, *quantiles: float) -> list[float]:
        who = f"QueueSeries[{_port_name(port)}]"
        return series_stats(self.series(port), quantiles, who=who, interval=self.interval)

    def percentile(self, port, q: float) -> float:
        """The ``q``-th percentile occupancy (bytes) at ``port``."""
        return self._stats(port, q)[1]

    def mean(self, port) -> float:
        """Mean occupancy (bytes) at ``port``."""
        return self._stats(port)[0]


class _Sampler:
    """A periodic kernel timer driving a subclass's ``_sample`` over ``ports``."""

    def __init__(self, sim: "Simulator", ports: list[Port], interval: int) -> None:
        self.sim = sim
        self.ports = ports
        self.interval = interval
        self._timer = PeriodicTimer(sim, interval, self._sample, start=False)

    def start(self) -> None:
        """Begin sampling."""
        self._timer.start()

    def stop(self) -> None:
        """Stop sampling."""
        self._timer.stop()


class ThroughputImbalanceMonitor(_Sampler):
    """Samples (MAX−MIN)/AVG throughput across a port group (Fig. 12)."""

    def __init__(
        self, sim: "Simulator", ports: list[Port], interval: int = milliseconds(10)
    ) -> None:
        if len(ports) < 2:
            raise ValueError("imbalance needs at least two ports")
        super().__init__(sim, ports, interval)
        self.samples: list[float] = []
        self.sample_times: list[int] = []
        self._last_bytes = [port.tx_bytes for port in ports]

    def start(self) -> None:
        """Begin sampling."""
        self._last_bytes = [port.tx_bytes for port in self.ports]
        super().start()

    def _sample(self) -> None:
        current = [port.tx_bytes for port in self.ports]
        deltas = [now - last for now, last in zip(current, self._last_bytes)]
        self._last_bytes = current
        total = sum(deltas)
        if total <= 0:
            return  # idle interval: no traffic to be imbalanced about
        average = total / len(deltas)
        imbalance = (max(deltas) - min(deltas)) / average
        self.samples.append(imbalance)
        self.sample_times.append(self.sim.now)

    def snapshot(self) -> ImbalanceSeries:
        """Freeze the recorded series into a picklable value object."""
        return ImbalanceSeries(
            interval=self.interval,
            samples=tuple(self.samples),
            sample_times=tuple(self.sample_times),
        )


class QueueMonitor(_Sampler):
    """Periodically samples byte occupancy of a set of queues (Fig. 11c/16).

    Per-port series are bounded :class:`DecimatedSeries` (uniform stride
    decimation, ``DEFAULT_SERIES_LIMIT`` retained per port), so week-long
    simulated runs keep constant memory while the occupancy CDFs stay
    faithful.
    """

    def __init__(
        self,
        sim: "Simulator",
        ports: list[Port],
        interval: int = milliseconds(1),
    ) -> None:
        if not ports:
            raise ValueError("need at least one port to monitor")
        super().__init__(sim, ports, interval)
        self.samples: dict[str, DecimatedSeries] = {
            port.name: DecimatedSeries(DEFAULT_SERIES_LIMIT) for port in ports
        }

    def _sample(self) -> None:
        for port in self.ports:
            self.samples[port.name].append(port.queue.byte_occupancy)

    def snapshot(self) -> QueueSeries:
        """Freeze the recorded series into a picklable value object."""
        return QueueSeries(
            interval=self.interval,
            samples={name: tuple(s) for name, s in self.samples.items()},
            port_names=tuple(port.name for port in self.ports),
        )


__all__ = [
    "ImbalanceSeries",
    "QueueMonitor",
    "QueueSeries",
    "ThroughputImbalanceMonitor",
]
