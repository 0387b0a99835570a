"""Monitor views: uplink throughput imbalance and queue occupancy.

Figure 12 measures load balancing efficiency directly as the *throughput
imbalance* across a leaf's uplinks: synchronized samples of per-uplink
throughput, reporting ``(MAX − MIN) / AVG`` per sample.  Figure 11(c) and
Figure 16 report queue-occupancy distributions at fabric ports.  Neither
samples anything itself: the run's one sampler is the
:class:`~repro.obs.timeline.TimelineCollector`, and ``from_timeline`` cuts a
picklable series for the monitored ports out of its
:class:`~repro.obs.timeline.Timeline`.  The statistics live on that series
(each through :func:`repro.analysis.stats.series_stats`), so a live run and
a cached result answer through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.stats import series_stats

if TYPE_CHECKING:
    from repro.obs.timeline import Timeline


def _port_name(port) -> str:
    """Accept either a live :class:`~repro.net.port.Port` or its name string."""
    return getattr(port, "name", port)


@dataclass(frozen=True)
class ImbalanceSeries:
    """Per-window uplink throughput imbalance (Fig. 12).

    Carries the raw per-window samples (fractions, not percent) so results
    can cross a process boundary or live in an on-disk cache without
    dragging the live run, simulator, or ports along.
    """

    interval: int
    samples: tuple[float, ...]
    sample_times: tuple[int, ...]

    @classmethod
    def from_timeline(cls, timeline: "Timeline", port_names) -> "ImbalanceSeries":
        """``(MAX − MIN) / AVG`` of the ports' utilization in each window.

        Utilization is the timeline's busy-time estimate (charged at packet
        start, clamped to 1).  Idle windows are skipped: there is no traffic
        to be imbalanced about.
        """
        samples: list[float] = []
        sample_times: list[int] = []
        columns = [timeline.utilization[name] for name in port_names]
        for when, *window in zip(timeline.times, *columns):
            total = sum(window)
            if total <= 0:
                continue
            samples.append((max(window) - min(window)) / (total / len(window)))
            sample_times.append(when)
        return cls(timeline.interval, tuple(samples), tuple(sample_times))

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
    """Byte-occupancy series of a set of fabric ports (Fig. 11c/16).

    ``samples`` maps port name → occupancy series; ``port_names`` preserves
    the monitored port order so callers can address "the first hotspot
    port" without a live fabric.  Lookup methods accept a ``Port`` or a
    name string.
    """

    interval: int
    samples: dict[str, tuple[int, ...]]
    port_names: tuple[str, ...]

    @classmethod
    def from_timeline(cls, timeline: "Timeline", port_names) -> "QueueSeries":
        """The timeline's occupancy series of ``port_names``, in that order."""
        return cls(
            timeline.interval,
            {name: timeline.occupancy[name] for name in port_names},
            tuple(port_names),
        )

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


__all__ = ["ImbalanceSeries", "QueueSeries"]
