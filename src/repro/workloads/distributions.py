"""Empirical flow-size distributions (paper Figure 8).

The evaluation drives the fabric with flows sampled from empirical
distributions: an *enterprise* workload measured in the authors' production
datacenters (§2.6) and a *data-mining* workload from a large cluster running
MapReduce-style jobs (VL2 [18]).  The large-scale simulations (Fig. 15) also
use the *web-search* workload of DCTCP [4].  All three are heavy-tailed, but
they differ sharply in how heavy: in the enterprise workload ~50% of bytes
come from flows smaller than ~35 MB, while in data-mining ~95% of all bytes
belong to the few flows larger than 35 MB — which is why ECMP does fine on
the former and poorly on the latter (§5.2.1, §6.2).

Distributions are piecewise-linear CDFs over flow size, sampled by inverse
transform.  Moments (mean, coefficient of variation) have closed forms per
segment; the byte-weighted CDF of Fig. 8's "Bytes" curves is derived
analytically as well.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from repro.sim.pcg64 import PCG64Stream


@dataclass(frozen=True)
class FlowSizeDistribution:
    """A piecewise-linear flow-size CDF.

    ``points`` is a sequence of (size_bytes, cdf) pairs with strictly
    increasing sizes and non-decreasing cdf values ending at 1.0.  Between
    points the CDF is linear in size (the convention used by the published
    simulation harnesses for these workloads).
    """

    name: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("need at least two CDF points")
        sizes = [p[0] for p in self.points]
        cdfs = [p[1] for p in self.points]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"sizes must be strictly increasing: {sizes}")
        if any(b < a for a, b in zip(cdfs, cdfs[1:])):
            raise ValueError(f"cdf must be non-decreasing: {cdfs}")
        if abs(cdfs[-1] - 1.0) > 1e-9:
            raise ValueError(f"cdf must end at 1.0, got {cdfs[-1]}")
        if cdfs[0] < 0:
            raise ValueError("cdf values must be non-negative")

    # -- sampling -------------------------------------------------------------

    def sample(self, rng: PCG64Stream) -> int:
        """Draw one flow size in bytes by inverse-transform sampling."""
        return int(self.quantile(rng.uniform()))

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` flow sizes as an integer array (vectorized)."""
        import numpy as np

        u = rng.uniform(size=count)
        cdfs = np.array([p[1] for p in self.points])
        sizes = np.array([p[0] for p in self.points])
        return np.maximum(1, np.interp(u, cdfs, sizes).astype(np.int64))

    def quantile(self, u: float) -> float:
        """Inverse CDF: the flow size at cumulative probability ``u``."""
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"u must be in [0, 1], got {u}")
        cdfs = [p[1] for p in self.points]
        if u <= cdfs[0]:
            return max(1.0, self.points[0][0])
        index = bisect.bisect_left(cdfs, u)
        (s0, c0), (s1, c1) = self.points[index - 1], self.points[index]
        if c1 == c0:
            return s1
        return s0 + (s1 - s0) * (u - c0) / (c1 - c0)

    def interp(self, u: float) -> float:
        """``numpy.interp(u, cdfs, sizes)`` bit for bit: what :meth:`sample_many` rounds.

        The same line as :meth:`quantile`, evaluated as numpy does (slope
        first, a knot returns its own size), so the two can differ in the
        last place: :meth:`quantile` gives ``hadoop`` 29 999 999.999999996
        at ``u = 1.0``, numpy exactly 30 000 000.
        """
        points = self.points
        j = bisect.bisect_right([p[1] for p in points], u) - 1
        if j < 0:
            return points[0][0]
        s0, c0 = points[j]
        if j == len(points) - 1 or u == c0:
            return s0
        s1, c1 = points[j + 1]
        return (s1 - s0) / (c1 - c0) * (u - c0) + s0

    # -- moments ---------------------------------------------------------------

    def mean(self) -> float:
        """E[S] in bytes (closed form per linear segment)."""
        total = self.points[0][0] * self.points[0][1]
        for (s0, c0), (s1, c1) in zip(self.points, self.points[1:]):
            total += (c1 - c0) * (s0 + s1) / 2.0
        return total

    def second_moment(self) -> float:
        """E[S^2] (closed form: uniform density within each segment)."""
        total = self.points[0][0] ** 2 * self.points[0][1]
        for (s0, c0), (s1, c1) in zip(self.points, self.points[1:]):
            total += (c1 - c0) * (s0 * s0 + s0 * s1 + s1 * s1) / 3.0
        return total

    def coefficient_of_variation(self) -> float:
        """σ_S / E[S] — the workload "heaviness" factor of Theorem 2."""
        mean = self.mean()
        variance = self.second_moment() - mean * mean
        return math.sqrt(max(variance, 0.0)) / mean

    # -- byte-weighted views (the "Bytes" curves of Fig. 8) ----------------------

    def byte_fraction_below(self, size: float) -> float:
        """Fraction of all bytes carried by flows of size ≤ ``size``."""
        total = self.mean()
        if size <= self.points[0][0]:
            return (min(size, self.points[0][0]) * self.points[0][1]) / total
        acc = self.points[0][0] * self.points[0][1]
        for (s0, c0), (s1, c1) in zip(self.points, self.points[1:]):
            if size >= s1:
                acc += (c1 - c0) * (s0 + s1) / 2.0
                continue
            if size > s0:
                # Uniform density within the segment: integrate s over [s0, size].
                fraction = (size - s0) / (s1 - s0)
                acc += (c1 - c0) * fraction * (s0 + size) / 2.0
            break
        return acc / total

    def byte_median(self) -> float:
        """The flow size below which half of all bytes lie (Fig. 8, §5.2.1)."""
        low = self.points[0][0]
        high = self.points[-1][0]
        for _ in range(200):
            mid = (low + high) / 2.0
            if self.byte_fraction_below(mid) < 0.5:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0


# ---------------------------------------------------------------------------
# The three published workloads.
# ---------------------------------------------------------------------------

#: Enterprise workload (paper Fig. 8a, measured in the authors' datacenters).
#: Mostly small flows; ~50% of bytes from flows below ~35 MB.
ENTERPRISE = FlowSizeDistribution(
    "enterprise",
    (
        (100.0, 0.10),
        (1_000.0, 0.35),
        (10_000.0, 0.60),
        (100_000.0, 0.77),
        (1_000_000.0, 0.88),
        (10_000_000.0, 0.96),
        (35_000_000.0, 0.99),
        (100_000_000.0, 0.998),
        (500_000_000.0, 1.0),
    ),
)

#: Data-mining workload (paper Fig. 8b, from VL2 [18]).  Extremely heavy
#: tail: ~95% of bytes in the ~3.6% of flows larger than 35 MB.
DATA_MINING = FlowSizeDistribution(
    "data-mining",
    (
        (100.0, 0.12),
        (300.0, 0.30),
        (1_000.0, 0.50),
        (2_000.0, 0.60),
        (10_000.0, 0.71),
        (100_000.0, 0.80),
        (1_000_000.0, 0.90),
        (10_000_000.0, 0.955),
        (35_000_000.0, 0.964),
        (100_000_000.0, 0.985),
        (1_000_000_000.0, 1.0),
    ),
)

#: Web-search workload (DCTCP [4]), used by the large-scale sims (Fig. 15).
WEB_SEARCH = FlowSizeDistribution(
    "web-search",
    (
        (6_000.0, 0.15),
        (13_000.0, 0.20),
        (19_000.0, 0.30),
        (33_000.0, 0.40),
        (53_000.0, 0.53),
        (133_000.0, 0.60),
        (667_000.0, 0.70),
        (1_333_000.0, 0.80),
        (3_333_000.0, 0.90),
        (6_667_000.0, 0.97),
        (20_000_000.0, 1.0),
    ),
)

#: Hadoop workload (approximate, after the MapReduce-cluster traces used by
#: the post-CONGA flowlet literature: mostly mice with a modest elephant
#: tail).  Not part of the paper's evaluation; available to scenarios that
#: sweep beyond it.
HADOOP = FlowSizeDistribution(
    "hadoop",
    (
        (130.0, 0.20),
        (500.0, 0.30),
        (1_000.0, 0.40),
        (2_000.0, 0.50),
        (4_000.0, 0.60),
        (8_000.0, 0.70),
        (38_000.0, 0.80),
        (120_000.0, 0.90),
        (1_000_000.0, 0.99),
        (30_000_000.0, 1.0),
    ),
)

WORKLOADS = {
    dist.name: dist for dist in (ENTERPRISE, DATA_MINING, WEB_SEARCH, HADOOP)
}

#: Names shipped with the package (present in every process); everything
#: else in :data:`WORKLOADS` was added at runtime via
#: :func:`register_workload` and must be re-registered in worker processes
#: (the subprocess sweep backend does this through its init handshake).
BUILTIN_WORKLOAD_NAMES = frozenset(WORKLOADS)


def register_workload(
    dist: FlowSizeDistribution, *, replace: bool = False
) -> FlowSizeDistribution:
    """Add ``dist`` to the workload registry under ``dist.name``.

    The sanctioned write point for :data:`WORKLOADS` (the S203 lint rule
    rejects raw dict writes).  Re-registering an identical distribution is
    a no-op so scenario loads stay idempotent; registering a *different*
    distribution under an existing name raises unless ``replace=True``.
    Built-in names can never be replaced — specs referencing them must
    mean the same thing in every process.
    """
    existing = WORKLOADS.get(dist.name)
    if existing is not None:
        if existing == dist:
            return dist
        if not replace or dist.name in BUILTIN_WORKLOAD_NAMES:
            raise ValueError(
                f"workload {dist.name!r} is already registered with a "
                "different CDF; pick another name"
                + ("" if dist.name in BUILTIN_WORKLOAD_NAMES
                   else " or pass replace=True")
            )
    WORKLOADS[dist.name] = dist  # repro-lint: ignore[S203] -- the sanctioned write point
    return dist


__all__ = [
    "BUILTIN_WORKLOAD_NAMES",
    "DATA_MINING",
    "ENTERPRISE",
    "FlowSizeDistribution",
    "HADOOP",
    "WEB_SEARCH",
    "WORKLOADS",
    "register_workload",
]
