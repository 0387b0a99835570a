"""Stochastic traffic-imbalance model (paper §6.2, Theorem 2).

Theorem 2: flows arrive Poisson(λ) with i.i.d. sizes S and are assigned to
one of *n* links uniformly at random (randomized per-flow load balancing,
i.e. ECMP in expectation).  Define the traffic imbalance at time *t*

    χ(t) = (max_k A_k(t) − min_k A_k(t)) / (λ E[S] t / n),

the max–min spread of cumulative per-link traffic normalized by the
expected per-link traffic.  Then E[χ(t)] ≤ 1/sqrt(λ_e t) + O(1/t) with the
*effective arrival rate*

    λ_e = λ / (8 n log n (1 + (σ_S / E[S])²)).

The coefficient-of-variation term is the punchline: heavy workloads (large
CoV, like data-mining) balance fundamentally worse under randomized
per-flow assignment — which is when flowlets (which chop S into smaller
pieces, cutting the CoV) pay off.

:func:`simulate_imbalance` estimates E[χ(t)] by Monte-Carlo;
:func:`effective_rate` and :func:`imbalance_bound` evaluate the theorem's
formula for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.workloads.distributions import FlowSizeDistribution

SizeSampler = Callable[[np.random.Generator, int], np.ndarray]


def effective_rate(
    arrival_rate: float, num_links: int, mean_size: float, cov: float
) -> float:
    """λ_e of Theorem 2 (equation 2)."""
    if arrival_rate <= 0 or mean_size <= 0 or num_links < 2:
        raise ValueError("need positive rate/size and at least two links")
    return arrival_rate / (8.0 * num_links * np.log(num_links) * (1.0 + cov * cov))


def imbalance_bound(
    arrival_rate: float, num_links: int, mean_size: float, cov: float, t: float
) -> float:
    """Theorem 2's leading-order bound 1/sqrt(λ_e · t)."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    return 1.0 / np.sqrt(
        effective_rate(arrival_rate, num_links, mean_size, cov) * t
    )


@dataclass(frozen=True)
class ImbalanceEstimate:
    """Monte-Carlo estimate of E[χ(t)] with the matching theoretical bound."""

    t: float
    mean_imbalance: float
    std_error: float
    bound: float


def sampler_from_distribution(dist: FlowSizeDistribution) -> SizeSampler:
    """Adapt an empirical workload into a vectorized size sampler."""
    return lambda rng, count: dist.sample_many(rng, count).astype(float)


def simulate_imbalance(
    *,
    arrival_rate: float,
    num_links: int,
    mean_size: float,
    cov: float,
    t: float,
    sampler: SizeSampler,
    trials: int = 200,
    seed: int = 1,
) -> ImbalanceEstimate:
    """Monte-Carlo E[χ(t)] for random per-flow assignment to ``num_links``.

    ``sampler(rng, count)`` must draw flow sizes whose mean and CoV match
    ``mean_size`` / ``cov`` (used only for the bound and normalization).
    """
    if trials < 2:
        raise ValueError("need at least two trials")
    rng = np.random.default_rng(seed)
    expected_per_link = arrival_rate * mean_size * t / num_links
    values = np.empty(trials)
    for trial in range(trials):
        count = rng.poisson(arrival_rate * t)
        totals = np.zeros(num_links)
        if count > 0:
            sizes = sampler(rng, count)
            # Samplers may return more pieces than flows (flowlet splitting).
            links = rng.integers(num_links, size=len(sizes))
            np.add.at(totals, links, sizes)
        values[trial] = (totals.max() - totals.min()) / expected_per_link
    return ImbalanceEstimate(
        t=t,
        mean_imbalance=float(values.mean()),
        std_error=float(values.std(ddof=1) / np.sqrt(trials)),
        bound=imbalance_bound(arrival_rate, num_links, mean_size, cov, t),
    )


def flowlet_split_sampler(
    sampler: SizeSampler, max_piece: float
) -> SizeSampler:
    """Transform a flow sampler into a flowlet sampler by capping pieces.

    Splitting every flow into chunks of at most ``max_piece`` bytes — the
    idealized effect of flowlet switching — multiplies the arrival count
    and slashes the size CoV, which by Theorem 2 raises λ_e and improves
    balance.  Each flow's pieces are assigned independently, so the caller
    should simply use the returned sampler with the same link-assignment
    logic.
    """

    def split(rng: np.random.Generator, count: int) -> np.ndarray:
        sizes = sampler(rng, count)
        pieces: list[np.ndarray] = []
        for size in sizes:
            whole = int(size // max_piece)
            if whole:
                pieces.append(np.full(whole, max_piece))
            rest = size - whole * max_piece
            if rest > 0:
                pieces.append(np.array([rest]))
        return np.concatenate(pieces) if pieces else np.empty(0)

    return split


__all__ = [
    "ImbalanceEstimate",
    "SizeSampler",
    "effective_rate",
    "flowlet_split_sampler",
    "imbalance_bound",
    "sampler_from_distribution",
    "simulate_imbalance",
]
