"""Tests for the empirical flow-size distributions (Figure 8)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.workloads import (
    BUILTIN_WORKLOAD_NAMES,
    DATA_MINING,
    ENTERPRISE,
    FlowSizeDistribution,
    WEB_SEARCH,
    WORKLOADS,
)


class TestConstruction:
    def test_registry(self):
        # Scenario files may register extra CDFs at runtime, so the exact
        # pin is on the built-in set, not the whole registry.
        assert BUILTIN_WORKLOAD_NAMES == {
            "enterprise", "data-mining", "web-search", "hadoop"
        }
        assert BUILTIN_WORKLOAD_NAMES <= set(WORKLOADS)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("x", ((100.0, 1.0),))

    def test_rejects_non_increasing_sizes(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("x", ((100.0, 0.5), (100.0, 1.0)))

    def test_rejects_decreasing_cdf(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("x", ((100.0, 0.9), (200.0, 0.5), (300.0, 1.0)))

    def test_rejects_cdf_not_ending_at_one(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("x", ((100.0, 0.5), (200.0, 0.9)))


class TestQuantile:
    def test_endpoints(self):
        dist = WEB_SEARCH
        assert dist.quantile(1.0) == dist.points[-1][0]
        assert dist.quantile(0.0) >= 1.0

    def test_interpolation(self):
        dist = FlowSizeDistribution("x", ((100.0, 0.0), (200.0, 1.0)))
        assert dist.quantile(0.5) == pytest.approx(150.0)

    def test_monotone(self):
        grid = np.linspace(0, 1, 101)
        for dist in WORKLOADS.values():
            values = [dist.quantile(u) for u in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            WEB_SEARCH.quantile(1.5)


class TestSampling:
    def test_samples_within_support(self):
        rng = np.random.default_rng(1)
        for dist in WORKLOADS.values():
            for _ in range(200):
                size = dist.sample(rng)
                assert 1 <= size <= dist.points[-1][0]

    def test_sample_many_matches_support(self):
        rng = np.random.default_rng(2)
        sizes = DATA_MINING.sample_many(rng, 5000)
        assert sizes.min() >= 1
        assert sizes.max() <= DATA_MINING.points[-1][0]

    def test_empirical_mean_close_to_analytic(self):
        rng = np.random.default_rng(3)
        sizes = WEB_SEARCH.sample_many(rng, 200_000)
        assert sizes.mean() == pytest.approx(WEB_SEARCH.mean(), rel=0.05)

    def test_sampling_deterministic_for_seed(self):
        a = ENTERPRISE.sample_many(np.random.default_rng(7), 100)
        b = ENTERPRISE.sample_many(np.random.default_rng(7), 100)
        assert (a == b).all()


class TestMoments:
    def test_means_are_heavy(self):
        # Enterprise mean is a couple of MB; data-mining is several MB.
        assert 1e6 < ENTERPRISE.mean() < 5e6
        assert 5e6 < DATA_MINING.mean() < 20e6
        assert 1e6 < WEB_SEARCH.mean() < 3e6

    def test_second_moment_consistent(self):
        rng = np.random.default_rng(4)
        sizes = WEB_SEARCH.sample_many(rng, 300_000).astype(float)
        assert (sizes**2).mean() == pytest.approx(
            WEB_SEARCH.second_moment(), rel=0.1
        )

    def test_cov_ranks_heaviness(self):
        """6.2: data-mining is 'heavier' than enterprise and web-search."""
        assert DATA_MINING.coefficient_of_variation() > WEB_SEARCH.coefficient_of_variation()
        assert DATA_MINING.coefficient_of_variation() > 1.0

    def test_uniform_distribution_moments(self):
        dist = FlowSizeDistribution("u", ((0.001, 0.0), (1000.0, 1.0)))
        assert dist.mean() == pytest.approx(500.0, rel=0.01)
        # Uniform on [0,1000]: E[S^2] = 1000^2/3.
        assert dist.second_moment() == pytest.approx(1000.0**2 / 3, rel=0.01)


class TestByteWeightedViews:
    def test_byte_fraction_monotone(self):
        probes = np.logspace(2, 9, 30)
        for dist in WORKLOADS.values():
            fractions = [dist.byte_fraction_below(p) for p in probes]
            assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))
            assert fractions[-1] == pytest.approx(1.0, abs=1e-6)

    def test_enterprise_half_bytes_below_35mb(self):
        """5.2.1: ~50% of enterprise bytes come from flows < 35 MB."""
        fraction = ENTERPRISE.byte_fraction_below(35e6)
        assert 0.35 <= fraction <= 0.65

    def test_datamining_bytes_dominated_by_elephants(self):
        """5.2.1: flows < 35 MB contribute only ~5% of data-mining bytes."""
        fraction = DATA_MINING.byte_fraction_below(35e6)
        assert fraction <= 0.15


@given(u=st.floats(min_value=0.0, max_value=1.0))
def test_quantile_total_function(u):
    for dist in WORKLOADS.values():
        value = dist.quantile(u)
        assert value >= 0
