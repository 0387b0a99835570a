"""Tests for the bounded stride-decimated sample series."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.series import DEFAULT_SERIES_LIMIT, DecimatedSeries


class TestBasics:
    def test_small_series_keeps_everything(self):
        series = DecimatedSeries(limit=100)
        for i in range(50):
            series.append(i)
        assert list(series) == list(range(50))
        assert series.stride == 1

    def test_list_protocol(self):
        """A series is a sized iterable, not a list: no indexing, no list equality."""
        series = DecimatedSeries(limit=16, values=[3, 1, 4])
        assert len(series) == 3
        assert list(series) == [3, 1, 4]
        assert bool(series)
        assert not DecimatedSeries(limit=16)
        assert series != [3, 1, 4]
        with pytest.raises(TypeError):
            series[0]

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            DecimatedSeries(limit=1)

    def test_default_limit(self):
        assert DecimatedSeries().limit == DEFAULT_SERIES_LIMIT


class TestDecimation:
    def test_memory_is_bounded(self):
        series = DecimatedSeries(limit=64)
        for i in range(1_000_000):
            series.append(i)
        assert len(series) < 64

    def test_retained_samples_are_uniformly_strided(self):
        series = DecimatedSeries(limit=64)
        n = 10_000
        for i in range(n):
            series.append(i)
        stride = series.stride
        assert list(series) == list(range(0, n, stride))[: len(series)]

    def test_stride_doubles_on_overflow(self):
        series = DecimatedSeries(limit=8)
        for i in range(8):
            series.append(i)
        # Hitting the limit halves the retained set and doubles the stride.
        assert series.stride == 2
        assert list(series) == [0, 2, 4, 6]

    def test_decimation_is_deterministic(self):
        def fill():
            series = DecimatedSeries(limit=32)
            for i in range(5_000):
                series.append(i * 37 % 1013)
            return list(series), series.stride

        assert fill() == fill()

    def test_percentiles_survive_decimation(self):
        # A slowly varying occupancy series: the decimated percentiles must
        # track the full-series percentiles closely (uniform subsample).
        full = [int(5000 * (1 + np.sin(i / 500.0))) for i in range(200_000)]
        series = DecimatedSeries(limit=4096)
        for value in full:
            series.append(value)
        for q in (50.0, 90.0, 99.0):
            dec = float(np.percentile(list(series), q))
            ref = float(np.percentile(full, q))
            assert dec == pytest.approx(ref, rel=0.05)

    @given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=300))
    def test_never_exceeds_limit_and_starts_at_first_sample(self, values):
        series = DecimatedSeries(limit=16)
        for value in values:
            series.append(value)
        assert len(series) <= 16
        if values:
            assert next(iter(series)) == values[0]
