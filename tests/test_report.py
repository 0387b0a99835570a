"""Tests for the plain-text reporting helpers."""

import pytest

from repro.analysis import render_table
from repro.analysis.stats import series_stats
from repro.core.series import DecimatedSeries
from repro.obs.metrics import HistogramSummary


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table("T", ["a", "bb"], [[1, 2.5], [30, 4.123456]])
        lines = text.splitlines()
        assert lines[0] == "=== T ==="
        assert lines[1].startswith("a")
        assert "2.5" in lines[2]
        assert "4.12" in lines[3]  # 3 significant digits

    def test_alignment(self):
        text = render_table("T", ["col"], [["x"], ["longer"]])
        lines = text.splitlines()
        assert len(lines[2]) >= len("longer")

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table("T", ["a", "b"], [[1]])

    def test_non_numeric_cells(self):
        text = render_table("T", ["scheme"], [["conga"], ["ecmp"]])
        assert "conga" in text


class TestSeriesSummaries:
    """A report's summaries come from ``HistogramSummary.of`` and ``series_stats``."""

    def test_summarize(self):
        summary = HistogramSummary.of(DecimatedSeries(values=[1.0, 2.0, 3.0, 4.0]))
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.count == 4

    def test_cdf_points_monotone(self):
        quantiles = (10, 25, 50, 75, 90, 99)
        values = series_stats(list(range(100)), quantiles, who="cdf")[1:]
        assert len(values) == len(quantiles)
        assert values == sorted(values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            series_stats([], who="summary")
        with pytest.raises(ValueError):
            series_stats([], (10, 50, 90), who="cdf")
