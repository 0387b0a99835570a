"""Series statistics have one home and one "empty" error.

Every percentile and mean ``repro.analysis`` / ``repro.obs`` report goes
through ``repro.analysis.stats.series_stats``, the monitor views cut from a
timeline included; these tests pin the floats the former per-class numpy
calls produced on fixed series (bit for bit, not approximately) and the
single error an empty series raises everywhere.
"""

import numpy as np
import pytest

from repro.analysis import (
    EmptySeriesError,
    FctSummary,
    ImbalanceSeries,
    QueueSeries,
    cdf_points,
    summarize_series,
)
from repro.analysis.stats import series_stats
from repro.core.series import DecimatedSeries
from repro.obs.metrics import HistogramSummary

from tests.test_analysis import _timeline

IMBALANCE = (0.0, 0.125, 1.7, 0.3333333333333333, 2.0, 0.9, 0.01)
OCCUPANCY = (0, 1500, 3000, 291_000, 4500, 77, 1_000_000, 3)


def test_imbalance_snapshot_reports_the_former_floats():
    series = ImbalanceSeries(1000, IMBALANCE, tuple(range(len(IMBALANCE))))
    for q in (0, 10, 50, 90, 95, 99, 100):
        assert series.percentile(q) == float(np.percentile(np.array(IMBALANCE) * 100.0, q))
    assert series.mean_percent() == float(np.mean(IMBALANCE) * 100.0)
    assert series.samples_before(3) == list(IMBALANCE[:4])


def test_queue_snapshot_reports_the_former_floats():
    series = QueueSeries.from_timeline(_timeline("occupancy", {"l0->s0": OCCUPANCY}), ["l0->s0"])
    for q in (0, 25, 50, 99, 100):
        assert series.percentile("l0->s0", q) == float(np.percentile(OCCUPANCY, q))
    assert series.mean("l0->s0") == float(np.mean(OCCUPANCY))


def test_report_and_histogram_summaries_report_the_former_floats():
    array = np.asarray(OCCUPANCY, dtype=float)
    assert cdf_points(OCCUPANCY) == [
        (q, float(np.percentile(array, q))) for q in (10, 25, 50, 75, 90, 99)
    ]
    p50, p90, p99 = (float(v) for v in np.percentile(array, [50.0, 90.0, 99.0]))
    assert summarize_series(OCCUPANCY) == {
        "mean": float(array.mean()), "p50": p50, "p90": p90, "p99": p99,
        "min": 0.0, "max": 1_000_000.0,
    }
    assert HistogramSummary.of(DecimatedSeries(values=OCCUPANCY)) == HistogramSummary(
        len(OCCUPANCY), 0.0, 1_000_000.0, float(array.mean()), p50, p90, p99
    )


@pytest.mark.parametrize(
    "ask, who",
    [
        (lambda: cdf_points([]), "cdf_points"),
        (lambda: summarize_series(()), "summarize_series"),
        (lambda: FctSummary.from_records([]), "FctSummary.from_records"),
        (lambda: ImbalanceSeries(10, (), ()).mean_percent(), "ImbalanceSeries"),
        (lambda: ImbalanceSeries(10, (), ()).percentile(50), "ImbalanceSeries"),
        (
            lambda: QueueSeries.from_timeline(_timeline("occupancy", {"p": ()}), ["p"]).mean("p"),
            "QueueSeries[p]",
        ),
        (lambda: series_stats(np.array([]), (50,), who="anything"), "anything"),
    ],
)
def test_an_empty_series_is_one_error_naming_who_asked(ask, who):
    with pytest.raises(EmptySeriesError) as caught:
        ask()
    assert isinstance(caught.value, ValueError)
    assert caught.value.monitor == who and who in str(caught.value)


def test_the_interval_rides_along_only_for_monitors():
    with pytest.raises(EmptySeriesError) as monitor:
        ImbalanceSeries(250, (), ()).mean_percent()
    assert monitor.value.interval == 250 and "250 ns" in str(monitor.value)
    with pytest.raises(EmptySeriesError) as report:
        cdf_points([])
    assert report.value.interval is None and "interval" not in str(report.value)
