"""Tests for the contest metrics (F1 @ 90 %, MAE, TAT, reporting)."""

import time

import numpy as np
import pytest

from repro.metrics.classification import F1Result, confusion_counts, f1_at_hotspot_threshold
from repro.metrics.regression import correlation, mae, max_error
from repro.metrics.report import CaseMetrics, average_metrics, metric_ratios, score_case
from repro.metrics.timing import Timer, measure_tat


class TestF1:
    def test_perfect_prediction(self):
        truth = np.zeros((10, 10))
        truth[5, 5] = 1.0
        result = f1_at_hotspot_threshold(truth.copy(), truth)
        assert result.f1 == 1.0
        assert result.tp == 1

    def test_miss_gives_zero(self):
        truth = np.zeros((10, 10))
        truth[5, 5] = 1.0
        prediction = np.zeros((10, 10))
        prediction[0, 0] = 1.0  # wrong location
        result = f1_at_hotspot_threshold(prediction, truth)
        assert result.f1 == 0.0
        assert result.fp == 1 and result.fn == 1

    def test_underestimated_peak_counts_as_fn(self):
        truth = np.zeros((4, 4))
        truth[0, 0] = 1.0
        prediction = truth * 0.8  # peak below the 0.9 threshold
        result = f1_at_hotspot_threshold(prediction, truth)
        assert result.fn == 1
        assert result.f1 == 0.0

    def test_threshold_uses_true_max(self):
        truth = np.array([[1.0, 0.95, 0.5]])
        prediction = np.array([[1.0, 0.96, 0.91]])
        result = f1_at_hotspot_threshold(prediction, truth)
        assert result.tp == 2   # 1.0 and 0.95 both above 0.9
        assert result.fp == 1   # 0.91 predicted hot but truth 0.5

    def test_precision_recall_f1_consistent(self):
        result = F1Result(tp=6, fp=2, tn=90, fn=2)
        assert result.precision == 0.75
        assert result.recall == 0.75
        assert np.isclose(result.f1, 0.75)

    def test_empty_positive_classes(self):
        result = F1Result(tp=0, fp=0, tn=10, fn=0)
        assert result.f1 == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_counts(np.zeros((2, 2)), np.zeros((3, 3)), 0.5)

    def test_fraction_validated(self):
        truth = np.ones((2, 2))
        with pytest.raises(ValueError):
            f1_at_hotspot_threshold(truth, truth, fraction=1.5)


class TestRegression:
    def test_mae_known_value(self):
        assert mae(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == 1.5

    def test_max_error(self):
        assert max_error(np.array([0.0, 5.0]), np.array([1.0, 0.0])) == 5.0

    def test_correlation_perfect(self):
        x = np.arange(10.0)
        assert np.isclose(correlation(x, 2 * x + 1), 1.0)

    def test_correlation_constant_input(self):
        assert correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mae(np.zeros(3), np.zeros(4))


class TestTiming:
    def test_timer_accumulates(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        with timer:
            time.sleep(0.01)
        assert timer.seconds >= 0.02

    def test_measure_tat(self):
        value, elapsed = measure_tat(lambda: 42)
        assert value == 42
        assert elapsed >= 0.0


class TestReport:
    def _rows(self):
        return [
            CaseMetrics("a", f1=0.5, mae=1e-4, tat_seconds=1.0),
            CaseMetrics("b", f1=0.7, mae=3e-4, tat_seconds=3.0),
        ]

    def test_score_case(self):
        truth = np.zeros((4, 4))
        truth[0, 0] = 0.01
        row = score_case("case", truth.copy(), truth, tat_seconds=0.5)
        assert row.f1 == 1.0
        assert row.mae == 0.0
        assert row.mae_1e4 == 0.0

    def test_mae_unit_conversion(self):
        row = CaseMetrics("x", f1=0.0, mae=2.5e-4, tat_seconds=0.0)
        assert np.isclose(row.mae_1e4, 2.5)

    def test_average(self):
        avg = average_metrics(self._rows())
        assert avg.case_name == "Avg"
        assert np.isclose(avg.f1, 0.6)
        assert np.isclose(avg.mae, 2e-4)
        assert np.isclose(avg.tat_seconds, 2.0)

    def test_average_empty_raises(self):
        with pytest.raises(ValueError):
            average_metrics([])

    def test_ratios_relative_to_reference(self):
        averages = {
            "ours": CaseMetrics("Avg", f1=0.5, mae=2e-4, tat_seconds=2.0),
            "them": CaseMetrics("Avg", f1=0.25, mae=4e-4, tat_seconds=1.0),
        }
        ratios = metric_ratios(averages, reference="ours")
        assert ratios["ours"] == {"f1": 1.0, "mae": 1.0, "tat": 1.0}
        assert np.isclose(ratios["them"]["f1"], 0.5)
        assert np.isclose(ratios["them"]["mae"], 2.0)
        assert np.isclose(ratios["them"]["tat"], 0.5)

    def test_missing_reference(self):
        with pytest.raises(KeyError):
            metric_ratios({}, reference="nope")
