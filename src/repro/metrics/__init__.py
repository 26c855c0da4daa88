"""``repro.metrics`` — F1 @ hotspot threshold, MAE, TAT, reporting."""

from repro.metrics.classification import (
    F1Result,
    confusion_counts,
    f1_at_hotspot_threshold,
)
from repro.metrics.regression import correlation, mae, max_error
from repro.metrics.report import (
    CaseMetrics,
    average_metrics,
    metric_ratios,
    score_case,
)
from repro.metrics.timing import Timer, measure_tat

__all__ = [
    "F1Result", "f1_at_hotspot_threshold", "confusion_counts",
    "mae", "max_error", "correlation",
    "Timer", "measure_tat",
    "CaseMetrics", "score_case", "average_metrics", "metric_ratios",
]
