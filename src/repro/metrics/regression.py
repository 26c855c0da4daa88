"""Regression metrics (paper Definition 2: MAE, plus diagnostics)."""

from __future__ import annotations

import numpy as np

__all__ = ["mae", "max_error", "correlation"]


def _validate(predicted: np.ndarray, truth: np.ndarray) -> None:
    if predicted.shape != truth.shape:
        raise ValueError(
            f"shape mismatch: predicted {predicted.shape} vs truth {truth.shape}"
        )


def mae(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Mean absolute voltage error (the contest reports it in 1e-4 V)."""
    _validate(predicted, truth)
    return float(np.mean(np.abs(predicted - truth)))


def max_error(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Largest absolute per-pixel error."""
    _validate(predicted, truth)
    return float(np.max(np.abs(predicted - truth)))


def correlation(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Pearson correlation; 0 when either map is constant."""
    _validate(predicted, truth)
    p, t = predicted.reshape(-1), truth.reshape(-1)
    if p.std() == 0 or t.std() == 0:
        return 0.0
    return float(np.corrcoef(p, t)[0, 1])
