"""Loss functions.  LMM-IR trains end-to-end with MSE (paper §III-D)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["MSELoss", "masked_mse"]


class MSELoss(Module):
    """Mean squared error over all elements."""

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        diff = F.sub(prediction, target)
        return F.mean(F.mul(diff, diff))


def masked_mse(prediction: Tensor, target: Tensor,
               mask: Optional[np.ndarray] = None) -> Tensor:
    """MSE restricted to ``mask`` (used to ignore padded border pixels)."""
    diff = F.sub(prediction, target)
    squared = F.mul(diff, diff)
    if mask is None:
        return F.mean(squared)
    mask = np.asarray(mask, dtype=float)
    total = float(mask.sum())
    if total == 0:
        raise ValueError("masked_mse needs at least one unmasked element")
    return F.div(F.sum(F.mul(squared, mask)), total)
