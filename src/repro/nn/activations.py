"""Activation modules (thin wrappers over :mod:`repro.nn.functional`)."""

from __future__ import annotations

from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["ReLU", "Sigmoid", "GELU"]


class ReLU(Module):
    """Rectified linear unit, max(x, 0)."""
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Sigmoid(Module):
    """Logistic sigmoid, 1 / (1 + exp(-x))."""
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class GELU(Module):
    """Gaussian error linear unit (tanh approximation)."""
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)
