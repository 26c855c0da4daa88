"""Per-channel normalisation (paper §III-A).

The paper normalises each channel "to similar intervals" to remove
inter-channel bias.  :class:`ChannelNormalizer` fits robust per-channel
statistics on the training set and applies the same affine map at
inference; :class:`TargetScaler` does the analogous 1-D scaling for the
IR-drop target so the MSE loss operates in a well-conditioned range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

__all__ = ["ChannelNormalizer", "TargetScaler"]

_EPS = 1e-12


@dataclass
class ChannelNormalizer:
    """Affine per-channel scaling ``(x - shift) / scale`` fit on data."""

    mode: str = "minmax"  # "minmax" | "zscore"
    shift: Optional[np.ndarray] = None
    scale: Optional[np.ndarray] = None

    def fit(self, stacks: Iterable[np.ndarray]) -> "ChannelNormalizer":
        """Fit statistics over an iterable of (C, H, W) stacks.

        Single streaming pass — only one stack is resident at a time, so
        fitting over a lazily loaded dataset (e.g.
        :class:`repro.data.dataset.ShardedSuiteDataset`) never
        materialises the whole training set.
        """
        if self.mode not in ("minmax", "zscore"):
            raise ValueError(f"unknown normalisation mode {self.mode!r}")
        channels = 0
        mins = maxs = mean = m2 = None
        pixels = 0
        for stack in stacks:
            flat = np.asarray(stack, dtype=float).reshape(stack.shape[0], -1)
            count = flat.shape[1]
            # per-stack moments are numpy-stable; merge via Chan et al.
            # (pairwise Welford), not E[x^2]-E[x]^2 which cancels
            # catastrophically on near-constant offset channels
            stack_mean = flat.mean(axis=1)
            stack_m2 = flat.var(axis=1) * count
            if mins is None:
                channels = flat.shape[0]
                mins = flat.min(axis=1)
                maxs = flat.max(axis=1)
                mean = stack_mean
                m2 = stack_m2
            elif flat.shape[0] != channels:
                raise ValueError("all stacks must share the channel count")
            else:
                np.minimum(mins, flat.min(axis=1), out=mins)
                np.maximum(maxs, flat.max(axis=1), out=maxs)
                delta = stack_mean - mean
                total = pixels + count
                mean = mean + delta * (count / total)
                m2 = m2 + stack_m2 + delta * delta * (pixels * count / total)
            pixels += count
        if mins is None:
            raise ValueError("cannot fit a normalizer on zero stacks")

        if self.mode == "minmax":
            self.shift = mins
            self.scale = np.maximum(maxs - mins, _EPS)
        else:
            self.shift = mean
            self.scale = np.maximum(np.sqrt(m2 / pixels), _EPS)
        return self

    def transform(self, stack: np.ndarray) -> np.ndarray:
        if self.shift is None or self.scale is None:
            raise RuntimeError("normalizer used before fit()")
        if stack.shape[0] != self.shift.size:
            raise ValueError(
                f"stack has {stack.shape[0]} channels, normalizer fit on "
                f"{self.shift.size}"
            )
        return (stack - self.shift[:, None, None]) / self.scale[:, None, None]


@dataclass
class TargetScaler:
    """Scale IR-drop targets to ≈[0, 1] by the training-set maximum."""

    max_value: Optional[float] = None

    def fit(self, targets: Iterable[np.ndarray]) -> "TargetScaler":
        peak = 0.0
        count = 0
        for target in targets:
            peak = max(peak, float(np.max(target)))
            count += 1
        if count == 0:
            raise ValueError("cannot fit a target scaler on zero maps")
        self.max_value = max(peak, _EPS)
        return self

    def transform(self, target: np.ndarray) -> np.ndarray:
        if self.max_value is None:
            raise RuntimeError("target scaler used before fit()")
        return target / self.max_value

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        if self.max_value is None:
            raise RuntimeError("target scaler used before fit()")
        return scaled * self.max_value
