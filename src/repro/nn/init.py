"""Weight initialisers with a seedable module-level generator.

All layers draw their initial weights from :data:`_GLOBAL_RNG`, so
:func:`seed` makes whole-model construction reproducible (the
reproduction's experiments rely on this).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["seed", "kaiming_uniform", "zeros", "ones"]

_GLOBAL_RNG = np.random.default_rng(0)


def seed(value: int) -> None:
    """Re-seed the generator used for all weight initialisation."""
    global _GLOBAL_RNG
    _GLOBAL_RNG = np.random.default_rng(value)


def _fan_in(shape: Sequence[int]) -> int:
    """Inputs per output unit of a dense (in, out) or conv (out, in, kh, kw)
    weight."""
    if len(shape) == 2:
        return shape[0]
    return int(np.prod(shape[1:]))


def kaiming_uniform(shape, fan_in: Optional[int] = None) -> np.ndarray:
    """He-uniform init, bound sqrt(6 / fan_in)."""
    fan_in = fan_in if fan_in is not None else _fan_in(shape)
    bound = np.sqrt(6.0 / fan_in)
    return _GLOBAL_RNG.uniform(-bound, bound, size=shape)


def zeros(shape) -> np.ndarray:
    """All-zero init (biases)."""
    return np.zeros(shape)


def ones(shape) -> np.ndarray:
    """All-one init (norm scales)."""
    return np.ones(shape)
