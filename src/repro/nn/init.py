"""Weight initialisers with a seedable module-level generator.

All layers draw their initial weights from :data:`_GLOBAL_RNG` unless an
explicit generator is passed, so :func:`seed` makes whole-model construction
reproducible (the reproduction's experiments rely on this).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["seed", "default_rng", "kaiming_uniform", "normal", "zeros", "ones"]

_GLOBAL_RNG = np.random.default_rng(0)


def seed(value: int) -> None:
    """Re-seed the generator used for all default weight initialisation."""
    global _GLOBAL_RNG
    _GLOBAL_RNG = np.random.default_rng(value)


def default_rng() -> np.random.Generator:
    """The generator used by default weight initialisation."""
    return _GLOBAL_RNG


def _rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else _GLOBAL_RNG


def _fan_in(shape: Sequence[int]) -> int:
    """Inputs per output unit of a dense (in, out) or conv (out, in, kh, kw)
    weight."""
    if len(shape) == 2:
        return shape[0]
    return int(np.prod(shape[1:]))


def kaiming_uniform(shape, fan_in: Optional[int] = None,
                    rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """He-uniform init, bound sqrt(6 / fan_in)."""
    fan_in = fan_in if fan_in is not None else _fan_in(shape)
    bound = np.sqrt(6.0 / fan_in)
    return _rng(rng).uniform(-bound, bound, size=shape)


def normal(shape, mean: float = 0.0, std: float = 0.02,
           rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Gaussian init with the given mean/std."""
    return _rng(rng).normal(mean, std, size=shape)


def zeros(shape) -> np.ndarray:
    """All-zero init (biases)."""
    return np.zeros(shape)


def ones(shape) -> np.ndarray:
    """All-one init (norm scales)."""
    return np.ones(shape)
