"""Optimisers.  The paper trains with Adam (lr=1e-3), reproduced here."""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.tensor import Parameter

__all__ = ["Adam", "clip_grad_norm"]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction (Kingma & Ba), no weight decay."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.state: Dict[int, Dict[str, np.ndarray]] = {}
        self._step_count = 0

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            state = self.state.setdefault(index, {
                "m": np.zeros_like(param.data),
                "v": np.zeros_like(param.data),
            })
            state["m"] = BETA1 * state["m"] + (1 - BETA1) * grad
            state["v"] = BETA2 * state["v"] + (1 - BETA2) * grad ** 2
            m_hat = state["m"] / (1 - BETA1 ** self._step_count)
            v_hat = state["v"] / (1 - BETA2 ** self._step_count)
            param.data = param.data - self.lr * (m_hat / (np.sqrt(v_hat) + EPS))


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``."""
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(np.sum([float((p.grad ** 2).sum()) for p in params])))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for param in params:
            param.grad = param.grad * scale
    return total
