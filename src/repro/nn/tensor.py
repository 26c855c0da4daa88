"""Autograd tensor: the foundation of the from-scratch NN framework.

The paper trains LMM-IR with PyTorch; this reproduction substitutes a
minimal reverse-mode autodiff engine on top of numpy (see EXPERIMENTS.md,
"Substitutions").  Every differentiable operation builds a
node in a dynamic DAG; :meth:`Tensor.backward` walks the DAG in reverse
topological order and accumulates gradients.

Only the plumbing lives here; the operators are the functions of
:mod:`repro.nn.functional`, which the models call directly.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "Parameter", "no_grad", "is_grad_enabled", "as_tensor"]

DEFAULT_DTYPE = np.float64


class _GradMode(threading.local):
    enabled = True


#: per thread: serving worker threads run forwards under ``no_grad``
#: concurrently, and with one process-wide flag their interleaved
#: restores could leave gradients off for every thread, training included
_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode) on
    the calling thread."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations on the calling thread record gradient
    information."""
    return _GRAD_MODE.enabled


ArrayLike = Union[np.ndarray, float, int, Sequence]


class Tensor:
    """A numpy array plus reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything :func:`numpy.asarray` accepts.  Stored as ``float64`` by
        default so finite-difference gradient checks are meaningful.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward_fn: Optional[Callable[[np.ndarray], None]] = None,
    ):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw arrays, not Tensors; use Tensor(t.data)")
        array = np.asarray(data)
        if array.dtype != DEFAULT_DTYPE:
            array = array.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = _parents
        self._backward_fn = _backward_fn

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_note})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``ones`` which is only allowed
            for scalar outputs (the usual loss case).
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    f"scalar output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}"
                )

        self.accumulate_grad(grad)
        for node in self._toposort():
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def _toposort(self) -> Iterable["Tensor"]:
        """Iterative reverse topological order starting from ``self``."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return reversed(order)


class Parameter(Tensor):
    """A tensor registered as a trainable module attribute."""

    __slots__ = ()

    def __init__(self, data: ArrayLike):
        super().__init__(data, requires_grad=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(shape={self.shape})"


def as_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    """Coerce scalars / arrays to (constant) tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _raise_item(tensor: Tensor) -> float:
    raise ValueError(f"item() requires a single-element tensor, got {tensor.shape}")
