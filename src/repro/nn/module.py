"""Module / parameter containers mirroring the familiar torch.nn API."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import Parameter, Tensor

__all__ = ["Module", "Sequential", "ModuleList"]


class Module:
    """Base class for all network components.

    Subclasses assign :class:`~repro.nn.tensor.Parameter` instances and other
    :class:`Module` instances as attributes; registration is automatic, so
    :meth:`parameters`, :meth:`state_dict` and friends see the whole tree.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_state_version", 0)

    # ------------------------------------------------------------------
    # Weight-state versioning
    # ------------------------------------------------------------------
    @property
    def state_version(self) -> int:
        """Monotone counter bumped by every :meth:`load_state_dict`.

        Consumers that snapshot weights (the compiled
        :class:`~repro.infer.engine.InferenceEngine` plans) compare this
        against the value they captured, so loading a checkpoint into a
        live model invalidates stale compiled state automatically.
        Direct ``param.data`` mutation cannot be observed this way — call
        :meth:`bump_state_version` (or the predictor's
        ``refresh_engine()``) after hand-editing weights.
        """
        return getattr(self, "_state_version", 0)

    def bump_state_version(self) -> int:
        """Mark the module's weights as changed (returns the new version)."""
        object.__setattr__(self, "_state_version", self.state_version + 1)
        return self._state_version

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable persistent state (e.g. running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a previously registered buffer in place of the attribute."""
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total trainable scalar count (for capacity reporting)."""
        return int(np.sum([p.size for p in self.parameters()])) if self.parameters() else 0

    # ------------------------------------------------------------------
    # Train / eval switching and gradient management
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.array(buf, copy=True)
        return state

    def check_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Raise unless ``state`` holds exactly this module's parameter and
        buffer keys, each with the shape it has now.

        Raises :class:`KeyError` for missing or unexpected keys and
        :class:`ValueError` for a shape mismatch; changes nothing.
        """
        own = {name: param.data for name, param in self.named_parameters()}
        own.update(self.named_buffers())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch; missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, current in own.items():
            shape = np.shape(state[name])
            if shape != np.shape(current):
                raise ValueError(
                    f"shape mismatch for {name}: {shape} vs {np.shape(current)}"
                )

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load every parameter and buffer from ``state`` and bump
        :attr:`state_version`; a state that fails
        :meth:`check_state_dict` raises before anything is written."""
        self.check_state_dict(state)
        loaded = [(param, np.asarray(state[name], dtype=param.data.dtype).copy())
                  for name, param in self.named_parameters()]
        for param, value in loaded:
            param.data = value
        self._load_buffers(state, prefix="")
        self.bump_state_version()

    def _load_buffers(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        for name in list(self._buffers):
            self._set_buffer(name, np.array(state[prefix + name], copy=True))
        for name, module in self._modules.items():
            module._load_buffers(state, prefix + name + ".")

    # ------------------------------------------------------------------
    # Forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self._layers: List[Module] = []
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)
            self._layers.append(layer)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x


class ModuleList(Module):
    """List container whose elements are registered as sub-modules."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        setattr(self, f"item{len(self._items)}", module)
        self._items.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
