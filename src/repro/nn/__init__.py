"""``repro.nn`` — a from-scratch numpy deep-learning framework.

This package substitutes for PyTorch in the LMM-IR reproduction (see
EXPERIMENTS.md, "Substitutions").  It holds only what the registered
models, the Fig. 4 ablations and the trainer run: reverse-mode autodiff
(:mod:`repro.nn.tensor`, :mod:`repro.nn.functional`), module containers,
the layers and attention blocks of the paper's architecture and the
contest baselines, :func:`masked_mse` (plus :class:`MSELoss`) and
:class:`Adam`.  ``tests/nn/test_op_census.py`` fails when an export
stops being reached.  Checkpoints are :meth:`Module.state_dict`
mappings, which :mod:`repro.serve.registry` stores.
"""

from repro.nn import functional
from repro.nn.activations import GELU, ReLU, Sigmoid
from repro.nn.attention import (
    AttentionGate,
    CrossAttentionBlock,
    MultiHeadAttention,
    TransformerEncoderBlock,
)
from repro.nn.gradcheck import check_gradients, numerical_gradient
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    LayerNorm,
    Linear,
    MaxPool2d,
)
from repro.nn.losses import MSELoss, masked_mse
from repro.nn.module import Module, ModuleList, Sequential
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Parameter, Tensor, as_tensor, is_grad_enabled, no_grad
from repro.nn import init

__all__ = [
    "functional", "init",
    "Tensor", "Parameter", "as_tensor", "no_grad", "is_grad_enabled",
    "Module", "Sequential", "ModuleList",
    "Linear", "Conv2d", "ConvTranspose2d", "MaxPool2d", "BatchNorm2d",
    "LayerNorm", "ReLU", "Sigmoid", "GELU",
    "MultiHeadAttention", "TransformerEncoderBlock", "CrossAttentionBlock",
    "AttentionGate",
    "MSELoss", "masked_mse",
    "Adam", "clip_grad_norm",
    "check_gradients", "numerical_gradient",
]
