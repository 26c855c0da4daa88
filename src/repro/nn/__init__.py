"""``repro.nn`` — a from-scratch numpy deep-learning framework.

This package substitutes for PyTorch in the LMM-IR reproduction (see
EXPERIMENTS.md, "Substitutions").  It provides reverse-mode autodiff
(:mod:`repro.nn.tensor`, :mod:`repro.nn.functional`), module containers,
the layers and attention blocks the paper's architecture and the contest
baselines need, losses, optimisers and LR schedules.  The models train
with :func:`masked_mse` and :class:`Adam`.  Checkpoints are
:meth:`Module.state_dict` mappings, which :mod:`repro.serve.registry`
stores.
"""

from repro.nn import functional
from repro.nn.activations import GELU, ReLU, Sigmoid
from repro.nn.attention import (
    AttentionGate,
    CrossAttentionBlock,
    MultiHeadAttention,
    TransformerEncoderBlock,
    sinusoidal_positions,
)
from repro.nn.gradcheck import check_gradients, numerical_gradient
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Dropout,
    Embedding,
    Flatten,
    Identity,
    LayerNorm,
    Linear,
    MaxPool2d,
    UpsampleNearest2d,
)
from repro.nn.losses import BCEWithLogitsLoss, HuberLoss, L1Loss, MSELoss, masked_mse
from repro.nn.module import Module, ModuleList, Sequential
from repro.nn.optim import SGD, Adam, AdamW, Optimizer, clip_grad_norm
from repro.nn.schedulers import (
    CosineAnnealingLR,
    ExponentialLR,
    LRScheduler,
    StepLR,
    WarmupCosine,
)
from repro.nn.tensor import Parameter, Tensor, as_tensor, is_grad_enabled, no_grad
from repro.nn import init

__all__ = [
    "functional", "init",
    "Tensor", "Parameter", "as_tensor", "no_grad", "is_grad_enabled",
    "Module", "Sequential", "ModuleList",
    "Linear", "Conv2d", "ConvTranspose2d", "MaxPool2d", "AvgPool2d",
    "BatchNorm1d", "BatchNorm2d", "LayerNorm", "Dropout", "Embedding",
    "UpsampleNearest2d", "Flatten", "Identity",
    "ReLU", "Sigmoid", "GELU",
    "MultiHeadAttention", "TransformerEncoderBlock", "CrossAttentionBlock",
    "AttentionGate", "sinusoidal_positions",
    "MSELoss", "L1Loss", "HuberLoss", "BCEWithLogitsLoss", "masked_mse",
    "Optimizer", "SGD", "Adam", "AdamW", "clip_grad_norm",
    "LRScheduler", "StepLR", "ExponentialLR", "CosineAnnealingLR", "WarmupCosine",
    "check_gradients", "numerical_gradient",
]
