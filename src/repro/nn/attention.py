"""Attention blocks used throughout LMM-IR (paper §II-C, §III-C/D).

Three flavours appear in the paper:

* **self-attention** inside the Large-scale Netlist Transformer (LNT),
* **cross-attention** fusing the netlist embedding with the circuit
  embedding (queries come from one modality, keys/values from the other),
* **attention gates** (Oktay et al.) in the CNN decoder, which suppress
  feature responses in irrelevant IR regions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.activations import GELU, ReLU, Sigmoid
from repro.nn.layers import Conv2d, LayerNorm, Linear
from repro.nn.module import Module, Sequential
from repro.nn.tensor import Tensor

__all__ = [
    "MultiHeadAttention",
    "TransformerEncoderBlock",
    "CrossAttentionBlock",
    "AttentionGate",
]


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``num_heads`` parallel heads.

    Implements Eq. (1)-(2) of the paper: shared learnable projections
    ``W_Q, W_K, W_V`` followed by ``softmax(QK^T / sqrt(d)) V``.  Used for
    both self-attention (``key is None``) and cross-attention.
    """

    def __init__(self, dim: int, num_heads: int = 4):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim)
        self.k_proj = Linear(dim, dim)
        self.v_proj = Linear(dim, dim)
        self.out_proj = Linear(dim, dim)
        self._scale = 1.0 / np.sqrt(self.head_dim)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, length, _ = x.shape
        x = F.reshape(x, (batch, length, self.num_heads, self.head_dim))
        return F.transpose(x, (0, 2, 1, 3))

    def forward(self, query: Tensor, key: Optional[Tensor] = None,
                value: Optional[Tensor] = None) -> Tensor:
        """``query``: (B, Lq, D).  ``key``/``value`` default to ``query``."""
        key = key if key is not None else query
        value = value if value is not None else key
        batch, q_len, _ = query.shape

        q = self._split_heads(self.q_proj(query))
        k = self._split_heads(self.k_proj(key))
        v = self._split_heads(self.v_proj(value))

        scores = F.mul(F.matmul(q, F.transpose(k, (0, 1, 3, 2))), self._scale)
        weights = F.softmax(scores, axis=-1)
        attended = F.matmul(weights, v)

        merged = F.transpose(attended, (0, 2, 1, 3))
        merged = F.reshape(merged, (batch, q_len, self.dim))
        return self.out_proj(merged)


class TransformerEncoderBlock(Module):
    """Pre-norm transformer block: LN→MHA→residual, LN→MLP→residual."""

    def __init__(self, dim: int, num_heads: int = 4, mlp_ratio: float = 2.0):
        super().__init__()
        hidden = int(dim * mlp_ratio)
        self.norm1 = LayerNorm(dim)
        self.attention = MultiHeadAttention(dim, num_heads)
        self.norm2 = LayerNorm(dim)
        self.mlp = Sequential(Linear(dim, hidden), GELU(), Linear(hidden, dim))

    def forward(self, x: Tensor) -> Tensor:
        x = F.add(x, self.attention(self.norm1(x)))
        return F.add(x, self.mlp(self.norm2(x)))


class CrossAttentionBlock(Module):
    """Pre-norm cross-attention: queries from one modality, KV from another.

    This is the paper's fusion primitive (Fig. 2, "Cross Attention"): the
    circuit embedding queries the netlist embedding so each spatial token
    can pull in electrically relevant netlist context.
    """

    def __init__(self, dim: int, num_heads: int = 4, mlp_ratio: float = 2.0):
        super().__init__()
        hidden = int(dim * mlp_ratio)
        self.norm_query = LayerNorm(dim)
        self.norm_context = LayerNorm(dim)
        self.attention = MultiHeadAttention(dim, num_heads)
        self.norm_mlp = LayerNorm(dim)
        self.mlp = Sequential(Linear(dim, hidden), GELU(), Linear(hidden, dim))

    def forward(self, query: Tensor, context: Tensor) -> Tensor:
        attended = self.attention(self.norm_query(query), self.norm_context(context))
        x = F.add(query, attended)
        return F.add(x, self.mlp(self.norm_mlp(x)))


class AttentionGate(Module):
    """Additive attention gate for skip connections (Attention U-Net).

    ``psi = sigmoid(W_psi · relu(W_g g + W_x x))`` and the gated skip is
    ``x * psi``.  Both inputs must share spatial dimensions (we gate after
    the decoder has upsampled).
    """

    def __init__(self, gate_channels: int, skip_channels: int,
                 inter_channels: Optional[int] = None):
        super().__init__()
        inter_channels = inter_channels or max(skip_channels // 2, 1)
        self.gate_conv = Conv2d(gate_channels, inter_channels, kernel_size=1)
        self.skip_conv = Conv2d(skip_channels, inter_channels, kernel_size=1)
        self.psi = Conv2d(inter_channels, 1, kernel_size=1)
        self.relu = ReLU()
        self.sigmoid = Sigmoid()

    def forward(self, gate: Tensor, skip: Tensor) -> Tensor:
        if gate.shape[2:] != skip.shape[2:]:
            raise ValueError(
                f"attention gate expects matching spatial dims, got "
                f"{gate.shape[2:]} vs {skip.shape[2:]}"
            )
        mixed = self.relu(F.add(self.gate_conv(gate), self.skip_conv(skip)))
        coefficients = self.sigmoid(self.psi(mixed))
        return F.mul(skip, coefficients)
