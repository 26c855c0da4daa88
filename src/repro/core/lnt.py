"""Large-scale Netlist Transformer (LNT) — the paper's key contribution.

Consumes the netlist point cloud (one token per element, §III-B/C) and
produces a sequence of netlist embeddings via a trainable input embedding
followed by stacked self-attention blocks.

Note: the paper's Fig. 2 shows "Linear & BatchNorm & ReLU" for the input
embedding; we use LayerNorm in its place (the standard choice for token
sequences — BatchNorm over variable token counts is ill-defined at batch
size 1, which inference uses).
"""

from __future__ import annotations

from repro import nn
from repro.nn.tensor import Tensor

__all__ = ["LargeNetlistTransformer"]


class LargeNetlistTransformer(nn.Module):
    """Point-cloud transformer over netlist element tokens.

    Parameters
    ----------
    in_features:
        Columns of the point encoding (11; see repro.pointcloud.encode).
    dim:
        Token embedding width.
    depth:
        Number of self-attention blocks ("×N" in the paper's figure).
    num_heads:
        Attention heads per block.
    """

    def __init__(self, in_features: int = 11, dim: int = 32, depth: int = 2,
                 num_heads: int = 4, mlp_ratio: float = 2.0):
        super().__init__()
        if depth < 1:
            raise ValueError(f"LNT depth must be >= 1, got {depth}")
        self.dim = dim
        self.embed = nn.Sequential(
            nn.Linear(in_features, dim),
            nn.LayerNorm(dim),
            nn.ReLU(),
        )
        self.blocks = nn.ModuleList([
            nn.TransformerEncoderBlock(dim, num_heads, mlp_ratio)
            for _ in range(depth)
        ])
        self.norm = nn.LayerNorm(dim)

    def forward(self, points: Tensor) -> Tensor:
        """(B, N, in_features) element tokens → (B, N, dim) embeddings."""
        if points.ndim != 3:
            raise ValueError(f"expected (B, N, F) points, got shape {points.shape}")
        tokens = self.embed(points)
        for block in self.blocks:
            tokens = block(tokens)
        return self.norm(tokens)
