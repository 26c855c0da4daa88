"""The assembled LMM-IR model (paper Fig. 2).

Dual-stream architecture: circuit encoder + LNT, cross-attention fusion at
the bottleneck, attention-gated decoder, and two output heads (IR
prediction and stage-1 reconstruction).  Every paper technique is a
constructor toggle so the Fig. 4 ablations are plain config changes:

========== ==========================================================
ablation    configuration
========== ==========================================================
EC          ``use_lnt=False, use_attention_gates=False``
W-Att       ``use_attention_gates=False`` (no AGs / bottleneck SA)
W-LNT       ``use_lnt=False`` (single-modality, circuit only)
W-Aug       full model, trainer runs without noise augmentation
United      full model + augmentation
========== ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import nn
from repro.nn.tensor import Tensor

from repro.core.circuit_encoder import CircuitEncoder
from repro.core.decoder import MultimodalDecoder
from repro.core.fusion import MultimodalFusion
from repro.core.lnt import LargeNetlistTransformer
from repro.pointcloud.encode import POINT_FEATURES

__all__ = ["LMMIRConfig", "LMMIR"]


@dataclass(frozen=True)
class LMMIRConfig:
    """Architecture hyper-parameters (paper-scale defaults are larger;
    these defaults suit CPU-scale experiments)."""

    in_channels: int = 6
    base_channels: int = 8
    depth: int = 3
    encoder_kernel: int = 7
    point_features: int = POINT_FEATURES
    netlist_dim: int = 32
    netlist_depth: int = 2
    netlist_heads: int = 4
    fusion_heads: int = 4
    fusion_depth: int = 1
    use_lnt: bool = True
    use_attention_gates: bool = True

    def __post_init__(self):
        if self.in_channels < 1 or self.base_channels < 1:
            raise ValueError("channel counts must be positive")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


class LMMIR(nn.Module):
    """Large-scale netlist-aware multimodal IR-drop predictor."""

    def __init__(self, config: Optional[LMMIRConfig] = None):
        super().__init__()
        self.config = config or LMMIRConfig()
        cfg = self.config

        self.encoder = CircuitEncoder(
            cfg.in_channels, cfg.base_channels, cfg.depth, cfg.encoder_kernel
        )
        if cfg.use_lnt:
            self.lnt = LargeNetlistTransformer(
                in_features=cfg.point_features,
                dim=cfg.netlist_dim,
                depth=cfg.netlist_depth,
                num_heads=cfg.netlist_heads,
            )
            self.fusion = MultimodalFusion(
                circuit_channels=self.encoder.out_channels,
                netlist_dim=cfg.netlist_dim,
                fusion_dim=cfg.netlist_dim,
                num_heads=cfg.fusion_heads,
                depth=cfg.fusion_depth,
            )
        else:
            self.lnt = None
            self.fusion = None

        self.decoder = MultimodalDecoder(
            bottleneck_channels=self.encoder.out_channels,
            skip_channels=self.encoder.skip_channels,
            use_attention_gates=cfg.use_attention_gates,
        )
        self.ir_head = nn.Conv2d(self.decoder.out_channels, 1, kernel_size=1)
        self.recon_head = nn.Conv2d(self.decoder.out_channels, cfg.in_channels,
                                    kernel_size=1)

    # ------------------------------------------------------------------
    def forward_features(self, circuit: Tensor,
                         points: Optional[Tensor] = None) -> Tensor:
        """Shared trunk: encode, fuse (if multimodal), decode."""
        bottleneck, skips = self.encoder(circuit)
        if self.lnt is not None:
            if points is None:
                raise ValueError(
                    "model was built with use_lnt=True; pass the netlist "
                    "point cloud (or rebuild with use_lnt=False)"
                )
            tokens = self.lnt(points)
            bottleneck = self.fusion(bottleneck, tokens)
        return self.decoder(bottleneck, skips)

    def forward(self, circuit: Tensor, points: Optional[Tensor] = None,
                head: str = "ir") -> Tensor:
        """Predict the IR map (``head='ir'``) or reconstruct the input
        stack (``head='recon'``, stage-1 pre-training)."""
        features = self.forward_features(circuit, points)
        if head == "ir":
            return self.ir_head(features)
        if head == "recon":
            return self.recon_head(features)
        raise ValueError(f"unknown head {head!r}; expected 'ir' or 'recon'")
