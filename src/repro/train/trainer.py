"""Two-stage training (paper §III-D / Fig. 2 bottom).

Stage 1 ("Pretrain"): the network reconstructs its (clean) input stack
from a noise-perturbed copy — a denoising-autoencoder task that teaches
the joint circuit+netlist representation.  Stage 2 ("Fine-tune"): the IR
head is trained with (masked) MSE against the golden IR map.  Models
without a reconstruction head (all baselines) run stage 2 only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.data.augment import PAPER_SIGMA_RANGE
from repro.data.case import CaseBundle
from repro.nn.losses import masked_mse
from repro.nn.module import Module
from repro.nn.optim import Adam, clip_grad_norm
from repro.train.loader import (
    Batch,
    BatchLoader,
    CasePreprocessor,
    DEFAULT_CACHE_SIZE,
    PreparedCaseCache,
)

__all__ = ["TrainConfig", "TrainHistory", "Trainer"]


@dataclass
class TrainConfig:
    """Optimisation settings (paper: Adam, lr=1e-3, batch 16, 200 epochs;
    defaults here are CPU-scale)."""

    epochs: int = 8
    pretrain_epochs: int = 0
    batch_size: int = 4
    lr: float = 1e-3
    augment: bool = True
    sigma_range: Tuple[float, float] = PAPER_SIGMA_RANGE
    grad_clip: float = 5.0
    seed: int = 0
    preprocess_cache: int = DEFAULT_CACHE_SIZE
    """Bound of the deterministic-preprocessing LRU shared by both training
    stages (0 disables caching and recomputes every draw)."""
    hotspot_weight: float = 0.0
    """Extra MSE weight on high-drop pixels: weight = 1 + w·(t/t_max)².

    The contest metric scores the top decile of the drop range, so the
    harness trains *every* model with the same mild hotspot emphasis
    (the paper achieves this architecturally via attention)."""

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("need at least one fine-tune epoch")
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be >= 0")
        if self.preprocess_cache < 0:
            raise ValueError("preprocess_cache must be >= 0")


@dataclass
class TrainHistory:
    """Loss curves of both stages."""

    pretrain_losses: List[float] = field(default_factory=list)
    finetune_losses: List[float] = field(default_factory=list)


class Trainer:
    """Drives the two-stage optimisation of one model."""

    def __init__(self, model: Module, preprocessor: CasePreprocessor,
                 config: Optional[TrainConfig] = None):
        self.model = model
        self.preprocessor = preprocessor
        self.config = config or TrainConfig()

    # ------------------------------------------------------------------
    def fit(self, cases: Sequence[CaseBundle]) -> TrainHistory:
        """Run pre-training (if configured and supported) then fine-tuning."""
        config = self.config
        history = TrainHistory()
        supports_recon = getattr(self.model, "recon_head", None) is not None
        # one deterministic-stage cache spans both stages: the pretrain and
        # fine-tune loaders draw the same cases, differing only in noise
        cache = (PreparedCaseCache(config.preprocess_cache)
                 if config.preprocess_cache else None)

        if config.pretrain_epochs and supports_recon:
            loader = self._loader(cases, seed=config.seed, cache=cache)
            history.pretrain_losses = self._run_stage(
                "pretrain", loader, config.pretrain_epochs
            )
        loader = self._loader(cases, seed=config.seed + 1, cache=cache)
        history.finetune_losses = self._run_stage(
            "finetune", loader, config.epochs
        )
        return history

    # ------------------------------------------------------------------
    def _loader(self, cases: Sequence[CaseBundle], seed: int,
                cache: Optional[PreparedCaseCache] = None) -> BatchLoader:
        return BatchLoader(
            cases, self.preprocessor,
            batch_size=self.config.batch_size,
            augment=self.config.augment,
            sigma_range=self.config.sigma_range,
            seed=seed,
            cache=cache if cache is not None else False,
        )

    def _run_stage(self, stage: str, loader: BatchLoader, epochs: int) -> List[float]:
        optimizer = Adam(self.model.parameters(), lr=self.config.lr)
        losses: List[float] = []
        self.model.train()
        for _ in range(epochs):
            epoch_losses = []
            for batch in loader:
                loss_value = self._step(stage, batch, optimizer)
                epoch_losses.append(loss_value)
            losses.append(float(np.mean(epoch_losses)))
        return losses

    def _step(self, stage: str, batch: Batch, optimizer: Adam) -> float:
        optimizer.zero_grad()
        if stage == "pretrain":
            prediction = self.model(batch.features, batch.points, head="recon")
            # denoising target: the clean (un-noised) normalised stack,
            # carried on each PreparedCase so it is never recomputed
            clean = np.stack([
                p.clean_features if p.clean_features is not None
                else self.preprocessor.prepare(p.case).features
                for p in batch.prepared
            ])
            target = nn.Tensor(clean)
            mask = np.broadcast_to(batch.masks, clean.shape)
        else:
            prediction = (self.model(batch.features, batch.points)
                          if batch.points is not None
                          else self.model(batch.features))
            target = batch.targets
            mask = batch.masks
            if self.config.hotspot_weight > 0:
                peak = max(float(target.data.max()), 1e-12)
                emphasis = 1.0 + self.config.hotspot_weight * (target.data / peak) ** 2
                mask = mask * emphasis
        loss = masked_mse(prediction, target, mask)
        loss.backward()
        if self.config.grad_clip:
            clip_grad_norm(self.model.parameters(), self.config.grad_clip)
        optimizer.step()
        return loss.item()
