"""``repro.train`` — batching, two-stage training, seeding."""

from repro.train.loader import Batch, BatchLoader, CasePreprocessor, PreparedCase
from repro.train.seed import seed_everything
from repro.train.trainer import TrainConfig, Trainer, TrainHistory

__all__ = [
    "CasePreprocessor", "BatchLoader", "Batch", "PreparedCase",
    "Trainer", "TrainConfig", "TrainHistory",
    "seed_everything",
]
