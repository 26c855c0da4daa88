"""Fig. 4 ablation runner.

The paper's five configurations (all trained on the same data/budget):

========= ==========================================================
EC         plain encoder-decoder (no LNT, no attention gates)
W-Att      full model minus the attention mechanism
W-LNT      full model minus the netlist transformer (single modality)
W-Aug      full model minus Gaussian-noise augmentation
United     every technique enabled
========= ==========================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.model import LMMIR, LMMIRConfig
from repro.core.pipeline import IRPredictor
from repro.core.registry import MODEL_REGISTRY, OURS
from repro.data.dataset import IRDropDataset
from repro.data.synthesis import BenchmarkSuite
from repro.eval.harness import (
    FAKE_OVERSAMPLE,
    HOTSPOT_WEIGHT,
    REAL_OVERSAMPLE,
    EvalConfig,
    evaluate_predictor,
)
from repro.features.stack import ALL_CHANNELS
from repro.train.loader import CasePreprocessor
from repro.train.seed import seed_everything
from repro.train.trainer import TrainConfig, Trainer

__all__ = ["ABLATION_CONFIGS", "AblationRun", "build_ablation_model",
           "run_ablation"]


@dataclass(frozen=True)
class AblationSpec:
    """One Fig. 4 bar: architecture toggles + augmentation flag."""

    use_lnt: bool
    use_attention_gates: bool
    augment: bool


ABLATION_CONFIGS: Dict[str, AblationSpec] = {
    "EC": AblationSpec(use_lnt=False, use_attention_gates=False, augment=True),
    "W-Att": AblationSpec(use_lnt=True, use_attention_gates=False, augment=True),
    "W-LNT": AblationSpec(use_lnt=False, use_attention_gates=True, augment=True),
    "W-Aug": AblationSpec(use_lnt=True, use_attention_gates=True, augment=False),
    "United": AblationSpec(use_lnt=True, use_attention_gates=True, augment=True),
}


def build_ablation_model(ablation: AblationSpec) -> LMMIR:
    """The LMM-IR architecture of one Fig. 4 configuration."""
    return LMMIR(LMMIRConfig(
        in_channels=len(ALL_CHANNELS),
        base_channels=10,
        depth=2,
        encoder_kernel=5,
        use_lnt=ablation.use_lnt,
        use_attention_gates=ablation.use_attention_gates,
    ))


@dataclass
class AblationRun:
    """Scores of one configuration (averaged over the hidden cases)."""

    name: str
    f1: float
    mae: float
    train_seconds: float


def run_ablation(suite: BenchmarkSuite,
                 config: Optional[EvalConfig] = None,
                 configs: Optional[Dict[str, AblationSpec]] = None) -> List[AblationRun]:
    """Train/evaluate every ablation configuration of LMM-IR."""
    config = config or EvalConfig()
    configs = configs or ABLATION_CONFIGS
    spec = MODEL_REGISTRY[OURS]
    runs: List[AblationRun] = []
    for name, ablation in configs.items():
        seed_everything(config.seed)
        model = build_ablation_model(ablation)
        preprocessor = CasePreprocessor(
            channels=ALL_CHANNELS,
            target_edge=config.target_edge,
            num_points=config.num_points,
            use_pointcloud=ablation.use_lnt,
        )
        preprocessor.fit(suite.training_cases)
        dataset = IRDropDataset.with_oversampling(
            suite.training_cases,
            fake_times=FAKE_OVERSAMPLE,
            real_times=REAL_OVERSAMPLE,
        )
        trainer = Trainer(model, preprocessor, TrainConfig(
            epochs=max(1, int(round(config.epochs * spec.epoch_fraction))),
            pretrain_epochs=config.pretrain_epochs if ablation.use_lnt else 0,
            batch_size=config.batch_size,
            augment=ablation.augment,
            hotspot_weight=HOTSPOT_WEIGHT,
            seed=config.seed,
        ))
        start = time.perf_counter()
        trainer.fit(list(dataset))
        elapsed = time.perf_counter() - start

        predictor = IRPredictor(model, preprocessor, name=f"ablation:{name}")
        rows = evaluate_predictor(predictor, suite.hidden_cases)
        runs.append(AblationRun(
            name=name,
            f1=float(np.mean([r.f1 for r in rows])),
            mae=float(np.mean([r.mae for r in rows])),
            train_seconds=elapsed,
        ))
    return runs
