"""Quickstart: synthesize a PDN case, train a small LMM-IR, predict.

Runs in ~1 minute on a laptop CPU:

    python examples/quickstart.py
"""

import numpy as np

from repro.core import IRPredictor, LMMIR, LMMIRConfig
from repro.data import IRDropDataset, make_suite
from repro.metrics import score_case
from repro.train import CasePreprocessor, TrainConfig, Trainer, seed_everything
from repro.viz import render_ascii


def main() -> None:
    seed_everything(0)

    # 1. a miniature benchmark suite (see repro.data.synthesis for knobs)
    print("generating a synthetic benchmark suite ...")
    suite = make_suite(num_fake=4, num_real=2, num_hidden=2, seed=7)
    train_cases = suite.training_cases
    test_case = suite.hidden_cases[0]
    print(f"  {len(train_cases)} training cases, evaluating on {test_case.name} "
          f"({test_case.shape[0]}x{test_case.shape[1]} px, "
          f"{test_case.num_nodes} PDN nodes)")

    # 2. a small LMM-IR (paper-scale widths are larger; see the
    #    "Substitutions" section of EXPERIMENTS.md)
    model = LMMIR(LMMIRConfig(in_channels=6, base_channels=8, depth=2,
                              encoder_kernel=5))
    print(f"  model parameters: {model.num_parameters():,}")

    # 3. preprocessing: pad/scale to one edge + per-channel normalisation
    preprocessor = CasePreprocessor(target_edge=48, num_points=128)
    preprocessor.fit(train_cases)

    # 4. two-stage training (reconstruction pre-train, then IR fine-tune)
    dataset = IRDropDataset.with_oversampling(train_cases, fake_times=2,
                                              real_times=4)
    trainer = Trainer(model, preprocessor, TrainConfig(
        epochs=10, pretrain_epochs=2, batch_size=4, hotspot_weight=6.0))
    history = trainer.fit(list(dataset))
    print(f"  fine-tune loss: {history.finetune_losses[0]:.4f} -> "
          f"{history.finetune_losses[-1]:.4f}")

    # 5. predict and score with the contest metrics
    predictor = IRPredictor(model, preprocessor, name="LMM-IR")
    prediction, tat = predictor.predict_case(test_case)
    row = score_case(test_case.name, prediction, test_case.ir_map, tat)
    print(f"\n{test_case.name}: F1={row.f1:.2f}  "
          f"MAE={row.mae_1e4:.2f}e-4 V  TAT={row.tat_seconds * 1e3:.0f} ms")

    shared = (0.0, float(max(prediction.max(), test_case.ir_map.max())))
    print("\npredicted IR drop:")
    print(render_ascii(prediction, width=40, value_range=shared))
    print("\ngolden IR drop:")
    print(render_ascii(test_case.ir_map, width=40, value_range=shared))


if __name__ == "__main__":
    main()
