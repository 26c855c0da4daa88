"""Tests for batch preparation and the two-stage trainer."""

import numpy as np
import pytest

from repro.core.model import LMMIR, LMMIRConfig
from repro.core.pipeline import IRPredictor
from repro.data.synthesis import synthesize_case
from repro.train.loader import BatchLoader, CasePreprocessor
from repro.train.seed import seed_everything
from repro.train.trainer import TrainConfig, Trainer


@pytest.fixture(scope="module")
def cases():
    return [synthesize_case("fake", seed=s) for s in (100, 101)]


@pytest.fixture(scope="module")
def preprocessor(cases):
    pre = CasePreprocessor(target_edge=16, num_points=32)
    pre.fit(cases)
    return pre


def tiny_model():
    seed_everything(0)
    return LMMIR(LMMIRConfig(in_channels=6, base_channels=4, depth=2,
                             encoder_kernel=3, netlist_dim=8, netlist_depth=1,
                             netlist_heads=2, fusion_heads=2))


class TestCasePreprocessor:
    def test_prepare_shapes(self, preprocessor, cases):
        prepared = preprocessor.prepare(cases[0])
        assert prepared.features.shape == (6, 16, 16)
        assert prepared.target.shape == (1, 16, 16)
        assert prepared.mask.shape == (1, 16, 16)
        assert prepared.points.shape == (32, 11)

    def test_unfitted_raises(self, cases):
        with pytest.raises(RuntimeError):
            CasePreprocessor(target_edge=16).prepare(cases[0])

    def test_augmentation_changes_features(self, preprocessor, cases):
        clean = preprocessor.prepare(cases[0])
        noisy = preprocessor.prepare(
            cases[0], augment_rng=np.random.default_rng(0),
            sigma_range=(1e-3, 1e-3))
        assert not np.array_equal(clean.features, noisy.features)
        assert np.array_equal(clean.target, noisy.target)  # target untouched

    def test_collate_batches(self, preprocessor, cases):
        prepared = [preprocessor.prepare(c) for c in cases]
        batch = preprocessor.collate(prepared)
        assert batch.features.shape == (2, 6, 16, 16)
        assert batch.points.shape == (2, 32, 11)
        assert batch.targets.shape == (2, 1, 16, 16)
        assert len(batch) == 2

    def test_no_pointcloud_mode(self, cases):
        pre = CasePreprocessor(target_edge=16, use_pointcloud=False)
        pre.fit(cases)
        batch = pre.collate([pre.prepare(cases[0])])
        assert batch.points is None

    def test_invalid_edge(self):
        with pytest.raises(ValueError):
            CasePreprocessor(target_edge=2)


class TestBatchLoader:
    def test_batch_count(self, preprocessor, cases):
        loader = BatchLoader(cases * 3, preprocessor, batch_size=4)
        assert len(loader) == 2  # 6 cases -> batches of 4 + 2

    def test_iterates_all_cases(self, preprocessor, cases):
        loader = BatchLoader(cases * 2, preprocessor, batch_size=3, seed=1)
        seen = [p.case.name for batch in loader for p in batch.prepared]
        assert len(seen) == 4

    def test_shuffles_between_epochs(self, preprocessor, cases):
        loader = BatchLoader(cases * 4, preprocessor, batch_size=8, seed=2)
        first = [p.case.name for b in loader for p in b.prepared]
        second = [p.case.name for b in loader for p in b.prepared]
        assert sorted(first) == sorted(second)

    def test_invalid_batch_size(self, preprocessor, cases):
        with pytest.raises(ValueError):
            BatchLoader(cases, preprocessor, batch_size=0)


class TestTrainer:
    def test_loss_decreases(self, preprocessor, cases):
        model = tiny_model()
        trainer = Trainer(model, preprocessor,
                          TrainConfig(epochs=5, batch_size=2, augment=False))
        history = trainer.fit(cases)
        assert history.finetune_losses[-1] < history.finetune_losses[0]

    def test_two_stage_records_both(self, preprocessor, cases):
        model = tiny_model()
        trainer = Trainer(model, preprocessor,
                          TrainConfig(epochs=2, pretrain_epochs=2, batch_size=2))
        history = trainer.fit(cases)
        assert len(history.pretrain_losses) == 2
        assert len(history.finetune_losses) == 2

    def test_pretrain_skipped_without_recon_head(self, cases):
        from repro.baselines import IREDGe

        pre = CasePreprocessor(channels=("current", "eff_dist", "pdn_density"),
                               target_edge=16, use_pointcloud=False)
        pre.fit(cases)
        model = IREDGe(base_channels=4, depth=2)
        trainer = Trainer(model, pre,
                          TrainConfig(epochs=1, pretrain_epochs=3, batch_size=2))
        history = trainer.fit(cases)
        assert history.pretrain_losses == []

    def test_hotspot_weight_changes_training(self, preprocessor, cases):
        losses = {}
        for weight in (0.0, 8.0):
            model = tiny_model()
            trainer = Trainer(model, preprocessor,
                              TrainConfig(epochs=2, batch_size=2, augment=False,
                                          hotspot_weight=weight, seed=3))
            losses[weight] = trainer.fit(cases).finetune_losses[-1]
        assert losses[0.0] != losses[8.0]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(pretrain_epochs=-1)


class TestPredictorPipeline:
    def test_predict_native_shape(self, preprocessor, cases):
        model = tiny_model()
        Trainer(model, preprocessor,
                TrainConfig(epochs=1, batch_size=2)).fit(cases)
        predictor = IRPredictor(model, preprocessor)
        prediction, tat = predictor.predict_case(cases[0])
        assert prediction.shape == cases[0].shape
        assert (prediction >= 0).all()
        assert tat > 0

    def test_tta_slows_and_stays_close(self, preprocessor, cases):
        model = tiny_model()
        plain = IRPredictor(model, preprocessor, tta_samples=1)
        heavy = IRPredictor(model, preprocessor, tta_samples=5)
        # warm both so the one-time inference-plan compilation does not
        # land inside the compared TATs
        plain.predict_case(cases[0])
        heavy.predict_case(cases[0])
        # best of 3 interleaved runs per side: one stall on a loaded
        # machine must not decide the comparison
        tats_plain, tats_heavy = [], []
        for _ in range(3):
            map_plain, tat = plain.predict_case(cases[0])
            tats_plain.append(tat)
            map_heavy, tat = heavy.predict_case(cases[0])
            tats_heavy.append(tat)
        tat_plain, tat_heavy = min(tats_plain), min(tats_heavy)
        assert tat_heavy > tat_plain
        assert np.abs(map_plain - map_heavy).mean() < 0.01

    def test_tta_validated(self, preprocessor):
        with pytest.raises(ValueError):
            IRPredictor(tiny_model(), preprocessor, tta_samples=0)

    def test_predict_many(self, preprocessor, cases):
        model = tiny_model()
        predictor = IRPredictor(model, preprocessor)
        results = predictor.predict_many(cases)
        assert len(results) == 2
