"""Integration tests for the evaluation harness (tiny budgets)."""

import os

import numpy as np
import pytest

from repro.data.synthesis import make_suite
from repro.eval.ablation import ABLATION_CONFIGS, run_ablation
from repro.eval.figures import export_visual_comparison
from repro.eval.harness import (
    ComparisonResult,
    EvalConfig,
    evaluate_predictor,
    run_comparison,
    train_predictor,
)
from repro.eval.tables import format_fig4, format_table1, format_table2, format_table3
from repro.core.registry import MODEL_REGISTRY, OURS


TINY = EvalConfig(target_edge=16, num_points=32, epochs=1, pretrain_epochs=0,
                  batch_size=2)


@pytest.fixture(scope="module")
def suite():
    # seed chosen so the tiny 1-epoch model clears the hotspot threshold
    # (nonzero F1) on both hidden cases under the SeedSequence case seeds
    return make_suite(num_fake=2, num_real=1, num_hidden=2, seed=12)


class TestEvalConfig:
    def test_from_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_EPOCHS", "7")
        monkeypatch.setenv("REPRO_EVAL_EDGE", "32")
        config = EvalConfig.from_env()
        assert config.epochs == 7
        assert config.target_edge == 32

    def test_from_env_kwargs_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_EPOCHS", "7")
        config = EvalConfig.from_env(epochs=3)
        assert config.epochs == 3

    def test_from_env_rejects_unknown_override(self):
        # a typo must not silently leave the intended field at its default
        with pytest.raises(TypeError, match="pretrain_epoch"):
            EvalConfig.from_env(pretrain_epoch=0)

    def test_from_env_round_trips_every_field(self, monkeypatch):
        """Every EvalConfig field is settable from the environment."""
        reference = EvalConfig(
            target_edge=24, num_points=48, epochs=5, pretrain_epochs=1,
            batch_size=3, lr=2.5e-4, fake_oversample=2, real_oversample=7,
            hotspot_weight=3.5, seed=9, checkpoint_dir="/tmp/ckpts",
            retrain=True,
        )
        env = {
            "REPRO_EVAL_EDGE": "24", "REPRO_EVAL_POINTS": "48",
            "REPRO_EVAL_EPOCHS": "5", "REPRO_EVAL_PRETRAIN": "1",
            "REPRO_EVAL_BATCH": "3", "REPRO_EVAL_LR": "2.5e-4",
            "REPRO_EVAL_FAKE_OVERSAMPLE": "2",
            "REPRO_EVAL_REAL_OVERSAMPLE": "7",
            "REPRO_EVAL_HOTSPOT_WEIGHT": "3.5", "REPRO_EVAL_SEED": "9",
            "REPRO_EVAL_CHECKPOINT_DIR": "/tmp/ckpts",
            "REPRO_EVAL_RETRAIN": "1",
        }
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert EvalConfig.from_env() == reference

    def test_from_env_float_fields_parse_floats(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_LR", "1e-2")
        monkeypatch.setenv("REPRO_EVAL_HOTSPOT_WEIGHT", "0.25")
        config = EvalConfig.from_env()
        assert config.lr == pytest.approx(1e-2)
        assert config.hotspot_weight == pytest.approx(0.25)
        # and the untouched fields keep their defaults
        assert config.fake_oversample == EvalConfig.fake_oversample
        assert config.real_oversample == EvalConfig.real_oversample


class TestHarness:
    def test_train_and_evaluate_ours(self, suite):
        predictor, train_seconds = train_predictor(OURS, suite, TINY)
        assert train_seconds > 0
        rows = evaluate_predictor(predictor, suite.hidden_cases)
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= row.f1 <= 1.0
            assert row.mae >= 0.0
            assert row.tat_seconds > 0.0

    def test_real_only_regime_uses_subset(self, suite):
        predictor, _ = train_predictor("IRPnet", suite, TINY)
        # IRPnet sees only the contest channels
        assert predictor.preprocessor.channels == MODEL_REGISTRY["IRPnet"].channels

    def test_run_comparison_structure(self, suite):
        result = run_comparison(suite, ["IREDGe", OURS], TINY, reference=OURS)
        assert isinstance(result, ComparisonResult)
        assert set(result.per_model) == {"IREDGe", OURS}
        assert result.ratios[OURS] == {"f1": pytest.approx(1.0),
                                       "mae": pytest.approx(1.0),
                                       "tat": pytest.approx(1.0)}
        assert result.case_names == [c.name for c in suite.hidden_cases]

    def test_run_comparison_workers_validated(self, suite):
        with pytest.raises(ValueError):
            run_comparison(suite, ["IREDGe"], TINY, workers=0)


class TestManifestHarness:
    """The harness path that never materialises the suite: a lazy
    dataset over a streamed build's manifest."""

    @pytest.fixture(scope="class")
    def streamed(self, tmp_path_factory):
        from repro.data.synthesis import SynthesisSettings, stream_suite

        out_dir = tmp_path_factory.mktemp("eval_streamed")
        manifest = stream_suite(
            str(out_dir), num_fake=2, num_real=1, num_hidden=2, seed=12,
            settings=SynthesisSettings())
        return out_dir, manifest

    def test_manifest_path_dataset_and_dir_agree(self, streamed):
        """A dataset opened from the manifest path, one over the loaded
        manifest, and the same cases read eagerly into a suite score
        identically."""
        out_dir, manifest = streamed
        from repro.data.dataset import ShardedSuiteDataset
        from repro.data.synthesis import suite_from_manifest

        by_path = run_comparison(
            ShardedSuiteDataset(str(out_dir / "manifest.json")), ["IREDGe"],
            TINY, reference="IREDGe")
        by_dataset = run_comparison(ShardedSuiteDataset(manifest), ["IREDGe"],
                                    TINY, reference="IREDGe")
        by_suite = run_comparison(suite_from_manifest(manifest), ["IREDGe"],
                                  TINY, reference="IREDGe")
        rows = by_path.per_model["IREDGe"]
        assert [r.case_name for r in rows] == by_path.case_names
        assert len(rows) == 2
        for other in (by_dataset, by_suite):
            assert other.case_names == by_path.case_names
            for a, b in zip(rows, other.per_model["IREDGe"]):
                assert (a.case_name, a.f1, a.mae) == (b.case_name, b.f1, b.mae)

    def test_train_predictor_accepts_manifest(self, streamed):
        _, manifest = streamed
        from repro.data.dataset import ShardedSuiteDataset

        predictor, _ = train_predictor("IRPnet", ShardedSuiteDataset(manifest),
                                       TINY)
        assert predictor.preprocessor.channels == MODEL_REGISTRY["IRPnet"].channels

    def test_incomplete_dataset_behaves_same_for_any_workers(self, streamed):
        from dataclasses import replace
        from repro.data.dataset import ShardedSuiteDataset

        _, manifest = streamed
        # drop one fake case: still trainable/evaluable, but incomplete
        partial = replace(manifest,
                          refs=[r for r in manifest.refs if r.index != 0])
        dataset = ShardedSuiteDataset(partial, require_complete=False)
        sequential = run_comparison(dataset, ["IREDGe", "IRPnet"], TINY,
                                    reference="IREDGe", workers=1)
        parallel = run_comparison(dataset, ["IREDGe", "IRPnet"], TINY,
                                  reference="IREDGe", workers=2)
        for name in sequential.per_model:
            for a, b in zip(sequential.per_model[name],
                            parallel.per_model[name]):
                assert (a.case_name, a.f1, a.mae) == (b.case_name, b.f1, b.mae)

    def test_parallel_workers_match_sequential(self, streamed):
        _, manifest = streamed
        from repro.data.dataset import ShardedSuiteDataset

        dataset = ShardedSuiteDataset(manifest)
        names = ["IREDGe", "IRPnet"]
        sequential = run_comparison(dataset, names, TINY,
                                    reference="IREDGe", workers=1)
        parallel = run_comparison(dataset, names, TINY,
                                  reference="IREDGe", workers=2)
        for name in names:
            for a, b in zip(sequential.per_model[name], parallel.per_model[name]):
                assert (a.case_name, a.f1, a.mae) == (b.case_name, b.f1, b.mae)
        for name in names:
            assert sequential.ratios[name]["f1"] == parallel.ratios[name]["f1"]
            assert sequential.ratios[name]["mae"] == parallel.ratios[name]["mae"]


class TestCheckpoints:
    """Persisted trained weights: rerunning a comparison skips training."""

    @staticmethod
    def _counting_fit(monkeypatch):
        from repro.train.trainer import Trainer

        calls = []
        original = Trainer.fit

        def counted(self, cases):
            calls.append(1)
            return original(self, cases)

        monkeypatch.setattr(Trainer, "fit", counted)
        return calls

    def test_second_run_skips_training_with_identical_scores(
            self, suite, tmp_path, monkeypatch):
        calls = self._counting_fit(monkeypatch)
        config = EvalConfig(target_edge=16, num_points=32, epochs=1,
                            pretrain_epochs=0, batch_size=2,
                            checkpoint_dir=str(tmp_path))
        first = run_comparison(suite, ["IREDGe"], config)
        assert len(calls) == 1
        second = run_comparison(suite, ["IREDGe"], config)
        assert len(calls) == 1  # loaded, not retrained
        a, b = first.averages["IREDGe"], second.averages["IREDGe"]
        assert (a.f1, a.mae) == (b.f1, b.mae)
        for x, y in zip(first.per_model["IREDGe"], second.per_model["IREDGe"]):
            assert (x.case_name, x.f1, x.mae) == (y.case_name, y.f1, y.mae)
        # the recorded train time of the original run is reported
        assert second.train_seconds == first.train_seconds

    def test_retrain_forces_training(self, suite, tmp_path, monkeypatch):
        calls = self._counting_fit(monkeypatch)
        config = EvalConfig(target_edge=16, num_points=32, epochs=1,
                            pretrain_epochs=0, batch_size=2,
                            checkpoint_dir=str(tmp_path))
        run_comparison(suite, ["IREDGe"], config)
        config.retrain = True
        run_comparison(suite, ["IREDGe"], config)
        assert len(calls) == 2

    def test_config_change_invalidates_checkpoint(
            self, suite, tmp_path, monkeypatch):
        calls = self._counting_fit(monkeypatch)
        config = EvalConfig(target_edge=16, num_points=32, epochs=1,
                            pretrain_epochs=0, batch_size=2,
                            checkpoint_dir=str(tmp_path))
        train_predictor("IREDGe", suite, config)
        other = EvalConfig(target_edge=16, num_points=32, epochs=2,
                           pretrain_epochs=0, batch_size=2,
                           checkpoint_dir=str(tmp_path))
        train_predictor("IREDGe", suite, other)
        assert len(calls) == 2

    def test_corrupt_checkpoint_is_retrained(self, suite, tmp_path, monkeypatch):
        calls = self._counting_fit(monkeypatch)
        config = EvalConfig(target_edge=16, num_points=32, epochs=1,
                            pretrain_epochs=0, batch_size=2,
                            checkpoint_dir=str(tmp_path))
        train_predictor("IREDGe", suite, config)
        corrupted = 0
        for root, _dirs, files in os.walk(tmp_path):
            for name in files:
                if name.endswith(".npz"):
                    # truncated zip magic: the nastiest corruption mode
                    # (raises BadZipFile, not ValueError, inside np.load)
                    with open(os.path.join(root, name), "wb") as handle:
                        handle.write(b"PK\x03\x04garbage")
                    corrupted += 1
        assert corrupted == 1
        train_predictor("IREDGe", suite, config)
        assert len(calls) == 2

    def test_partial_manifest_dataset_does_not_reuse_full_suite_weights(
            self, suite, tmp_path, monkeypatch):
        """A shard / incomplete dataset shares suite+settings provenance
        with the full build; only the case roster tells them apart, and
        half-data weights must never be silently reused."""
        from dataclasses import replace as dc_replace

        from repro.data.dataset import ShardedSuiteDataset
        from repro.data.synthesis import stream_suite

        manifest = stream_suite(str(tmp_path / "suite"), num_fake=2,
                                num_real=1, num_hidden=2, seed=12)
        calls = self._counting_fit(monkeypatch)
        config = EvalConfig(target_edge=16, num_points=32, epochs=1,
                            pretrain_epochs=0, batch_size=2,
                            checkpoint_dir=str(tmp_path / "ckpt"))
        train_predictor("IREDGe", ShardedSuiteDataset(manifest), config)
        partial = dc_replace(manifest,
                             refs=[r for r in manifest.refs if r.index != 0])
        train_predictor(
            "IREDGe",
            ShardedSuiteDataset(partial, require_complete=False), config)
        assert len(calls) == 2  # different rosters, different checkpoints

    def test_inmemory_suite_settings_change_invalidates_checkpoint(
            self, tmp_path, monkeypatch):
        """Two in-memory suites with identical rosters but different
        synthesis settings produce different golden data — the content
        digest in the identity must force a retrain."""
        from repro.data.synthesis import SynthesisSettings, make_suite

        sizes = dict(num_fake=2, num_real=1, num_hidden=1, seed=12)
        default = make_suite(**sizes)
        smoother = make_suite(settings=SynthesisSettings(
            golden_smooth_sigma=1.0), **sizes)
        assert [c.name for c in default.all_cases()] \
            == [c.name for c in smoother.all_cases()]
        calls = self._counting_fit(monkeypatch)
        config = EvalConfig(target_edge=16, num_points=32, epochs=1,
                            pretrain_epochs=0, batch_size=2,
                            checkpoint_dir=str(tmp_path))
        train_predictor("IREDGe", default, config)
        train_predictor("IREDGe", smoother, config)
        assert len(calls) == 2

    def test_no_checkpoint_dir_trains_every_time(self, suite, monkeypatch):
        calls = self._counting_fit(monkeypatch)
        train_predictor("IREDGe", suite, TINY)
        train_predictor("IREDGe", suite, TINY)
        assert len(calls) == 2


class TestAblation:
    def test_configs_match_paper(self):
        assert set(ABLATION_CONFIGS) == {"EC", "W-Att", "W-LNT", "W-Aug", "United"}
        assert not ABLATION_CONFIGS["EC"].use_lnt
        assert not ABLATION_CONFIGS["W-Att"].use_attention_gates
        assert not ABLATION_CONFIGS["W-LNT"].use_lnt
        assert not ABLATION_CONFIGS["W-Aug"].augment
        united = ABLATION_CONFIGS["United"]
        assert united.use_lnt and united.use_attention_gates and united.augment

    def test_run_subset(self, suite):
        subset = {k: ABLATION_CONFIGS[k] for k in ("EC", "United")}
        runs = run_ablation(suite, TINY, configs=subset)
        assert [r.name for r in runs] == ["EC", "United"]
        for run in runs:
            assert run.mae >= 0.0
            assert run.train_seconds > 0.0


class TestFigures:
    def test_export_visual_comparison(self, suite, tmp_path):
        predictor, _ = train_predictor("IREDGe", suite, TINY)
        case = suite.hidden_cases[0]
        maps = export_visual_comparison(case, [predictor],
                                        output_dir=str(tmp_path))
        assert "G.T." in maps and "IREDGe" in maps
        files = os.listdir(tmp_path)
        assert any(f.endswith("_comparison.ppm") for f in files)
        assert any(f.endswith("_comparison.txt") for f in files)
        assert any(f.endswith("_gt.ppm") for f in files)


class TestTables:
    def test_table1_marks_ours_full(self):
        text = format_table1(["IREDGe", OURS])
        ours_line = [l for l in text.splitlines() if l.startswith(OURS)][0]
        assert "no" not in ours_line.replace("LMM", "")
        iredge_line = [l for l in text.splitlines() if l.startswith("IREDGe")][0]
        assert "yes" not in iredge_line

    def test_table2_lists_hidden_cases(self, suite):
        text = format_table2(suite)
        for case in suite.hidden_cases:
            assert case.name in text
            assert f"{case.num_nodes:,}" in text

    def test_table3_renders(self, suite):
        result = run_comparison(suite, ["IREDGe"], TINY, reference="IREDGe")
        text = format_table3(result, ["IREDGe"])
        assert "Avg" in text and "Ratio" in text
        assert "testcase7" in text

    def test_fig4_renders(self):
        text = format_fig4({"EC": (0.27, 1.93e-4), "United": (0.58, 1.35e-4)})
        assert "EC" in text and "United" in text
        assert "1.93" in text
