"""Determinism and batching contracts of :class:`IRPredictor`.

Pins the PR-3 inference guarantees: TTA noise is a pure function of
(predictor seed, case name) so prediction order cannot leak between
cases; batched TTA agrees with the sequential execution to <= 1e-10 on
the float64 engine, and batched ``predict_many`` with ``predict_case``
in both engine dtypes; and per-case TAT accounting survives batching.
"""

import numpy as np
import pytest

from repro.core.model import LMMIR, LMMIRConfig
from repro.core.pipeline import IRPredictor
from repro.data.synthesis import synthesize_case
from repro.train.loader import CasePreprocessor
from repro.train.seed import seed_everything
from repro.train.trainer import TrainConfig, Trainer

PARITY_ATOL = 1e-10


@pytest.fixture(scope="module")
def cases():
    return [synthesize_case("fake", seed=s) for s in (210, 211, 212)]


@pytest.fixture(scope="module")
def preprocessor(cases):
    pre = CasePreprocessor(target_edge=16, num_points=32)
    pre.fit(cases)
    return pre


@pytest.fixture(scope="module")
def model(preprocessor, cases):
    seed_everything(0)
    net = LMMIR(LMMIRConfig(in_channels=6, base_channels=4, depth=2,
                            encoder_kernel=3, netlist_dim=8, netlist_depth=1,
                            netlist_heads=2, fusion_heads=2))
    Trainer(net, preprocessor,
            TrainConfig(epochs=1, batch_size=2)).fit(cases)
    return net


class TestTTADeterminism:
    def test_prediction_independent_of_call_order(self, model, preprocessor, cases):
        alone = IRPredictor(model, preprocessor, tta_samples=4)
        after_others = IRPredictor(model, preprocessor, tta_samples=4)
        target, _ = alone.predict_case(cases[0])
        for warm_up in cases[1:]:
            after_others.predict_case(warm_up)
        shuffled, _ = after_others.predict_case(cases[0])
        assert np.array_equal(target, shuffled)

    def test_repeated_calls_identical(self, model, preprocessor, cases):
        predictor = IRPredictor(model, preprocessor, tta_samples=4)
        first, _ = predictor.predict_case(cases[0])
        second, _ = predictor.predict_case(cases[0])
        assert np.array_equal(first, second)

    def test_tta_seed_changes_ensemble(self, model, preprocessor, cases):
        a, _ = IRPredictor(model, preprocessor, tta_samples=4,
                           tta_seed=0).predict_case(cases[0])
        b, _ = IRPredictor(model, preprocessor, tta_samples=4,
                           tta_seed=1).predict_case(cases[0])
        assert not np.array_equal(a, b)


class TestBatchedParity:
    def test_batched_tta_matches_sequential(self, model, preprocessor, cases):
        batched = IRPredictor(model, preprocessor, tta_samples=6, batched=True,
                              infer_dtype="float64")
        sequential = IRPredictor(model, preprocessor, tta_samples=6,
                                 batched=False, infer_dtype="float64")
        for case in cases:
            fast, _ = batched.predict_case(case)
            slow, _ = sequential.predict_case(case)
            assert np.allclose(fast, slow, rtol=0.0, atol=PARITY_ATOL)

    def test_predict_many_matches_predict_case(self, model, preprocessor, cases):
        for dtype in ("float64", "float32"):
            predictor = IRPredictor(model, preprocessor, group_size=2,
                                    infer_dtype=dtype)
            grouped = predictor.predict_many(cases)
            assert len(grouped) == len(cases)
            for case, (prediction, tat) in zip(cases, grouped):
                single, _ = predictor.predict_case(case)
                assert np.allclose(prediction, single, rtol=0.0,
                                   atol=PARITY_ATOL), dtype
                assert prediction.shape == case.shape
                assert tat > 0.0

    def test_predict_many_tat_accounts_per_case(self, model, preprocessor, cases):
        predictor = IRPredictor(model, preprocessor, group_size=len(cases))
        results = predictor.predict_many(cases)
        tats = [tat for _, tat in results]
        assert all(tat > 0.0 for tat in tats)
        # the shared forward is split across the group, so no case may
        # carry the whole group's model time
        assert max(tats) < sum(tats)

    def test_group_size_validated(self, model, preprocessor):
        with pytest.raises(ValueError):
            IRPredictor(model, preprocessor, group_size=0)
