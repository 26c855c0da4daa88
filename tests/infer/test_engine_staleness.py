"""Stale-engine regression (PR 7 satellite fix).

The compiled inference engine bakes weights into its plans as constants
at trace time.  Before the fix, loading a new checkpoint into a model
behind a warm engine kept serving the *old* weights until someone
remembered to call ``refresh_engine()`` — predictions silently came from
the wrong model.  The fix gives every :class:`Module` a
``state_version`` counter bumped by ``load_state_dict``; the engine
compares it on every ``run``/``compile`` and drops stale plans
automatically.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.model import LMMIR, LMMIRConfig
from repro.core.pipeline import IRPredictor
from repro.data.synthesis import synthesize_case
from repro.infer import InferenceEngine
from repro.train.loader import CasePreprocessor
from repro.train.seed import seed_everything


def _model(seed=0):
    seed_everything(seed)
    model = LMMIR(LMMIRConfig(in_channels=6, base_channels=4, depth=2,
                              encoder_kernel=3, netlist_dim=8,
                              netlist_depth=1, netlist_heads=2,
                              fusion_heads=2))
    model.eval()
    return model


def _inputs(batch=1, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(batch, 6, 16, 16)),
            rng.normal(size=(batch, 32, 11)))


def _scaled_state(model, factor=1.01):
    return {key: np.asarray(value) * factor
            for key, value in model.state_dict().items()}


class TestStateVersion:
    def test_load_state_dict_bumps_version(self):
        model = _model()
        before = model.state_version
        model.load_state_dict(model.state_dict())
        assert model.state_version == before + 1

    def test_forward_does_not_bump(self):
        model = _model()
        before = model.state_version
        with nn.no_grad():
            model(*[nn.Tensor(a) for a in _inputs()])
        assert model.state_version == before


class TestEngineInvalidation:
    def test_checkpoint_load_invalidates_warm_plans(self):
        """The regression: run the engine warm, load new weights, run
        again — the output must match a *fresh* engine on the new
        weights, not the stale pre-load plans."""
        model = _model()
        engine = InferenceEngine(model)
        args = _inputs()
        stale_reference = engine.run(*args).copy()  # warm plans, v0

        state_v2 = _scaled_state(model)
        model.load_state_dict(state_v2)

        after = engine.run(*args)
        fresh = InferenceEngine(model).run(*args)
        assert np.array_equal(after, fresh)
        assert not np.array_equal(after, stale_reference)

    def test_compile_path_also_invalidates(self):
        model = _model()
        engine = InferenceEngine(model)
        args = _inputs()
        engine.run(*args)
        model.load_state_dict(_scaled_state(model))
        engine.compile(*args)  # explicit compile after the load
        assert np.array_equal(engine.run(*args),
                              InferenceEngine(model).run(*args))

    def test_noop_reload_still_safe(self):
        """Reloading identical weights drops plans (version changed) but
        keeps outputs bit-stable."""
        model = _model()
        engine = InferenceEngine(model)
        args = _inputs()
        first = engine.run(*args).copy()
        model.load_state_dict(model.state_dict())
        assert np.array_equal(engine.run(*args), first)

    def test_predictor_end_to_end_serves_new_weights(self):
        """Through the full serving path: a predictor with a warm engine
        must track a checkpoint load bit-exactly against the autograd
        (engine-off) predictor on the same new weights."""
        cases = [synthesize_case("fake", seed=s) for s in (700, 701)]
        pre = CasePreprocessor(target_edge=16, num_points=32)
        pre.fit(cases)
        model = _model()
        engine_on = IRPredictor(model, pre, tta_samples=1, engine=True,
                                infer_dtype="float64")
        engine_off = IRPredictor(model, pre, tta_samples=1, engine=False)
        for case in cases:
            engine_on.predict_case(case)  # warm the plans on v0

        model.load_state_dict(_scaled_state(model))
        for case in cases:
            hot, _ = engine_on.predict_case(case)
            reference, _ = engine_off.predict_case(case)
            assert np.array_equal(hot, reference), case.name

    def test_direct_param_rebinding_still_needs_manual_refresh(self):
        """Documented boundary: *rebinding* ``param.data`` to a fresh
        array bypasses ``load_state_dict``, stays invisible to the
        version counter, and leaves warm plans holding the old arrays —
        ``refresh()`` remains the escape hatch."""
        model = _model()
        engine = InferenceEngine(model)
        args = _inputs()
        stale = engine.run(*args).copy()
        version_before = model.state_version
        for param in model.parameters():
            param.data = param.data * 1.01  # rebind, not in-place
        assert model.state_version == version_before
        assert np.array_equal(engine.run(*args), stale)  # still stale
        engine.refresh()
        assert not np.array_equal(engine.run(*args), stale)
