"""Engine-vs-autograd parity for LMMIR and every registered baseline.

The contract under test: a float64 plan replays the autograd forward's
exact arithmetic (bit-exact, fusion included); the float32 serving mode,
the unset default, agrees to 1e-4 relative; BatchNorm weight folding
agrees to 1e-10 at float64.  Every bit-exact check against autograd
names float64: it is the oracle, not the default.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.pipeline import IRPredictor
from repro.core.registry import MODEL_REGISTRY
from repro.infer import (InferenceEngine, InferenceUnsupportedError,
                         resolve_infer_dtype)
from repro.infer import plan as plan_module
from repro.train.seed import seed_everything

MODEL_NAMES = sorted(MODEL_REGISTRY)


def _build(name):
    seed_everything(0)
    spec = MODEL_REGISTRY[name]
    model = spec.build()
    model.eval()
    return spec, model


def _inputs(spec, batch=2, edge=16, points=24, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, len(spec.channels), edge, edge))
    if spec.uses_pointcloud:
        return (x, rng.normal(size=(batch, points, 11)))
    return (x,)


def _autograd(model, args):
    with nn.no_grad():
        return model(*[nn.Tensor(a) for a in args]).data


def _rel_error(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(np.asarray(a, dtype=np.float64) - b))) / scale


class TestEngineParity:
    def test_unset_dtype_serves_float32_with_bn_folded(self, monkeypatch):
        monkeypatch.delenv("REPRO_INFER_DTYPE", raising=False)
        assert resolve_infer_dtype() == np.dtype("float32")
        _, model = _build("LMM-IR (Ours)")
        engine = InferenceEngine(model)
        assert engine.dtype == np.dtype("float32")
        assert engine.fold_bn

    def test_env_float64_restores_bit_exact_parity(self, monkeypatch):
        monkeypatch.setenv("REPRO_INFER_DTYPE", "float64")
        spec, model = _build("LMM-IR (Ours)")
        args = _inputs(spec)
        engine = InferenceEngine(model)
        assert engine.dtype == np.dtype("float64")
        assert not engine.fold_bn
        assert np.array_equal(_autograd(model, args), engine.run(*args))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_float64_bit_exact(self, name):
        spec, model = _build(name)
        args = _inputs(spec)
        reference = _autograd(model, args)
        engine = InferenceEngine(model, dtype="float64")
        assert engine.dtype == np.dtype("float64")
        assert not engine.fold_bn
        output = engine.run(*args)
        assert output.dtype == np.float64
        assert np.array_equal(reference, output)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_float64_bit_exact_repeated_and_new_shapes(self, name):
        spec, model = _build(name)
        engine = InferenceEngine(model, dtype="float64")
        for batch in (1, 3, 1):
            args = _inputs(spec, batch=batch, seed=batch)
            assert np.array_equal(_autograd(model, args), engine.run(*args))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_float32_serving_mode(self, name):
        spec, model = _build(name)
        args = _inputs(spec)
        reference = _autograd(model, args)
        engine = InferenceEngine(model, dtype="float32")
        assert engine.fold_bn  # reduced precision defaults to folding
        output = engine.run(*args)
        assert output.dtype == np.float32
        assert _rel_error(output, reference) <= 1e-4

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_fused_vs_unfused_float64(self, name, monkeypatch):
        spec, model = _build(name)
        args = _inputs(spec)
        folded = InferenceEngine(model, dtype="float64",
                                 fold_bn=True).run(*args)
        # epilogue fusion alone is arithmetic-identical...
        fused = InferenceEngine(model, dtype="float64",
                                fold_bn=False).run(*args)
        monkeypatch.setattr(plan_module, "_fuse_epilogues",
                            lambda *args: None)
        unfused = InferenceEngine(model, dtype="float64",
                                  fold_bn=False).run(*args)
        assert np.array_equal(unfused, fused)
        # ...BatchNorm weight folding reassociates, at ~1 ulp
        assert _rel_error(folded, unfused) <= 1e-10


class TestPredictorIntegration:
    def _predictor_pair(self, name, tta_samples=1, **kwargs):
        from repro.train.loader import CasePreprocessor
        from repro.data.synthesis import make_suite
        suite = make_suite(num_fake=2, num_real=1, num_hidden=2, seed=5)
        spec, model = _build(name)
        preprocessor = CasePreprocessor(
            channels=spec.channels, target_edge=16, num_points=24,
            use_pointcloud=spec.uses_pointcloud)
        preprocessor.fit(list(suite.training_cases))
        on = IRPredictor(model, preprocessor, engine=True,
                         tta_samples=tta_samples, infer_dtype="float64",
                         **kwargs)
        off = IRPredictor(model, preprocessor, engine=False,
                          tta_samples=tta_samples, **kwargs)
        return on, off, list(suite.hidden_cases)

    @pytest.mark.parametrize("name", ["LMM-IR (Ours)", "IREDGe"])
    def test_predict_case_bit_identical(self, name):
        on, off, cases = self._predictor_pair(name)
        for case in cases:
            with_engine, _ = on.predict_case(case)
            without, _ = off.predict_case(case)
            assert np.array_equal(with_engine, without)

    def test_predict_many_bit_identical(self):
        on, off, cases = self._predictor_pair("LMM-IR (Ours)")
        engine_rows = on.predict_many(cases)
        autograd_rows = off.predict_many(cases)
        for (pred_on, _), (pred_off, _) in zip(engine_rows, autograd_rows):
            assert np.array_equal(pred_on, pred_off)

    def test_tta_predict_bit_identical(self):
        on, off, cases = self._predictor_pair("1st Place", tta_samples=3)
        with_engine, _ = on.predict_case(cases[0])
        without, _ = off.predict_case(cases[0])
        assert np.array_equal(with_engine, without)


class _OpaqueModel(nn.Module):
    """Computes outside the traced op set — must not compile."""

    def forward(self, x):
        return nn.Tensor(np.tanh(x.data))


class TestFailureModes:
    def test_untraceable_model_raises_when_required(self):
        model = _OpaqueModel().eval()
        engine = InferenceEngine(model)
        with pytest.raises(InferenceUnsupportedError):
            engine.run(np.zeros((2, 3)))

    def test_auto_mode_falls_back_to_autograd(self):
        from repro.nn import functional as F
        from repro.train.loader import CasePreprocessor
        from repro.data.synthesis import make_suite
        suite = make_suite(num_fake=1, num_real=1, num_hidden=1, seed=5)
        model = _OpaqueModel()

        class Wrapper(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = model

            def forward(self, x, points=None):
                return F.reshape(self.inner(x),
                                 (x.shape[0], 1) + tuple(x.shape[2:]))

        wrapper = Wrapper().eval()
        preprocessor = CasePreprocessor(channels=("current",),
                                        target_edge=16, num_points=8,
                                        use_pointcloud=False)
        preprocessor.fit(list(suite.training_cases))
        predictor = IRPredictor(wrapper, preprocessor, engine="auto")
        prediction, _ = predictor.predict_case(list(suite.hidden_cases)[0])
        assert predictor.engine_fallback_reason is not None
        assert prediction.shape == list(suite.hidden_cases)[0].ir_map.shape

    def test_escaped_numpy_intermediate_caught_by_validation(self):
        """A forward that mixes raw numpy mid-graph produces a tensor the
        trace sees as a constant; plan validation (replay on a perturbed
        input vs the autograd forward) must catch it instead of serving
        the first batch's value forever."""
        from repro.nn import functional as F

        class Escape(nn.Module):
            def forward(self, x):
                gate = nn.Tensor(np.tanh(x.data))  # invisible to the trace
                return F.mul(x, gate)

        engine = InferenceEngine(Escape().eval())
        with pytest.raises(InferenceUnsupportedError, match="perturbed"):
            engine.run(np.ones((2, 3)))

        # an "auto" predictor falls back to autograd instead of raising
        from repro.train.loader import CasePreprocessor
        from repro.data.synthesis import make_suite
        suite = make_suite(num_fake=1, num_real=1, num_hidden=1, seed=5)

        class Wrapped(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = Escape()

            def forward(self, x, points=None):
                return self.inner(x)

        preprocessor = CasePreprocessor(channels=("current",),
                                        target_edge=16, num_points=8,
                                        use_pointcloud=False)
        preprocessor.fit(list(suite.training_cases))
        predictor = IRPredictor(Wrapped().eval(), preprocessor, engine="auto")
        prediction, _ = predictor.predict_case(list(suite.hidden_cases)[0])
        assert predictor.engine_fallback_reason is not None
        assert np.isfinite(prediction).all()

    def test_engine_argument_typo_rejected(self):
        for engine in ("of", "off", "on", None, 1):
            with pytest.raises(ValueError, match="engine="):
                IRPredictor(None, None, engine=engine)
        for engine in ("auto", True, False):
            assert IRPredictor(None, None, engine=engine).engine_mode is engine

    def test_kernels_allocate_missing_scratch(self):
        from repro.nn import functional as F
        x = np.random.default_rng(0).normal(size=(3, 7))
        out = np.empty_like(x)
        assert np.array_equal(F.softmax_kernel(x, out=out),
                              F.softmax_kernel(x))
        out = np.empty_like(x)
        assert np.array_equal(F.gelu_kernel(x, out=out), F.gelu_kernel(x))
        out = np.empty_like(x)
        assert np.array_equal(F.relu_kernel(x, out=out), F.relu_kernel(x))

    def test_meta_baking_ops_refuse_compilation(self):
        """Ops whose array arguments the trace cannot prove constant must
        not compile — baking them would replay the first batch's data.

        ``lookup`` is a test-local traced op with no engine builder: its
        only parent is a constant table, but its rows are picked by an
        index array read from the input's values, which only its meta
        carries.  Folding it as a constant would compile; it must refuse.
        """
        from repro.nn import functional as F

        def lookup(table, indices):
            return F._make(table.data[indices], (table,), None, op="lookup",
                           meta={"indices": indices})

        class Lookup(nn.Module):
            def __init__(self):
                super().__init__()
                self.table = nn.Parameter(np.arange(8.0).reshape(8, 1))

            def forward(self, x):
                indices = (np.abs(x.data[:, 0]) * 8).astype(int) % 8
                return F.add(x, lookup(self.table, indices))

        engine = InferenceEngine(Lookup().eval())
        with pytest.raises(InferenceUnsupportedError):
            engine.run(np.zeros((3, 2)))

        class Negate(nn.Module):
            def forward(self, x):
                return F._make(-x.data, (x,), None, op="negate")

        engine = InferenceEngine(Negate().eval())
        with pytest.raises(InferenceUnsupportedError):
            engine.run(np.zeros((3, 2)))

    @pytest.mark.parametrize("fail_after", [1, 5, 20])
    def test_buffers_released_when_a_run_fails_mid_plan(self, fail_after,
                                                        monkeypatch):
        """A failure at the k-th step, on the caller's lane or on the
        pool's, reaches the caller typed and leaves no lane's workspace
        checked out (a leaked checkout would refuse every later run);
        the next run is bit-equal and allocates nothing."""
        import threading
        from repro.infer import lanes
        from repro.infer import plan as plan_module

        class InjectedFailure(RuntimeError):
            pass

        caller = threading.current_thread()
        armed = {"lane": None, "steps": 0, "failed_on": None}
        build_step = plan_module.build_step

        def failing_build_step(index, node, ctx):
            step = build_step(index, node, ctx)
            run = step.run

            def counted(env, out, scratch):
                on_caller = threading.current_thread() is caller
                if (armed["lane"] is not None
                        and on_caller == (armed["lane"] == 0)):
                    armed["steps"] += 1
                    if armed["steps"] == fail_after:
                        armed["failed_on"] = threading.current_thread()
                        raise InjectedFailure(f"step {fail_after}")
                return run(env, out, scratch)
            step.run = counted
            return step

        monkeypatch.setattr(plan_module, "build_step", failing_build_step)
        monkeypatch.setattr(lanes, "LANES", 2)
        spec, model = _build("IREDGe")
        args = _inputs(spec)   # two rows: one per lane
        reference = _autograd(model, args)
        engine = InferenceEngine(model, dtype="float64")
        assert np.array_equal(engine.run(*args), reference)
        for failing_lane in (0, 1):
            armed.update(lane=failing_lane, steps=0, failed_on=None)
            with pytest.raises(InjectedFailure):
                engine.run(*args)
            armed["lane"] = None
            assert armed["failed_on"] is not None
            assert ((armed["failed_on"] is caller) == (failing_lane == 0))
            arena = engine.arena
            assert arena.lane(0).live == 0 and arena.lane(1).live == 0
            assert arena.live == 0
            allocations = arena.allocations
            arena.freeze()
            assert np.array_equal(engine.run(*args), reference)
            arena.freeze(False)
            assert arena.allocations == allocations

    def test_training_mode_rejected(self):
        _, model = _build("IREDGe")
        model.train()
        engine = InferenceEngine(model)
        with pytest.raises(InferenceUnsupportedError):
            engine.run(np.zeros((1, 3, 16, 16)))

    def test_prep_cache_true_uses_default_size(self):
        from repro.train.loader import DEFAULT_CACHE_SIZE
        from repro.train.loader import CasePreprocessor
        predictor = IRPredictor(
            _OpaqueModel(), CasePreprocessor(use_pointcloud=False),
            prep_cache=True)
        assert predictor.prep_cache is not None
        assert predictor.prep_cache.maxsize == DEFAULT_CACHE_SIZE
        assert IRPredictor(_OpaqueModel(),
                           CasePreprocessor(use_pointcloud=False),
                           prep_cache=None).prep_cache is None

    def test_refresh_engine_after_weight_mutation(self):
        spec, model = _build("IREDGe")
        args = _inputs(spec)
        engine = InferenceEngine(model, dtype="float64")
        before = engine.run(*args)
        state = {key: value * 1.5 for key, value in model.state_dict().items()}
        model.load_state_dict(state)
        engine.refresh()
        after = engine.run(*args)
        assert np.array_equal(_autograd(model, args), after)
        assert not np.array_equal(before, after)
