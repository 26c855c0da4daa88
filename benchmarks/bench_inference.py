"""Extra experiment — grad-free inference engine vs the autograd forward.

PR 5's tentpole: prediction is the product (the paper's pitch is that the
NN replaces the golden solver because inference is cheap), so the hot
path gets an engine of its own — compiled kernel plans, BatchNorm/bias/
ReLU fusion, a fixed buffer layout in one workspace slab per lane, and
float32 serving (the default; float64 is the bit-exact oracle) — instead
of the autograd graph run with its gradients thrown away.

Tests split into two CI tiers, following ``bench_solver_scaling.py``:

* **numeric parity** (unmarked, *gating*) — the float64 engine output
  (named explicitly: float32 is the default) is bit-exact against
  ``model.forward`` for LMMIR and every registered baseline, through
  ``IRPredictor`` too, float32 stays within 1e-4 relative, and the
  engine replays a warm shape without allocating (asserted via an
  allocation-frozen arena).
* **wall-clock** (``@pytest.mark.perf``) — speedup floors for the
  serving configuration (engine + float32 + BN folding + batched
  ``predict_many`` + prepared-case cache) against the autograd paths,
  recorded per model into the unified ``BenchResult`` artifact
  (``benchmarks/artifacts/results/inference.json``) together with
  cases/sec and peak RSS.

A calibration note on the floors: the PR's issue estimated ≥2x
single-case and ≥3x steady-state before measurement.  On the single-core
reference box the serving stack lands at ~2x single-case, ~2.5x
steady-state against the per-case autograd path and ~2.2x against the
PR 3 batched autograd path — the conv GEMMs are BLAS-bound and shared by
both sides, so they cap the ratio.  The asserted floors sit under the
measured medians (1.7x / 2.2x / 1.8x defaults, sourced from the
committed ``benchmarks/references/reference.json``) to stay robust on
shared runners; the recorded metrics are the claim.
"""

import os
import resource
import time

import numpy as np
import pytest
from conftest import REFERENCE, emit, recorder

from repro import knobs, nn
from repro.bench.measure import geomean, median
from repro.core.pipeline import IRPredictor
from repro.core.registry import MODEL_REGISTRY
from repro.infer import InferenceEngine, lanes
from repro.train.loader import CasePreprocessor
from repro.train.seed import seed_everything

perf = pytest.mark.perf

EDGE = knobs.read("REPRO_EVAL_EDGE")
POINTS = knobs.read("REPRO_EVAL_POINTS")
ROUNDS = 7  # timed rounds per measurement

REC = recorder("inference", "perf")

# asserted floors (fleet geometric means; see module docstring) — the
# committed reference is the source of truth, the literals are the
# pre-baseline fallback
SINGLE_CASE_FLOOR = REFERENCE.floor(
    "inference", "single_case_speedup_geomean", 1.7)
STEADY_VS_PERCASE_FLOOR = REFERENCE.floor(
    "inference", "steady_state_vs_percase_geomean", 2.2)
STEADY_VS_BATCHED_FLOOR = REFERENCE.floor(
    "inference", "steady_state_vs_batched_geomean", 1.8)
FORWARD_LATENCY_FLOOR = REFERENCE.floor(
    "inference", "forward_latency_speedup_geomean", 2.0)


def _build_model(name):
    spec = MODEL_REGISTRY[name]
    seed_everything(0)
    model = spec.build()
    model.eval()
    return spec, model


def _raw_inputs(spec, batch, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, len(spec.channels), EDGE, EDGE))
    if spec.uses_pointcloud:
        return (x, rng.normal(size=(batch, POINTS, 11)))
    return (x,)


def _autograd_forward(model, args):
    with nn.no_grad():
        return model(*[nn.Tensor(a) for a in args]).data


def _predictor(name, suite, **kwargs):
    spec, model = _build_model(name)
    preprocessor = CasePreprocessor(
        channels=spec.channels, target_edge=EDGE, num_points=POINTS,
        use_pointcloud=spec.uses_pointcloud)
    preprocessor.fit(list(suite.training_cases))
    kwargs.setdefault("prep_cache", 64)
    return IRPredictor(model, preprocessor, name=name, tta_samples=1,
                       **kwargs)


# ----------------------------------------------------------------------
# Numeric parity (gating in CI)
# ----------------------------------------------------------------------
def test_engine_bit_exact_all_models():
    """The acceptance gate: float64 plans replay the autograd forward
    bit-for-bit for LMMIR and every baseline, across batch shapes."""
    for name in MODEL_REGISTRY:
        spec, model = _build_model(name)
        engine = InferenceEngine(model, dtype="float64")
        for batch in (1, 3):
            args = _raw_inputs(spec, batch, seed=batch)
            reference = _autograd_forward(model, args)
            assert np.array_equal(reference, engine.run(*args)), name
    REC.check("float64_bit_exact_all_models", True)


def test_engine_reduced_precision_within_tolerance():
    for name in MODEL_REGISTRY:
        spec, model = _build_model(name)
        args = _raw_inputs(spec, 2)
        reference = _autograd_forward(model, args)
        output = InferenceEngine(model, dtype="float32").run(*args)
        scale = max(float(np.max(np.abs(reference))), 1e-12)
        rel = float(np.max(np.abs(output - reference))) / scale
        assert rel <= 1e-4, (name, rel)
    REC.check("float32_within_1e-4", True)


def test_engine_predictions_identical_through_pipeline(bench_suite):
    """Engine (float64) on vs off, end to end through
    IRPredictor.predict_many."""
    cases = list(bench_suite.hidden_cases)[:3]
    for name in ("LMM-IR (Ours)", "IREDGe"):
        on = _predictor(name, bench_suite, engine=True, infer_dtype="float64")
        off = _predictor(name, bench_suite, engine=False)
        for (pred_on, _), (pred_off, _) in zip(on.predict_many(cases),
                                               off.predict_many(cases)):
            assert np.array_equal(pred_on, pred_off), name
    REC.check("pipeline_predictions_identical", True)


def test_arena_zero_allocation_steady_state():
    """After warm-up the serving arena never allocates again, in any of
    the lanes batch 4 is sharded over."""
    spec, model = _build_model("LMM-IR (Ours)")
    engine = InferenceEngine(model, dtype="float32")
    args = _raw_inputs(spec, 4)
    first = engine.run(*args)
    assert engine.arena.lanes == min(lanes.LANES, 4)
    engine.arena.freeze()   # any allocation in any lane now raises
    second = engine.run(*args)
    engine.arena.freeze(False)
    assert np.array_equal(first, second)
    assert engine.arena.live == 0
    REC.check("arena_zero_allocation_steady_state", True)


# ----------------------------------------------------------------------
# Wall-clock (continue-on-error in CI)
# ----------------------------------------------------------------------
@perf
def test_inference_speedups(bench_suite, artifact_dir):
    """Serving-stack speedups, measured interleaved (autograd and engine
    alternate every round so machine drift cancels) and summarised as
    per-model medians.

    * single-case latency: warm ``predict_case`` — engine(float32) vs
      the autograd predictor;
    * steady-state throughput: repeated ``predict_many`` over the hidden
      suite with a warm prepared-case cache — the serving stack (engine
      + float32 + batching + arena) against both the per-case autograd
      path (``batched=False``, the PR 3 parity baseline) and the batched
      autograd path.
    """
    cases = list(bench_suite.hidden_cases)
    per_model = {}
    lines = ["Grad-free inference engine vs autograd "
             f"(edge={EDGE}, {len(cases)} cases, medians of {ROUNDS} rounds):",
             f"{'model':>14} {'single':>7} {'steady/percase':>15} "
             f"{'steady/batched':>15} {'engine cases/s':>15}"]

    singles, vs_percase_all, vs_batched_all = [], [], []
    for name in MODEL_REGISTRY:
        percase = _predictor(name, bench_suite, engine=False, batched=False)
        batched = _predictor(name, bench_suite, engine=False, batched=True)
        serving = _predictor(name, bench_suite, engine=True,
                             infer_dtype="float32", batched=True)
        for predictor in (percase, batched, serving):
            predictor.predict_many(cases)   # warm: plans, arena, prep cache
        assert serving.engine_fallback_reason is None, name

        case = cases[0]
        single_ratios = []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            batched.predict_case(case)
            autograd_s = time.perf_counter() - start
            start = time.perf_counter()
            serving.predict_case(case)
            engine_s = time.perf_counter() - start
            single_ratios.append(autograd_s / engine_s)

        percase_ratios, batched_ratios, engine_rates = [], [], []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            percase.predict_many(cases)
            percase_s = time.perf_counter() - start
            start = time.perf_counter()
            batched.predict_many(cases)
            batched_s = time.perf_counter() - start
            start = time.perf_counter()
            serving.predict_many(cases)
            engine_s = time.perf_counter() - start
            percase_ratios.append(percase_s / engine_s)
            batched_ratios.append(batched_s / engine_s)
            engine_rates.append(len(cases) / engine_s)

        single = median(single_ratios)
        vs_percase = median(percase_ratios)
        vs_batched = median(batched_ratios)
        rate = median(engine_rates)
        singles.append(single)
        vs_percase_all.append(vs_percase)
        vs_batched_all.append(vs_batched)
        per_model[name] = {
            "single_case_speedup": round(single, 3),
            "steady_state_speedup_vs_percase_autograd": round(vs_percase, 3),
            "steady_state_speedup_vs_batched_autograd": round(vs_batched, 3),
            "engine_cases_per_second": round(rate, 2),
        }
        lines.append(f"{name:>14} {single:>6.2f}x {vs_percase:>14.2f}x "
                     f"{vs_batched:>14.2f}x {rate:>15.1f}")

    single_geo = geomean(singles)
    percase_geo = geomean(vs_percase_all)
    batched_geo = geomean(vs_batched_all)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    REC.metric("single_case_speedup_geomean", single_geo, unit="x",
               headline=True)
    REC.metric("steady_state_vs_percase_geomean", percase_geo, unit="x",
               headline=True)
    REC.metric("steady_state_vs_batched_geomean", batched_geo, unit="x")
    REC.metric("peak_rss_mb", peak_rss_mb, unit="MB")
    REC.annotate(edge=EDGE, rounds=ROUNDS, cases=len(cases),
                 models=per_model)

    lines.append(f"geomeans: single {single_geo:.2f}x, steady-state "
                 f"{percase_geo:.2f}x vs per-case autograd "
                 f"({batched_geo:.2f}x vs batched autograd)")
    lines.append(f"peak RSS: {peak_rss_mb:.0f} MB -> {REC.path}")
    emit(artifact_dir, "inference.txt", "\n".join(lines))

    assert single_geo >= SINGLE_CASE_FLOOR
    assert percase_geo >= STEADY_VS_PERCASE_FLOOR
    assert batched_geo >= STEADY_VS_BATCHED_FLOOR


@perf
def test_engine_forward_latency_floor(artifact_dir):
    """Raw forward-only comparison (no preprocessing, no finalisation):
    the float32 engine must at least halve single-batch latency on the
    convolutional serving models."""
    lines = ["Raw forward latency, batch 1 (autograd float64 vs engine "
             "float32):", f"{'model':>14} {'autograd':>10} {'engine':>9} "
             f"{'speedup':>8}"]
    ratios = []
    for name in ("1st Place", "2nd Place", "IREDGe"):
        spec, model = _build_model(name)
        args = _raw_inputs(spec, 1)
        engine = InferenceEngine(model, dtype="float32")
        engine.run(*args)
        _autograd_forward(model, args)
        rounds = []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            _autograd_forward(model, args)
            autograd_s = time.perf_counter() - start
            start = time.perf_counter()
            engine.run(*args)
            engine_s = time.perf_counter() - start
            rounds.append((autograd_s, engine_s))
        autograd_s = median([a for a, _ in rounds])
        engine_s = median([e for _, e in rounds])
        ratio = median([a / e for a, e in rounds])
        ratios.append(ratio)
        lines.append(f"{name:>14} {autograd_s * 1e3:>8.1f}ms "
                     f"{engine_s * 1e3:>7.1f}ms {ratio:>7.2f}x")
    geo = geomean(ratios)
    REC.metric("forward_latency_speedup_geomean", geo, unit="x")
    lines.append(f"geomean: {geo:.2f}x")
    emit(artifact_dir, "inference_forward.txt", "\n".join(lines))
    assert geo >= FORWARD_LATENCY_FLOOR
