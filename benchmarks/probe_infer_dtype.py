"""Accuracy probe of the served float32 engine against the float64 oracle.

A measurement, not a benchmark workload.  It trains every registered
model once, the way Table III does (``EvalConfig.from_env()`` on the
bench suite: ``REPRO_BENCH_*``, by default 12 fake, 6 real and 10 hidden
cases at seed 3), then predicts every hidden case through
``IRPredictor.predict_many`` on the compiled engine in float64 and in
float32.  Per model it prints:

* max |d|: the largest per-pixel gap between the two predictions, in V
  (``metrics.regression.max_error``, over every hidden case);
* the Avg F1 and MAE (1e-4 V) of each dtype, to four decimals;
* the largest per-case |F1 difference|;
* how many hotspot-mask pixels (prediction above 90% of the true
  maximum, the F1 threshold) the two dtypes classify differently.

It then renders Table III (``format_table3``) for both dtypes with the
TAT columns held equal and exits 1 unless every F1 and MAE cell, the Avg
and Ratio rows included, prints the same::

    python benchmarks/probe_infer_dtype.py                       # 40 epochs
    REPRO_EVAL_EPOCHS=4 python benchmarks/probe_infer_dtype.py   # smoke
"""

from __future__ import annotations

import sys

import numpy as np

from repro import knobs
from repro.core.pipeline import IRPredictor
from repro.core.registry import BASELINES, OURS
from repro.data.synthesis import make_suite
from repro.eval.harness import (ComparisonResult, EvalConfig,
                                train_predictor)
from repro.eval.tables import format_table3
from repro.metrics.classification import HOTSPOT_FRACTION
from repro.metrics.regression import max_error
from repro.metrics.report import average_metrics, metric_ratios, score_case

DTYPES = ("float64", "float32")
MODEL_ORDER = list(BASELINES) + [OURS]


def _predict(trained: IRPredictor, cases, dtype: str):
    """``trained``'s model and preprocessor on the engine in ``dtype``."""
    predictor = IRPredictor(trained.model, trained.preprocessor,
                            name=trained.name,
                            tta_samples=trained.tta_samples,
                            engine=True, infer_dtype=dtype)
    return [prediction for prediction, _ in predictor.predict_many(cases)]


def _mask_pixels(truth: np.ndarray, oracle: np.ndarray,
                 served: np.ndarray) -> int:
    """Pixels on opposite sides of the F1 hotspot threshold."""
    threshold = HOTSPOT_FRACTION * float(truth.max())
    return int(np.sum((oracle > threshold) != (served > threshold)))


def _table(rows_by_model, cases) -> ComparisonResult:
    """Table III's data with every TAT set to 1 s, so the rendered table
    differs between dtypes only where an F1 or MAE cell does."""
    averages = {name: average_metrics(rows)
                for name, rows in rows_by_model.items()}
    return ComparisonResult(
        per_model=rows_by_model, averages=averages,
        ratios=metric_ratios(averages, OURS),
        train_seconds={name: 0.0 for name in rows_by_model},
        case_names=[case.name for case in cases])


def main() -> int:
    suite_seed = knobs.read("REPRO_BENCH_SEED", 3)
    suite = make_suite(
        num_fake=knobs.read("REPRO_BENCH_FAKE", 12),
        num_real=knobs.read("REPRO_BENCH_REAL", 6),
        num_hidden=knobs.read("REPRO_BENCH_HIDDEN", 10), seed=suite_seed)
    cases = list(suite.hidden_cases)
    config = EvalConfig.from_env()
    print(f"{len(cases)} hidden cases (suite seed {suite_seed}), "
          f"{config.epochs} epochs (training seed {config.seed})")
    print(f"{'model':<14} {'max |d| V':>10} {'F1 f64':>7} {'F1 f32':>7} "
          f"{'MAE f64':>8} {'MAE f32':>8} {'max dF1':>8} {'mask px':>8}")
    rows = {dtype: {} for dtype in DTYPES}
    for name in MODEL_ORDER:
        trained, _ = train_predictor(name, suite, config)
        predictions = {dtype: _predict(trained, cases, dtype)
                       for dtype in DTYPES}
        for dtype in DTYPES:
            rows[dtype][name] = [
                score_case(case.name, prediction, case.ir_map, 1.0)
                for case, prediction in zip(cases, predictions[dtype])]
        pairs = list(zip(cases, predictions["float64"],
                         predictions["float32"]))
        gap = max(max_error(served, oracle) for _, oracle, served in pairs)
        mask_px = sum(_mask_pixels(case.ir_map, oracle, served)
                      for case, oracle, served in pairs)
        df1 = max(abs(a.f1 - b.f1) for a, b
                  in zip(rows["float64"][name], rows["float32"][name]))
        avg = {dtype: average_metrics(rows[dtype][name]) for dtype in DTYPES}
        print(f"{name:<14} {gap:>10.2e} {avg['float64'].f1:>7.4f} "
              f"{avg['float32'].f1:>7.4f} {avg['float64'].mae_1e4:>8.4f} "
              f"{avg['float32'].mae_1e4:>8.4f} {df1:>8.1e} {mask_px:>8d}")

    tables = {dtype: format_table3(_table(rows[dtype], cases), MODEL_ORDER)
              for dtype in DTYPES}
    differing = [(oracle, served) for oracle, served in
                 zip(tables["float64"].splitlines(),
                     tables["float32"].splitlines()) if oracle != served]
    if differing:
        print("Table III F1/MAE cells differ between float64 and float32:")
        for oracle, served in differing:
            print(f"  float64: {oracle}\n  float32: {served}")
        return 1
    print("Table III F1/MAE as printed: identical in float64 and float32")
    return 0


if __name__ == "__main__":
    sys.exit(main())
