"""Evaluation harness: train registered models and score them on the
hidden suite, producing the data behind the paper's Table III.

Scale is controlled by :class:`EvalConfig`; the ``REPRO_EVAL_*``
environment variables let the benchmark runner trade fidelity for time
(see EXPERIMENTS.md for the settings used in the recorded runs).

The harness accepts its suite as an in-memory
:class:`~repro.data.synthesis.BenchmarkSuite` or as a lazily loaded
:class:`~repro.data.dataset.ShardedSuiteDataset` over a streamed build's
manifests, so evaluation never has to materialise a large suite.
``workers > 1`` fans the per-model train+eval jobs of
:func:`run_comparison` out over a process pool; every model seeds its
own RNG state from the config, so the results are identical to the
sequential run for any worker count (wall-clock ``train_seconds``/TAT
aside — those are timings, not data).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import knobs
from repro.core.pipeline import IRPredictor
from repro.core.registry import MODEL_REGISTRY, ModelSpec
from repro.data.dataset import IRDropDataset, ShardedSuiteDataset
from repro.data.io import SuiteManifest
from repro.data.synthesis import BenchmarkSuite
from repro.metrics.report import CaseMetrics, average_metrics, metric_ratios, score_case
from repro.train.loader import CasePreprocessor
from repro.train.seed import seed_everything
from repro.train.trainer import TrainConfig, Trainer

__all__ = ["EvalConfig", "ComparisonResult", "SuiteSource",
           "train_predictor", "evaluate_predictor", "run_comparison"]

#: fake- and real-case oversampling per epoch (before a model's own
#: augmentation multiplier)
FAKE_OVERSAMPLE, REAL_OVERSAMPLE = 1, 3
#: loss weight of hotspot pixels (see ``TrainConfig.hotspot_weight``);
#: the learning rate is ``TrainConfig``'s, the paper's Adam 1e-3
HOTSPOT_WEIGHT = 6.0

SuiteSource = Union[BenchmarkSuite, ShardedSuiteDataset]
"""What the harness evaluates against: an in-memory suite or a lazy
sharded dataset.  Both expose ``fake_cases`` / ``real_cases`` /
``hidden_cases`` / ``training_cases``."""


@dataclass
class EvalConfig:
    """Harness-level knobs; their CPU-scale defaults are declared with
    their ``REPRO_EVAL_*`` / ``REPRO_INFER_DTYPE`` variables in
    :mod:`repro.knobs`.  The training recipe's fixed parts (learning
    rate, oversampling, hotspot weight) are module constants, and every
    predictor compiles the inference engine, falling back to autograd
    when a model cannot be compiled."""

    target_edge: int = knobs.field("REPRO_EVAL_EDGE")
    num_points: int = knobs.field("REPRO_EVAL_POINTS")
    epochs: int = knobs.field("REPRO_EVAL_EPOCHS")
    pretrain_epochs: int = knobs.field("REPRO_EVAL_PRETRAIN")
    batch_size: int = knobs.field("REPRO_EVAL_BATCH")
    seed: int = knobs.field("REPRO_EVAL_SEED")
    infer_dtype: Optional[str] = knobs.field("REPRO_INFER_DTYPE")
    """Inference-engine precision: ``None`` honours ``REPRO_INFER_DTYPE``
    and defaults to float32, the served precision; ``"float64"`` is
    bit-exact against the autograd forward.  Table III prints the same
    F1 and MAE in both (``benchmarks/probe_infer_dtype.py`` checks)."""

    @classmethod
    def from_env(cls, **overrides) -> "EvalConfig":
        """Build a config honouring ``REPRO_EVAL_*`` and
        ``REPRO_INFER_DTYPE``; keyword overrides win."""
        return knobs.build(cls, overrides)


@dataclass
class ComparisonResult:
    """All Table III data: per-case rows, averages and ratio rows."""

    per_model: Dict[str, List[CaseMetrics]]
    averages: Dict[str, CaseMetrics]
    ratios: Dict[str, Dict[str, float]]
    train_seconds: Dict[str, float]
    case_names: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Suite sources
# ----------------------------------------------------------------------
def _suite_payload(source: SuiteSource):
    """The cheapest picklable handle on a suite for pool workers.

    A dataset travels as its manifest (refs only — workers re-open the
    case files lazily); an in-memory suite has no smaller representation
    and is pickled whole.
    """
    if isinstance(source, ShardedSuiteDataset):
        return source.manifest
    return source


def _resolve_payload(payload) -> SuiteSource:
    """Worker-side counterpart of :func:`_suite_payload`.

    Completeness was already enforced (or deliberately waived) when the
    parent built its dataset, so workers rebuild it permissively — a
    ``require_complete=False`` dataset must behave the same under
    ``workers=1`` and ``workers=N``.
    """
    if isinstance(payload, SuiteManifest):
        return ShardedSuiteDataset(payload, require_complete=False)
    return payload


def _training_cases(spec: ModelSpec, suite) -> list:
    if spec.train_on == "real_only":
        return list(suite.real_cases)
    return list(suite.training_cases)


# ----------------------------------------------------------------------
# Train / evaluate
# ----------------------------------------------------------------------
def train_predictor(spec_name: str, suite: SuiteSource,
                    config: Optional[EvalConfig] = None) -> Tuple[IRPredictor, float]:
    """Train one registered model under its paper-documented regime."""
    config = config or EvalConfig()
    spec = MODEL_REGISTRY[spec_name]
    seed_everything(config.seed)
    model = spec.build()

    preprocessor = CasePreprocessor(
        channels=spec.channels,
        target_edge=config.target_edge,
        num_points=config.num_points,
        use_pointcloud=spec.uses_pointcloud,
    )
    cases = _training_cases(spec, suite)
    preprocessor.fit(cases)

    dataset = IRDropDataset.with_oversampling(
        cases,
        fake_times=FAKE_OVERSAMPLE * spec.augment_multiplier,
        real_times=REAL_OVERSAMPLE * spec.augment_multiplier,
    )
    epochs = max(1, int(round(config.epochs * spec.epoch_fraction)))
    pretrain = config.pretrain_epochs if spec.uses_pointcloud else 0
    trainer = Trainer(model, preprocessor, TrainConfig(
        epochs=epochs,
        pretrain_epochs=pretrain,
        batch_size=config.batch_size,
        hotspot_weight=HOTSPOT_WEIGHT,
        seed=config.seed,
    ))
    start = time.perf_counter()
    trainer.fit(list(dataset))
    elapsed = time.perf_counter() - start
    predictor = IRPredictor(model, preprocessor, name=spec_name,
                            tta_samples=spec.tta_samples,
                            infer_dtype=config.infer_dtype)
    return predictor, elapsed


def evaluate_predictor(predictor: IRPredictor,
                       cases: Sequence) -> List[CaseMetrics]:
    """Score a predictor on a list of cases (the 10 hidden testcases).

    Uses :meth:`IRPredictor.predict_many`, so same-shape cases share
    batched forwards while each row keeps its own TAT.
    """
    return [
        score_case(case.name, predicted, case.ir_map, tat)
        for case, (predicted, tat) in zip(cases,
                                          predictor.predict_many(list(cases)))
    ]


def _train_and_score(task: Tuple[str, object, EvalConfig],
                     ) -> Tuple[str, List[CaseMetrics], float]:
    """Pool entry point (module-level so it pickles): one model's column."""
    name, payload, config = task
    suite = _resolve_payload(payload)
    predictor, elapsed = train_predictor(name, suite, config)
    return name, evaluate_predictor(predictor, suite.hidden_cases), elapsed


def run_comparison(suite: SuiteSource, model_names: Sequence[str],
                   config: Optional[EvalConfig] = None,
                   reference: Optional[str] = None,
                   workers: int = 1) -> ComparisonResult:
    """Train + evaluate every requested model (the full Table III flow).

    ``workers > 1`` trains the models concurrently in a process pool.
    Every model's training is seeded independently (``seed_everything``
    inside :func:`train_predictor`) and TTA noise is per-case, so the
    scores are identical to a sequential run for any worker count; only
    the wall-clock ``train_seconds``/``tat_seconds`` values differ, as
    between any two runs.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    config = config or EvalConfig()

    if workers > 1 and len(model_names) > 1:
        # workers get the cheapest picklable handle and re-resolve it
        tasks = [(name, _suite_payload(suite), config) for name in model_names]
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            columns = list(pool.map(_train_and_score, tasks))
    else:
        # sequential models share the suite (and a dataset's bundle LRU)
        columns = [_train_and_score((name, suite, config))
                   for name in model_names]

    per_model: Dict[str, List[CaseMetrics]] = {}
    averages: Dict[str, CaseMetrics] = {}
    train_seconds: Dict[str, float] = {}
    for name, rows, elapsed in columns:
        per_model[name] = rows
        averages[name] = average_metrics(rows)
        train_seconds[name] = elapsed
    reference = reference or model_names[-1]
    return ComparisonResult(
        per_model=per_model,
        averages=averages,
        ratios=metric_ratios(averages, reference),
        train_seconds=train_seconds,
        case_names=[case.name for case in suite.hidden_cases],
    )
