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

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import knobs
from repro.core.pipeline import IRPredictor
from repro.core.registry import MODEL_REGISTRY, ModelSpec
from repro.data.dataset import IRDropDataset, ShardedSuiteDataset
from repro.data.io import SuiteManifest
from repro.data.synthesis import BenchmarkSuite
from repro.metrics.report import CaseMetrics, average_metrics, metric_ratios, score_case
from repro.solver.store import FactorizationStore
from repro.train.loader import CasePreprocessor
from repro.train.seed import seed_everything
from repro.train.trainer import TrainConfig, Trainer

__all__ = ["EvalConfig", "ComparisonResult", "SuiteSource",
           "train_predictor", "evaluate_predictor", "run_comparison",
           "CHECKPOINT_FORMAT"]

CHECKPOINT_FORMAT = "lmm-ir-model-checkpoint-v1"

SuiteSource = Union[BenchmarkSuite, ShardedSuiteDataset]
"""What the harness evaluates against: an in-memory suite or a lazy
sharded dataset.  Both expose ``fake_cases`` / ``real_cases`` /
``hidden_cases`` / ``training_cases``."""


@dataclass
class EvalConfig:
    """Harness-level knobs; their CPU-scale defaults are declared with
    their ``REPRO_EVAL_*`` / ``REPRO_INFER_*`` variables in
    :mod:`repro.knobs`."""

    target_edge: int = knobs.field("REPRO_EVAL_EDGE")
    num_points: int = knobs.field("REPRO_EVAL_POINTS")
    epochs: int = knobs.field("REPRO_EVAL_EPOCHS")
    pretrain_epochs: int = knobs.field("REPRO_EVAL_PRETRAIN")
    batch_size: int = knobs.field("REPRO_EVAL_BATCH")
    lr: float = knobs.field("REPRO_EVAL_LR")
    fake_oversample: int = knobs.field("REPRO_EVAL_FAKE_OVERSAMPLE")
    real_oversample: int = knobs.field("REPRO_EVAL_REAL_OVERSAMPLE")
    hotspot_weight: float = knobs.field("REPRO_EVAL_HOTSPOT_WEIGHT")
    seed: int = knobs.field("REPRO_EVAL_SEED")
    checkpoint_dir: Optional[str] = knobs.field("REPRO_EVAL_CHECKPOINT_DIR")
    """Directory of persisted trained weights.  When set, every
    :func:`train_predictor` call first looks for a checkpoint keyed by
    model name + training config + suite identity and skips training on
    a hit; after a fresh training run the weights are saved there."""
    retrain: bool = knobs.field("REPRO_EVAL_RETRAIN")
    """Force training even when a matching checkpoint exists (the
    checkpoint is then overwritten with the fresh weights)."""
    infer_engine: Union[bool, str] = knobs.field("REPRO_INFER_ENGINE")
    """Forward executor for evaluation predictors: ``"auto"`` compiles
    the grad-free inference engine (falling back to autograd when a model
    cannot be compiled), ``True`` requires it, ``False`` forces the
    autograd forward.  Checkpoint-loaded weights compile directly — the
    engine traces the model as restored, no retraining involved."""
    infer_dtype: Optional[str] = knobs.field("REPRO_INFER_DTYPE")
    """Inference-engine precision: ``None`` honours ``REPRO_INFER_DTYPE``
    and defaults to float64, which is bit-exact against the autograd
    forward (scores cannot change); ``"float32"`` opts into the
    reduced-precision serving mode."""

    @classmethod
    def from_env(cls, **overrides) -> "EvalConfig":
        """Build a config honouring ``REPRO_EVAL_*`` and ``REPRO_INFER_*``
        environment variables; keyword overrides win."""
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
# Trained-weight checkpoints
# ----------------------------------------------------------------------
def _suite_identity(suite) -> dict:
    """JSON identity of the training data, for checkpoint keying.

    Manifest-backed suites carry full provenance (suite parameters +
    synthesis settings) *plus* the actual case roster — the refs matter
    because a partial dataset (one shard, or ``require_complete=False``
    with dropped cases) shares ``suite``/``settings`` with the full
    build, and weights trained on half the data must not be silently
    reused for the whole suite.  In-memory suites are identified by
    their case roster plus a digest of each case's actual arrays — the
    golden map and feature stacks are a function of *every* synthesis
    setting (smoothing sigma, density window, drop targets, ...), none
    of which an in-memory :class:`BenchmarkSuite` carries explicitly, so
    hashing the data itself is the only way a settings change can never
    silently reuse stale weights.  Suite generation is bit-reproducible,
    so two builds of the same suite digest identically.
    """
    if isinstance(suite, ShardedSuiteDataset):
        manifest = suite.manifest
        return {
            "suite": manifest.suite,
            "settings": manifest.settings,
            "refs": [[ref.index, ref.name, ref.kind]
                     for ref in manifest.refs],
        }
    cases = (list(suite.fake_cases) + list(suite.real_cases)
             + list(suite.hidden_cases))
    return {"cases": [
        [case.name, case.kind, _case_digest(case)] for case in cases
    ]}


def _case_digest(case) -> str:
    """Content hash of a case's golden map + feature channels."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(case.ir_map).tobytes())
    for channel in sorted(case.feature_maps):
        digest.update(channel.encode())
        digest.update(np.ascontiguousarray(case.feature_maps[channel]).tobytes())
    return digest.hexdigest()[:16]


def _checkpoint_identity(spec_name: str, spec: ModelSpec, suite,
                         config: EvalConfig) -> dict:
    """Everything that determines the trained weights, JSON-normalised."""
    return {
        "format": CHECKPOINT_FORMAT,
        "model": spec_name,
        "train": {
            "target_edge": config.target_edge,
            "num_points": config.num_points,
            "epochs": config.epochs,
            "pretrain_epochs": config.pretrain_epochs,
            "batch_size": config.batch_size,
            "lr": config.lr,
            "fake_oversample": config.fake_oversample,
            "real_oversample": config.real_oversample,
            "hotspot_weight": config.hotspot_weight,
            "seed": config.seed,
        },
        "regime": {
            "train_on": spec.train_on,
            "augment_multiplier": spec.augment_multiplier,
            "epoch_fraction": spec.epoch_fraction,
            "channels": list(spec.channels),
            "uses_pointcloud": spec.uses_pointcloud,
            "tta_samples": spec.tta_samples,
        },
        "suite": _suite_identity(suite),
    }


_STATE_PREFIX = "state/"
_TRAIN_SECONDS_KEY = "train_seconds"


def _load_checkpoint(directory: str, identity: dict, model) -> Optional[float]:
    """Restore ``model`` in place; returns the recorded train time, or
    ``None`` on miss (absent, incomplete, corrupt, or identity-mismatched
    checkpoints are all refused and simply retrained).

    Storage is a :class:`~repro.solver.store.FactorizationStore` — the
    same identity-hashed, meta-last, corruption-refusing, atomically
    renamed scheme the solver uses, with the state dict as the array
    payload.  A load that fails mid-way (e.g. a stale checkpoint whose
    layer shapes no longer match the registry) restores the model's
    previous weights before reporting the miss, so the fallback retrain
    starts from the clean seeded init, not a half-overwritten one.
    """
    store = FactorizationStore(directory)
    payload = store.load(identity)
    if payload is None:
        return None
    state = {key[len(_STATE_PREFIX):]: value
             for key, value in payload.items()
             if key.startswith(_STATE_PREFIX)}
    backup = {key: value.copy() for key, value in model.state_dict().items()}
    try:
        model.load_state_dict(state)
    except (ValueError, KeyError):
        model.load_state_dict(backup)
        return None
    seconds = payload.get(_TRAIN_SECONDS_KEY)
    return 0.0 if seconds is None else float(np.asarray(seconds).ravel()[0])


def _save_checkpoint(directory: str, identity: dict, model,
                     train_seconds: float) -> None:
    payload = {f"{_STATE_PREFIX}{key}": value
               for key, value in model.state_dict().items()}
    payload[_TRAIN_SECONDS_KEY] = np.asarray([float(train_seconds)])
    FactorizationStore(directory).save(identity, payload)


# ----------------------------------------------------------------------
# Train / evaluate
# ----------------------------------------------------------------------
def train_predictor(spec_name: str, suite: SuiteSource,
                    config: Optional[EvalConfig] = None) -> Tuple[IRPredictor, float]:
    """Train one registered model under its paper-documented regime.

    With ``config.checkpoint_dir`` set, a previous run's weights for the
    same (model, training config, suite) are loaded instead of training
    — the returned train time is then the *recorded* cost of the run
    that produced the weights.  ``config.retrain`` forces training and
    refreshes the checkpoint.
    """
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

    identity = None
    if config.checkpoint_dir:
        identity = _checkpoint_identity(spec_name, spec, suite, config)
        if not config.retrain:
            recorded = _load_checkpoint(config.checkpoint_dir, identity, model)
            if recorded is not None:
                predictor = IRPredictor(model, preprocessor, name=spec_name,
                                        tta_samples=spec.tta_samples,
                                        engine=config.infer_engine,
                                        infer_dtype=config.infer_dtype)
                return predictor, recorded

    dataset = IRDropDataset.with_oversampling(
        cases,
        fake_times=config.fake_oversample * spec.augment_multiplier,
        real_times=config.real_oversample * spec.augment_multiplier,
    )
    epochs = max(1, int(round(config.epochs * spec.epoch_fraction)))
    pretrain = config.pretrain_epochs if spec.uses_pointcloud else 0
    trainer = Trainer(model, preprocessor, TrainConfig(
        epochs=epochs,
        pretrain_epochs=pretrain,
        batch_size=config.batch_size,
        lr=config.lr,
        hotspot_weight=config.hotspot_weight,
        seed=config.seed,
    ))
    start = time.perf_counter()
    trainer.fit(list(dataset))
    elapsed = time.perf_counter() - start
    if identity is not None:
        _save_checkpoint(config.checkpoint_dir, identity, model, elapsed)
    predictor = IRPredictor(model, preprocessor, name=spec_name,
                            tta_samples=spec.tta_samples,
                            engine=config.infer_engine,
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
