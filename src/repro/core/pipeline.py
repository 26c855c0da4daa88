"""End-to-end predictor: case in, native-resolution IR map out.

Wraps a trained model with its preprocessor so callers (examples, the
benchmark harness) never touch padding/normalisation details.  Inference
runs under ``no_grad`` in eval mode and reports TAT per the paper's
Definition 3 (pure model turn-around time, preprocessing included).

Three serving levers, all on by default:

* **Batched TTA** — the S noise-perturbed samples of one case run as a
  single ``(S, C, E, E)`` forward instead of S batch-1 forwards.  Noise
  comes from a per-case RNG (SeedSequence over the predictor seed and the
  case name), so a case's prediction is independent of how many cases
  were predicted before it and of the batching mode.
* **Batched ``predict_many``** — cases whose prepared tensors share a
  shape are grouped into multi-case forwards; per-case TAT accounting is
  preserved (per-case preprocessing/postprocessing is timed individually,
  the shared forward is attributed proportionally to per-case work via
  :func:`split_forward_time`, with the raw group timings kept on
  :attr:`IRPredictor.last_forward_groups`).
* **Compiled forwards** (``engine="auto"``) — the eval forward runs on a
  grad-free :class:`~repro.infer.engine.InferenceEngine` plan instead of
  the autograd graph: no Tensor wrapping, BatchNorm/bias/ReLU fusion, and
  a buffer layout fixed at compile time in one workspace per lane, so
  steady-state serving allocates nothing.  The engine runs float32 by
  default (~1e-5 relative agreement with the autograd forward, roughly
  half the memory traffic and BLAS time); ``infer_dtype="float64"`` (or
  ``REPRO_INFER_DTYPE=float64``) makes it bit-exact against the autograd
  forward.

Every layer is sample-independent in eval mode (convolutions are per-item
GEMMs, batch norm uses running statistics), so the batched paths agree
with the sequential ones to floating-point noise (≤ 1e-10).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import nn
from repro.data.case import CaseBundle
from repro.faults import degrade
from repro.features.resize import restore_map
from repro.infer import InferenceEngine, InferenceUnsupportedError
from repro.nn.module import Module
from repro.train.loader import (
    CasePreprocessor,
    PreparedCase,
    PreparedCaseCache,
    _resolve_cache,
)

__all__ = ["IRPredictor", "ForwardGroupStats", "split_forward_time"]


def split_forward_time(total_seconds: float,
                       work_units: Sequence[float]) -> List[float]:
    """Attribute a shared forward's wall-clock to its members.

    A grouped forward serves every member with one kernel sequence, so
    the only honest per-case attribution is proportional to each case's
    share of the work (here: its tensor element count).  An even split
    fabricates TATs the moment members differ in size — a large case
    batched with small ones would report the small cases' cost.  For the
    homogeneous groups the shape-keyed batcher builds today, the
    proportional split reduces to the even one; the sum of the shares
    always equals ``total_seconds`` exactly (the last member absorbs the
    rounding remainder), so summed TAT stays equal to wall-clock spent in
    the model.
    """
    if not work_units:
        raise ValueError("cannot attribute time across zero cases")
    total_work = float(sum(work_units))
    if total_work <= 0.0:
        shares = [total_seconds / len(work_units)] * len(work_units)
    else:
        shares = [total_seconds * (float(work) / total_work)
                  for work in work_units]
    shares[-1] += total_seconds - sum(shares)
    return shares


@dataclass(frozen=True)
class ForwardGroupStats:
    """Group-level TAT record for one shared forward of ``predict_many``.

    ``seconds`` is the full timed region (batch assembly + forward);
    ``work_units`` are the per-case element counts the attribution used.
    Exposed via :attr:`IRPredictor.last_forward_groups` so callers that
    need honest batch-level accounting (the serving metrics) do not have
    to reconstruct it from per-case shares.
    """

    indices: Tuple[int, ...]
    seconds: float
    work_units: Tuple[float, ...]


class IRPredictor:
    """A trained model plus its fitted preprocessor.

    ``tta_samples > 1`` enables test-time averaging over noise-perturbed
    inputs — used to reproduce the contest 1st-place team's heavyweight
    inference pipeline (their published TAT is ~5x the others').

    ``batched=False`` restores the one-forward-per-sample/per-case
    execution (identical math, more Python/layer overhead) — kept for the
    throughput benchmark's parity baseline.

    ``engine`` selects the forward executor: ``"auto"`` (default) compiles
    the model with the grad-free inference engine and silently falls back
    to the autograd forward if compilation fails, ``True`` requires the
    engine (compile errors propagate), ``False`` forces the autograd
    path; any other value raises ``ValueError``.  ``infer_dtype`` picks
    the engine precision (``None`` honours ``REPRO_INFER_DTYPE``,
    defaulting to float32; ``"float64"`` is bit-exact against autograd).
    The engine snapshots weights at first use; ``load_state_dict`` bumps
    the model's ``state_version`` so compiled plans are invalidated
    automatically on the next prediction (a serving hot-swap never serves
    stale folded weights).  Direct
    ``param.data`` mutation is invisible to the version counter — call
    :meth:`refresh_engine` after hand-editing weights.
    """

    def __init__(self, model: Module, preprocessor: CasePreprocessor,
                 name: str = "model", tta_samples: int = 1,
                 tta_sigma: float = 1e-3, tta_seed: int = 0,
                 batched: bool = True, group_size: int = 8,
                 engine: Union[bool, str] = "auto",
                 infer_dtype: Optional[str] = None,
                 prep_cache: Union[None, bool, int, PreparedCaseCache] = None):
        if tta_samples < 1:
            raise ValueError(f"tta_samples must be >= 1, got {tta_samples}")
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self.model = model
        self.preprocessor = preprocessor
        self.name = name
        self.tta_samples = tta_samples
        self.tta_sigma = tta_sigma
        self.tta_seed = tta_seed
        self.batched = batched
        self.group_size = group_size
        if engine != "auto" and engine is not True and engine is not False:
            raise ValueError(
                f"engine= must be \"auto\", True or False, got {engine!r}")
        self.engine_mode = engine
        self.infer_dtype = infer_dtype
        self.prep_cache = _resolve_cache(prep_cache)
        """Optional :class:`PreparedCaseCache`: steady-state serving of a
        recurring case set skips deterministic preprocessing after the
        first request (prep time still lands in each case's TAT — as a
        cache lookup)."""
        self._engine: Optional[InferenceEngine] = None
        self._engine_error: Optional[str] = None
        self.last_forward_groups: List[ForwardGroupStats] = []
        """Group-level forward accounting of the most recent
        :meth:`predict_many` call (empty for the sequential paths)."""

    # ------------------------------------------------------------------
    @property
    def engine(self) -> Optional[InferenceEngine]:
        """The lazily built inference engine (``None`` when disabled or
        after an ``"auto"``-mode fallback)."""
        if self.engine_mode is False or self._engine_error is not None:
            return None
        if self._engine is None:
            self._engine = InferenceEngine(self.model, dtype=self.infer_dtype)
        return self._engine

    @property
    def engine_fallback_reason(self) -> Optional[str]:
        """Why the ``"auto"`` engine fell back to autograd, if it did."""
        return self._engine_error

    def refresh_engine(self) -> None:
        """Drop compiled plans after the model's weights changed."""
        if self._engine is not None:
            self._engine.refresh()
        self._engine_error = None

    # ------------------------------------------------------------------
    def _case_rng(self, case: CaseBundle) -> np.random.Generator:
        """Per-case noise RNG: prediction order cannot leak between cases."""
        name_hash = zlib.crc32(case.name.encode("utf-8"))
        return np.random.default_rng(
            np.random.SeedSequence([self.tta_seed, name_hash]))

    def _tta_stacks(self, prepared: PreparedCase) -> np.ndarray:
        """(S, C, E, E): the clean stack plus S-1 noise-perturbed copies.

        Draw order matches the sequential loop exactly, so batched and
        per-sample execution see bit-identical inputs.
        """
        rng = self._case_rng(prepared.case)
        stacks = [prepared.features]
        for _ in range(1, self.tta_samples):
            stacks.append(prepared.features + rng.normal(
                0.0, self.tta_sigma, size=prepared.features.shape))
        return np.stack(stacks)

    def _forward(self, features: np.ndarray,
                 points: Optional[np.ndarray]) -> np.ndarray:
        """One eval-mode forward of a (B, C, E, E) batch → (B, E, E)."""
        engine = self.engine
        if engine is not None:
            try:
                args = (features,) if points is None else (features, points)
                output = engine.run(*args)
            except InferenceUnsupportedError as error:
                if self.engine_mode is True:
                    raise
                # "auto": remember the failure and fall back for good —
                # loudly, on the process degradation ledger, so a
                # predictor silently running 2x slower on autograd shows
                # up in PredictionService.stats()["degradations"]
                degrade.record("infer.engine", "engine", "autograd",
                               f"{self.name}: {error}")
                self._engine_error = str(error)
                self._engine = None
            else:
                return output[:, 0].astype(np.float64, copy=False)
        tensor = nn.Tensor(features)
        if points is not None:
            output = self.model(tensor, nn.Tensor(points))
        else:
            output = self.model(tensor)
        return output.data[:, 0]

    def _prepare(self, case: CaseBundle) -> PreparedCase:
        return self.preprocessor.prepare(case, cache=self.prep_cache)

    def _case_points(self, prepared: PreparedCase) -> Optional[np.ndarray]:
        return prepared.points if self.preprocessor.use_pointcloud else None

    def _tta_mean(self, prepared: PreparedCase) -> np.ndarray:
        """Average the TTA ensemble for one case (batched or sequential)."""
        stacks = self._tta_stacks(prepared)
        points = self._case_points(prepared)
        if self.batched:
            tiled = (None if points is None
                     else np.broadcast_to(points[None], (len(stacks),) + points.shape))
            outputs = self._forward(stacks, tiled)
        else:
            outputs = np.stack([
                self._forward(stack[None],
                              None if points is None else points[None])[0]
                for stack in stacks
            ])
        return outputs.mean(axis=0)

    def _finalize(self, scaled: np.ndarray, prepared: PreparedCase) -> np.ndarray:
        """Undo spatial adjustment and target scaling; clamp to physics."""
        restored = restore_map(scaled, prepared.adjustment)
        prediction = self.preprocessor.target_scaler.inverse(restored)
        return np.maximum(prediction, 0.0)  # static IR drop is >= 0

    # ------------------------------------------------------------------
    def predict_case(self, case: CaseBundle) -> Tuple[np.ndarray, float]:
        """Predict one case; returns (IR map at native shape, TAT seconds)."""
        self.model.eval()
        start = time.perf_counter()
        prepared = self._prepare(case)
        with nn.no_grad():
            scaled = self._tta_mean(prepared)
        prediction = self._finalize(scaled, prepared)
        elapsed = time.perf_counter() - start
        return prediction, elapsed

    def predict_many(self, cases: Sequence[CaseBundle]) -> List[Tuple[np.ndarray, float]]:
        """Predict a sequence of cases, batching same-shape forwards.

        Returns (prediction, TAT) pairs in input order.  Each case's TAT
        still covers its own preprocessing and postprocessing; the shared
        forward of a group is attributed proportionally to each member's
        work (:func:`split_forward_time` — identical to an even split for
        today's homogeneous shape groups), so summed TAT equals
        wall-clock spent in the model, as in the sequential path, and a
        large case can never book a smaller case's share.  The raw
        group-level timings are kept in :attr:`last_forward_groups`.
        With ``batched=False`` (or ``tta_samples > 1``, where each case
        is already a full (S, ...) forward) cases run one at a time.
        """
        self.model.eval()
        self.last_forward_groups = []
        if not self.batched or self.tta_samples > 1:
            return [self.predict_case(case) for case in cases]

        # deterministic preprocessing, timed per case
        prepared: List[PreparedCase] = []
        prep_seconds: List[float] = []
        for case in cases:
            start = time.perf_counter()
            prepared.append(self._prepare(case))
            prep_seconds.append(time.perf_counter() - start)

        # group indices by tensor shapes (one group in practice: the
        # preprocessor fixes the edge and token count), then batch each
        # group in group_size chunks
        groups: Dict[tuple, List[int]] = {}
        for index, item in enumerate(prepared):
            key = (item.features.shape, item.points.shape)
            groups.setdefault(key, []).append(index)

        scaled_maps: List[Optional[np.ndarray]] = [None] * len(prepared)
        forward_seconds = [0.0] * len(prepared)
        with nn.no_grad():
            for indices in groups.values():
                for chunk_start in range(0, len(indices), self.group_size):
                    chunk = indices[chunk_start:chunk_start + self.group_size]
                    # batch assembly is part of the model turn-around time
                    # (Definition 3), so it is inside the timed region
                    start = time.perf_counter()
                    features = np.stack([prepared[i].features for i in chunk])
                    points = None
                    if self.preprocessor.use_pointcloud:
                        points = np.stack([prepared[i].points for i in chunk])
                    outputs = self._forward(features, points)
                    group_seconds = time.perf_counter() - start
                    works = [float(prepared[i].features.size
                                   + prepared[i].points.size) for i in chunk]
                    shares = split_forward_time(group_seconds, works)
                    self.last_forward_groups.append(ForwardGroupStats(
                        indices=tuple(chunk), seconds=group_seconds,
                        work_units=tuple(works)))
                    for row, index in enumerate(chunk):
                        scaled_maps[index] = outputs[row]
                        forward_seconds[index] = shares[row]

        results: List[Tuple[np.ndarray, float]] = []
        for index, item in enumerate(prepared):
            start = time.perf_counter()
            prediction = self._finalize(scaled_maps[index], item)
            post = time.perf_counter() - start
            results.append(
                (prediction, prep_seconds[index] + forward_seconds[index] + post))
        return results
