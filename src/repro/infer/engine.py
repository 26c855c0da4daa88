"""Grad-free inference engine: compiled forwards over a static workspace.

:class:`InferenceEngine` turns an eval-mode :class:`~repro.nn.module.Module`
into shape-specialised kernel plans.  The first forward of a new input
signature traces the model once (an ordinary autograd forward under
``no_grad``), compiles the trace (constant folding, optional BatchNorm
weight folding, bias+ReLU epilogue fusion, in-place planning, buffer
liveness and a fixed-offset buffer layout) and caches the plan; every
following forward of that signature replays the plan over its lane's
workspace slab (:class:`~repro.infer.arena.BufferArena`), allocating
nothing and making no per-step arena call.

Numerics (``dtype=``, else ``REPRO_INFER_DTYPE``, else float32):

* ``dtype="float32"`` (default) — the serving precision: constants are
  cast once, buffers halve, BLAS runs single-precision, and BatchNorm
  folding defaults on.  Outputs agree with the float64 forward to ~1e-5
  relative; on trained models every Table III score prints the same
  (``benchmarks/probe_infer_dtype.py``).
* ``dtype="float64"`` — the oracle, **bit-exact** against
  ``model.forward``: every step runs the same ufunc/matmul sequence on
  the same values; only allocation and dispatch overhead is removed.
  BatchNorm folding is off because it would change summation order.

Threading: a batch of n >= 2 rows is split into row-contiguous shards,
one per lane (see :mod:`repro.infer.lanes`).  The caller runs shard 0;
the module's lane pool runs the others, each over its own lane of the
engine's arena, i.e. its own slab.  Plans are compiled (and validated,
on lane 0's slab) per shard shape on the calling thread, so a batch of 8
on two lanes compiles the batch-4 plan.  Sharding is only correct when
the forward treats rows independently, which every eval-mode model here
does; each plan records whether its trace shows that
(``Plan.rows_independent``, decided once at compile time), and a batch
whose shard plans do not is run whole on the caller instead.  The parity
tests check sharded batches against ``model.forward`` on the whole
batch.  Batch 1 runs on the caller exactly as without lanes.

The engine snapshots weights at compile time: call :meth:`refresh` after
mutating parameters (e.g. ``load_state_dict``) to drop stale plans.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro import knobs
from repro.infer import lanes
from repro.infer.arena import BufferArena
from repro.infer.plan import Plan, compile_plan
from repro.infer.trace import InferenceUnsupportedError, trace_module

__all__ = ["InferenceEngine", "resolve_infer_dtype"]

_SUPPORTED_DTYPES = ("float64", "float32")


def resolve_infer_dtype(dtype=None) -> np.dtype:
    """Resolve the engine dtype: explicit value > ``REPRO_INFER_DTYPE`` >
    float32 (the serving default; ``"float64"`` selects the bit-exact
    oracle)."""
    if dtype is None:
        dtype = knobs.read("REPRO_INFER_DTYPE") or "float32"
    resolved = np.dtype(dtype)
    if resolved.name not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported inference dtype {resolved.name!r}; "
            f"expected one of {_SUPPORTED_DTYPES}")
    return resolved


class InferenceEngine:
    """Compile-and-replay executor for a fixed-weight model."""

    def __init__(self, model, dtype=None, fold_bn: Optional[bool] = None):
        self.model = model
        self.dtype = resolve_infer_dtype(dtype)
        self.fold_bn = (bool(fold_bn) if fold_bn is not None
                        else self.dtype == np.dtype("float32"))
        self.arena = BufferArena()
        self._plans: Dict[tuple, Plan] = {}
        self._const_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._compiled_version = self._model_version()

    def _model_version(self) -> int:
        """The model's weight-state version (0 for non-Module models)."""
        return int(getattr(self.model, "state_version", 0))

    def _drop_stale_plans(self) -> None:
        """Invalidate plans compiled against superseded weights.

        ``Module.load_state_dict`` bumps the model's ``state_version``, so
        a checkpoint loaded into a live model (a mid-session restore) is
        picked up on the next :meth:`run` without
        the caller having to remember :meth:`refresh` — compiled plans
        bake the weights as constants, so serving a stale plan would
        silently keep predicting with the old weights.
        """
        if self._plans or self._const_cache:
            if self._model_version() != self._compiled_version:
                self.refresh()

    # ------------------------------------------------------------------
    def _const(self, array: np.ndarray) -> np.ndarray:
        """Cast a float constant to the engine dtype, once per array."""
        if array.dtype.kind != "f" or array.dtype == self.dtype:
            return array
        key = id(array)
        hit = self._const_cache.get(key)
        if hit is not None and hit[0] is array:
            return hit[1]
        cast = array.astype(self.dtype)
        self._const_cache[key] = (array, cast)
        return cast

    @staticmethod
    def _signature(args) -> tuple:
        return tuple((a.shape, a.dtype.str, a.flags.c_contiguous)
                     for a in args)

    # ------------------------------------------------------------------
    def compile(self, *args) -> Plan:
        """Trace and compile a plan for this input signature (cached).

        The fresh plan is replayed on a *perturbed* copy of the inputs
        and checked against the autograd forward before being accepted.
        The trace cannot see raw-numpy computation a forward performs on
        ``.data`` between traced ops — such values would be silently
        baked into the plan as the first batch's constants — so any input
        dependence the plan fails to reproduce is caught here and
        surfaces as
        :class:`InferenceUnsupportedError` (an ``"auto"`` predictor then
        falls back to autograd instead of serving corrupt outputs).
        """
        self._drop_stale_plans()
        arrays = tuple(np.asarray(arg) for arg in args)
        signature = self._signature(arrays)
        plan = self._plans.get(signature)
        if plan is None:
            trace = trace_module(self.model, arrays)
            arg_contiguous = {index: arrays[index].flags.c_contiguous
                              for index in range(len(arrays))}
            plan = compile_plan(trace, self.dtype, self.fold_bn,
                                self._const, arg_contiguous)
            self._validate_plan(plan, arrays)
            self._plans[signature] = plan
        return plan

    def _validate_plan(self, plan: Plan, arrays) -> None:
        rng = np.random.default_rng(0x1AFE)
        perturbed = tuple(
            np.asarray(arg + rng.standard_normal(arg.shape)
                       * (float(np.std(arg)) + 1e-3), dtype=arg.dtype)
            if arg.dtype.kind == "f" else arg
            for arg in arrays)
        from repro.nn.tensor import Tensor, no_grad
        with no_grad():
            reference = self.model(*[Tensor(p) for p in perturbed]).data
        replayed = plan.run(perturbed, self.arena)
        if self.dtype == reference.dtype and not self.fold_bn:
            ok = np.array_equal(reference, replayed)
        else:
            # BN folding reassociates (~1 ulp) and float32 rounds; either
            # way a baked intermediate is an O(1) error, far above this
            tolerance = 1e-9 if self.dtype == reference.dtype else 1e-3
            scale = max(float(np.max(np.abs(reference))), 1e-12)
            ok = (float(np.max(np.abs(
                np.asarray(replayed, dtype=np.float64) - reference)))
                / scale) <= tolerance
        if not ok:
            raise InferenceUnsupportedError(
                "compiled plan does not reproduce the model forward on a "
                "perturbed input — the forward likely computes on raw "
                ".data between traced ops, which a plan would freeze at "
                "the first batch's values")

    def run(self, *args) -> np.ndarray:
        """One forward; returns a fresh array in the engine dtype.

        A batch of several rows is sharded over the lanes when its plans
        keep rows independent (see the module docstring); an error
        raised in any lane reaches the caller once every lane has
        finished.
        """
        if getattr(self.model, "training", False):
            raise InferenceUnsupportedError(
                "InferenceEngine.run requires eval mode; call model.eval()")
        self._drop_stale_plans()
        arrays = tuple(np.asarray(arg) for arg in args)
        bounds = self._shards(arrays)
        if len(bounds) > 1:
            shards = [tuple(array[start:stop] for array in arrays)
                      for start, stop in bounds]
            plans = [self._plan_for(shard) for shard in shards]
            if all(plan.rows_independent for plan in plans):
                return self._run_lanes(plans, shards)
        return self._plan_for(arrays).run(arrays, self.arena)

    def _run_lanes(self, plans, shards) -> np.ndarray:
        """Run shard ``i`` with ``plans[i]`` on lane ``i``; the caller
        runs lane 0."""
        arenas = [self.arena.lane(index) for index in range(len(shards))]
        pool = lanes.executor()
        futures = [pool.submit(plan.run, shard, arena) for plan, shard, arena
                   in zip(plans[1:], shards[1:], arenas[1:])]
        # every lane finishes before anything is raised: a lane still
        # running would hold its slab checked out past this call
        outputs, error = [], None
        try:
            outputs.append(plans[0].run(shards[0], arenas[0]))
        except BaseException as caught:
            error = caught
        for future in futures:
            try:
                outputs.append(future.result())
            except BaseException as caught:
                if error is None:
                    error = caught
        if error is not None:
            raise error
        return np.concatenate(outputs)

    @staticmethod
    def _shards(arrays) -> list:
        """Row bounds of the lane shards: one shard unless every input
        has the same leading (batch) dimension of 2 or more."""
        n = arrays[0].shape[0] if arrays and arrays[0].ndim else 1
        if n < 2 or any(a.ndim == 0 or a.shape[0] != n for a in arrays):
            return [(0, n)]
        return lanes.shard_bounds(n, lanes.LANES)

    def _plan_for(self, arrays) -> Plan:
        plan = self._plans.get(self._signature(arrays))
        return plan if plan is not None else self.compile(*arrays)

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Drop compiled plans and cast constants (after weight updates)."""
        self._plans.clear()
        self._const_cache.clear()
        self._compiled_version = self._model_version()

    @property
    def plan_count(self) -> int:
        return len(self._plans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InferenceEngine(dtype={self.dtype.name}, "
                f"fold_bn={self.fold_bn}, plans={self.plan_count})")
