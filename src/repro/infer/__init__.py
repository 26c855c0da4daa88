"""``repro.infer`` — grad-free inference engine for trained models.

Prediction does not need gradients, yet the autograd forward pays for
them anyway: closure construction per op, fresh im2col buffers per conv,
Tensor wrapping everywhere.  This package compiles an eval-mode module
into a flat plan of pure-ndarray kernel calls (the same arithmetic the
autograd ops use — see the kernels in :mod:`repro.nn.functional`).
Every buffer a plan needs sits at a fixed offset of one workspace laid
out at compile time, and each lane's :class:`BufferArena` holds one slab
that workspace is bound to, so steady-state serving allocates nothing
and makes no per-step arena call.  Plans run float32 by default, with
BatchNorm weights folded into the convolutions: ~1e-5 relative agreement
with ``model.forward`` for roughly half the memory traffic and BLAS time.
``dtype="float64"`` (or ``REPRO_INFER_DTYPE=float64``) gives plans that
are bit-exact against ``model.forward``.
"""

from repro.infer.arena import ArenaFrozenError, BufferArena
from repro.infer.engine import InferenceEngine, resolve_infer_dtype
from repro.infer.plan import Plan, compile_plan
from repro.infer.trace import InferenceUnsupportedError, Trace, trace_module

__all__ = [
    "InferenceEngine", "BufferArena", "Plan",
    "ArenaFrozenError", "InferenceUnsupportedError",
    "trace_module", "Trace", "compile_plan",
    "resolve_infer_dtype",
]
