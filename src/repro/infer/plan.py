"""Trace-to-plan compiler and the plan runtime.

``compile_plan`` lowers a :class:`~repro.infer.trace.Trace` into a flat
:class:`Plan` of kernel steps through a short pass pipeline:

1. **constant folding** — ops fed only by constants (parameter reshapes,
   BatchNorm statistic views) are replaced by their traced value;
2. **BatchNorm folding** (opt-in, ``fold_bn``) — a per-channel affine
   chain of ``sub/mul/add``-by-constant ops following a Conv2d /
   ConvTranspose2d / Linear-matmul is folded into the producer's weights
   and bias.  This changes summation order (≈1 ulp at float64), so it is
   off in the bit-exact default and on in reduced-precision mode;
3. **epilogue fusion** — a constant bias-add and/or ReLU that solely
   consumes a conv/matmul output becomes an in-place epilogue of that
   step.  Both rewrites are arithmetic-identical to the unfused op
   sequence, so they run in the bit-exact float64 plans too;
4. **dead-code elimination** and **in-place planning** — single-consumer
   elementwise ops write into their dying input's buffer;
5. **liveness and layout** — every owned buffer lives from the step that
   first needs it to its last read (scratch for its own step only), and
   buffers whose lifetimes overlap get disjoint, 64-byte-aligned offsets
   of one workspace, packed greedily by size.  A run binds those offsets
   to its lane's slab (see :mod:`repro.infer.arena`) and makes no
   per-step allocation or arena call.

Alongside, :func:`_rows_independent` reads the trace once to decide
whether the forward keeps batch rows apart, which is what lets
:meth:`~repro.infer.engine.InferenceEngine.run` split a batch over
lanes (``Plan.rows_independent``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.infer.arena import ALIGN, BufferArena
from repro.infer.steps import BUILDERS, INPLACE_SAFE, Step, build_step
from repro.infer.trace import InferenceUnsupportedError, Trace, TraceNode

__all__ = ["Plan", "compile_plan"]

_FOLDABLE_PRODUCERS = ("conv2d", "conv_transpose2d", "matmul")
_AFFINE_OPS = ("add", "sub", "mul")
_ELEMENTWISE_OPS = ("add", "sub", "mul", "pow", "exp", "log", "sigmoid",
                    "relu", "gelu")
_NCHW_OPS = ("conv2d", "conv_transpose2d", "max_pool2d")


# ----------------------------------------------------------------------
# Build-time context handed to the step builders
# ----------------------------------------------------------------------
class _BuildContext:
    def __init__(self, nodes, const_of, replacements, dtype, const_fn,
                 arg_contiguous):
        self.nodes = nodes
        self.const_of = const_of
        self.replacements = replacements
        self.dtype = np.dtype(dtype)
        self._const_fn = const_fn
        self.arg_contiguous = arg_contiguous
        self.kinds: Dict[int, str] = {}    # node idx -> buffer/alias/view/...
        self.roots: Dict[int, Optional[int]] = {}
        self.consumer_count: Dict[int, int] = {}
        self.env_inputs: List[int] = []    # env slots read by current step
        self._current: Optional[TraceNode] = None

    # -- ref resolution -------------------------------------------------
    def follow(self, index: int) -> int:
        while index in self.replacements:
            index = self.replacements[index]
        return index

    def resolve_ref(self, ref):
        if ref[0] == "const":
            return ref
        index = self.follow(ref[1])
        value = self.const_of[index]
        if value is not None:
            return ("const", value)
        return ("node", index)

    def resolve(self, ref):
        """Bind a ref for a step: env slot (int) or cast constant array."""
        kind, payload = self.resolve_ref(ref)
        if kind == "const":
            return self.const(payload)
        self.env_inputs.append(payload)
        return payload

    def const(self, array: np.ndarray) -> np.ndarray:
        return self._const_fn(np.asarray(array))

    def const_input(self, ref, what: str) -> np.ndarray:
        kind, payload = self.resolve_ref(ref)
        if kind != "const":
            raise InferenceUnsupportedError(f"{what} is not constant")
        return self.const(payload)

    # -- metadata -------------------------------------------------------
    def spec(self, node: TraceNode):
        return (node.shape, self.dtype)

    def shape_of(self, ref) -> tuple:
        kind, payload = self.resolve_ref(ref)
        if kind == "const":
            return payload.shape
        return self.nodes[payload].shape

    def is_contiguous(self, ref) -> bool:
        kind, payload = self.resolve_ref(ref)
        if kind == "const":
            return payload.flags.c_contiguous
        node = self.nodes[payload]
        if node.op == "arg":
            return self.arg_contiguous[payload]
        if node.value is not None:
            return node.value.flags.c_contiguous
        return False

    def reshape_is_view(self, ref, shape) -> bool:
        kind, payload = self.resolve_ref(ref)
        if kind == "const":
            return False  # consts are folded before this matters
        node = self.nodes[payload]
        if node.op == "arg":
            return self.arg_contiguous[payload]
        traced = node.value
        if traced is None:
            return False
        reshaped = traced.reshape(shape)
        return np.shares_memory(reshaped, traced)

    # -- in-place planning ----------------------------------------------
    def root_of(self, index: int) -> Optional[int]:
        return self.roots.get(index)

    def try_inplace(self, node: TraceNode, input_pos: int) -> Optional[int]:
        if node.op not in INPLACE_SAFE:
            return None
        kind, payload = self.resolve_ref(node.inputs[input_pos])
        if kind != "node":
            return None
        index = payload
        if self.kinds.get(index) not in ("buffer", "alias"):
            return None
        if self.nodes[index].shape != node.shape:
            return None
        if self.consumer_count.get(index, 0) != 1:
            return None
        root = self.root_of(index)
        for pos, other in enumerate(node.inputs):
            if pos == input_pos:
                continue
            other_kind, other_payload = self.resolve_ref(other)
            if other_kind == "node" and self.root_of(other_payload) == root:
                return None  # overlapping read/write through another view
        return index


# ----------------------------------------------------------------------
# Fusion helpers
# ----------------------------------------------------------------------
def _channel_template(node: TraceNode):
    """(channel count, broadcast template shape) for a foldable producer."""
    if node.op == "matmul":
        return node.shape[-1], (node.shape[-1],)
    return node.shape[1], (1, node.shape[1], 1, 1)


def _per_channel_vector(const: np.ndarray, template: tuple,
                        channels: int) -> Optional[np.ndarray]:
    try:
        broadcast = np.broadcast_to(np.asarray(const, dtype=np.float64),
                                    template)
    except ValueError:
        return None
    return np.array(broadcast, dtype=np.float64).reshape(channels)


def _build_consumers(nodes, const_of, dead, ctx, out_ref):
    consumers: Dict[int, List[int]] = {}
    for i, node in enumerate(nodes):
        if node.op == "arg" or i in dead or const_of[i] is not None:
            continue
        for ref in node.inputs:
            kind, payload = ctx.resolve_ref(ref)
            if kind == "node":
                consumers.setdefault(payload, []).append(i)
    kind, payload = ctx.resolve_ref(out_ref)
    if kind == "node":
        consumers.setdefault(payload, []).append(-1)
    return consumers


def _fold_batchnorm(nodes, const_of, dead, ctx, out_ref):
    """Fold per-channel affine chains into preceding conv/linear weights."""
    consumers = _build_consumers(nodes, const_of, dead, ctx, out_ref)
    for i, node in enumerate(nodes):
        if (node.op not in _FOLDABLE_PRODUCERS or i in dead
                or const_of[i] is not None):
            continue
        weight_ref = ctx.resolve_ref(node.inputs[1])
        if weight_ref[0] != "const":
            continue
        weight = np.asarray(weight_ref[1], dtype=np.float64)
        if node.op == "matmul" and weight.ndim != 2:
            continue
        channels, template = _channel_template(node)
        scale = np.ones(channels)
        shift = np.zeros(channels)
        absorbed: List[int] = []
        cursor = i
        while True:
            chain = consumers.get(cursor, [])
            if len(chain) != 1 or chain[0] == -1:
                break
            nxt = chain[0]
            nxt_node = nodes[nxt]
            if nxt_node.op not in _AFFINE_OPS or nxt_node.shape != node.shape:
                break
            refs = [ctx.resolve_ref(ref) for ref in nxt_node.inputs]
            if refs[0] == ("node", cursor):
                other = refs[1]
            elif (refs[1] == ("node", cursor)
                  and nxt_node.op in ("add", "mul")):
                other = refs[0]
            else:
                break
            if other[0] != "const":
                break
            vector = _per_channel_vector(other[1], template, channels)
            if vector is None:
                break
            if nxt_node.op == "add":
                shift = shift + vector
            elif nxt_node.op == "sub":
                shift = shift - vector
            else:  # mul
                scale = scale * vector
                shift = shift * vector
            absorbed.append(nxt)
            cursor = nxt
        if not absorbed:
            continue
        if node.op == "conv2d":
            folded = weight * scale[:, None, None, None]
        elif node.op == "conv_transpose2d":
            folded = weight * scale[None, :, None, None]
        else:
            folded = weight * scale[None, :]
        node.inputs[1] = ("const", folded)
        if node.op == "matmul":
            if np.any(shift):
                node.ep_bias.append(shift)
        else:
            if len(node.inputs) > 2:
                bias_ref = ctx.resolve_ref(node.inputs[2])
                if bias_ref[0] != "const":
                    raise InferenceUnsupportedError(
                        f"{node.op} bias is not constant")
                bias = np.asarray(bias_ref[1], dtype=np.float64)
                node.inputs[2] = ("const", bias * scale + shift)
            elif np.any(shift):
                node.inputs.append(("const", shift))
        for index in absorbed:
            dead.add(index)
            ctx.replacements[index] = i


def _fuse_epilogues(nodes, const_of, dead, ctx, out_ref):
    """Absorb sole-consumer bias adds and ReLUs into conv/matmul steps."""
    while True:
        consumers = _build_consumers(nodes, const_of, dead, ctx, out_ref)
        progress = False
        for i, node in enumerate(nodes):
            if (node.op not in _FOLDABLE_PRODUCERS or i in dead
                    or const_of[i] is not None or node.ep_relu):
                continue
            chain = consumers.get(i, [])
            if len(chain) != 1 or chain[0] == -1:
                continue
            nxt = chain[0]
            nxt_node = nodes[nxt]
            if (nxt_node.op == "relu"
                    and ctx.resolve_ref(nxt_node.inputs[0]) == ("node", i)):
                node.ep_relu = True
            elif nxt_node.op == "add" and nxt_node.shape == node.shape:
                refs = [ctx.resolve_ref(ref) for ref in nxt_node.inputs]
                if refs[0] == ("node", i) and refs[1][0] == "const":
                    const = refs[1][1]
                elif refs[1] == ("node", i) and refs[0][0] == "const":
                    const = refs[0][1]
                else:
                    continue
                if np.broadcast_shapes(const.shape, node.shape) != node.shape:
                    continue
                node.ep_bias.append(np.asarray(const, dtype=np.float64))
            else:
                continue
            dead.add(nxt)
            ctx.replacements[nxt] = i
            progress = True
        if not progress:
            return


# ----------------------------------------------------------------------
# Row independence
# ----------------------------------------------------------------------
def _constant_varies(inputs, out: int, ndim: int) -> bool:
    """Whether a constant input, right-aligned with an ``ndim``-axis
    output as broadcasting does, differs along output axis ``out``."""
    return any(axis is None and 0 <= out - ndim + len(shape)
               and shape[out - ndim + len(shape)] != 1
               for axis, shape in inputs)


def _batch_axis(node: TraceNode, inputs) -> Optional[int]:
    """The batch axis of ``node``'s output, given ``(axis, shape)`` per
    input (axis ``None`` for a constant), or ``None`` when the op mixes
    batch rows or its rows cannot be followed."""
    op, meta, ndim = node.op, node.meta, len(node.shape)
    carried = [axis for axis, _ in inputs if axis is not None]
    if op in _ELEMENTWISE_OPS:
        # broadcasting right-aligns every input with the output
        aligned = {axis + ndim - len(shape) for axis, shape in inputs
                   if axis is not None}
        if len(aligned) != 1:
            return None
        out = aligned.pop()
        return None if _constant_varies(inputs, out, ndim) else out
    if op in _NCHW_OPS:  # weights and bias are constants
        return 0 if carried == [0] and inputs[0][0] == 0 else None
    if op == "concat":
        axis = meta["axis"] % ndim
        if len(carried) != len(inputs) or len(set(carried)) != 1 \
                or carried[0] == axis:
            return None
        return carried[0]
    if op == "matmul":
        (a, a_shape), (b, b_shape) = inputs
        if len(a_shape) < 2 or len(b_shape) < 2:
            return None
        outs = set()
        for axis, shape, contracted in ((a, a_shape, len(a_shape) - 1),
                                        (b, b_shape, len(b_shape) - 2)):
            if axis is not None:
                if axis == contracted:
                    return None
                outs.add(axis + ndim - len(shape))
        if len(outs) != 1:
            return None
        out = outs.pop()
        # on a stacked axis a constant operand must broadcast
        if out < ndim - 2 and _constant_varies(inputs, out, ndim):
            return None
        return out
    if len(carried) != 1:
        return None
    axis = carried[0]
    if op == "softmax":
        return None if meta["axis"] % ndim == axis else axis
    if op == "mean":
        reduced = meta["axis"]
        if reduced is None:
            return None
        in_ndim = len(inputs[0][1])
        reduced = {r % in_ndim for r in (
            reduced if isinstance(reduced, (tuple, list)) else (reduced,))}
        if axis in reduced:
            return None
        return axis if meta["keepdims"] else axis - sum(
            r < axis for r in reduced)
    if op == "transpose":
        axes = meta["axes"]
        return (ndim - 1 - axis) if axes is None else list(axes).index(axis)
    if op == "reshape":
        # the rows stay whole where the output has an axis of the batch
        # size with the same product of sizes before it; at one row per
        # shard any size-1 axis qualifies, so an ambiguous reshape that
        # moves the axis counts as mixing
        shape = inputs[0][1]
        before, rows = math.prod(shape[:axis]), shape[axis]
        fits = [at for at in range(ndim) if node.shape[at] == rows
                and math.prod(node.shape[:at]) == before]
        if axis in fits:
            return axis
        return fits[0] if len(fits) == 1 else None
    return None


def _rows_independent(trace: Trace) -> bool:
    """Whether the traced forward keeps batch rows apart: axis 0 of the
    inputs can be followed through every op to axis 0 of the output,
    and no op reduces, normalises, concatenates or contracts over it or
    meets a constant that differs along it.  Only such a forward may be
    split row-wise over lanes; anything this cannot follow counts as
    mixing rows."""
    nodes = trace.nodes
    axes: List[Optional[int]] = [None] * len(nodes)
    for i, node in enumerate(nodes):
        if node.op == "arg":
            if not node.shape:
                return False
            axes[i] = 0
            continue
        inputs = [(None, ref[1].shape) if ref[0] == "const"
                  else (axes[ref[1]], nodes[ref[1]].shape)
                  for ref in node.inputs]
        if all(axis is None for axis, _ in inputs):
            continue  # computed from constants only
        axes[i] = _batch_axis(node, inputs)
        if axes[i] is None:
            return False
    kind, payload = trace.out_ref
    return kind == "node" and axes[payload] == 0


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
class Plan:
    """A compiled forward: ordered kernel steps over a static buffer layout.

    ``buffers`` holds ``(offset, shape, dtype)`` per owned buffer, in the
    order a run first needs them; ``workspace_nbytes`` is the workspace
    they pack into.  Arg casts name their buffer in ``arg_plan``, steps
    in ``out_slot`` and ``scratch_slots``.  ``rows_independent`` says
    whether a batch may be split row-wise into shards run by separate
    plans (see :func:`_rows_independent`).
    """

    __slots__ = ("steps", "n_nodes", "n_args", "arg_plan", "out_index",
                 "out_const", "dtype", "buffers", "workspace_nbytes",
                 "rows_independent", "__weakref__")

    def __init__(self, steps: List[Step], n_nodes: int, n_args: int,
                 arg_plan, out_index: Optional[int],
                 out_const: Optional[np.ndarray], dtype,
                 buffers: List[Tuple[int, tuple, np.dtype]],
                 workspace_nbytes: int, rows_independent: bool):
        self.steps = steps
        self.n_nodes = n_nodes
        self.n_args = n_args
        self.arg_plan = arg_plan      # [(arg position, node idx, slot|None)]
        self.out_index = out_index
        self.out_const = out_const
        self.dtype = np.dtype(dtype)
        self.buffers = buffers
        self.workspace_nbytes = workspace_nbytes
        self.rows_independent = rows_independent

    def bind(self, slab: np.ndarray):
        """The plan's buffers as views of ``slab`` (at least
        ``workspace_nbytes`` bytes): ``(arg binding, step binding)``,
        the tuples :meth:`run` iterates."""
        views = [slab[offset:offset + math.prod(shape) * dtype.itemsize]
                 .view(dtype).reshape(shape)
                 for offset, shape, dtype in self.buffers]
        args = [(position, index, None if slot is None else views[slot])
                for position, index, slot in self.arg_plan]
        steps = [(step,
                  None if step.out_slot is None else views[step.out_slot],
                  [views[slot] for slot in step.scratch_slots])
                 for step in self.steps]
        return args, steps

    def run(self, args, arena: BufferArena) -> np.ndarray:
        if len(args) != self.n_args:
            raise ValueError(
                f"plan compiled for {self.n_args} inputs, got {len(args)}")
        arg_binding, step_binding = arena.checkout(self)
        try:
            env: List[Optional[np.ndarray]] = [None] * self.n_nodes
            for position, index, buffer in arg_binding:
                if buffer is None:
                    env[index] = args[position]
                else:
                    np.copyto(buffer, args[position])
                    env[index] = buffer
            for step, out, scratch in step_binding:
                env[step.index] = step.run(env, out, scratch)
            if self.out_const is not None:
                return self.out_const.copy()
            return np.array(env[self.out_index], copy=True)
        finally:
            arena.checkin()


def _pack(sizes: List[int], lifetimes: List[Tuple[int, int]]):
    """Greedy-by-size layout: largest buffer first, each at the start of
    the tightest gap that fits it among the placed buffers whose
    ``(first, last)`` lifetimes overlap its own, else past their end.
    Every offset is a multiple of ``ALIGN``.  Returns ``(offsets,
    workspace bytes)``."""
    offsets = [0] * len(sizes)
    placed: List[Tuple[int, int, int, int]] = []  # offset, end, first, last
    for slot in sorted(range(len(sizes)), key=lambda slot: -sizes[slot]):
        first, last = lifetimes[slot]
        size = -(-sizes[slot] // ALIGN) * ALIGN
        busy = sorted((start, stop) for start, stop, begin, end in placed
                      if begin <= last and first <= end)
        cursor, best, best_gap = 0, None, None
        for start, stop in busy:
            gap = start - cursor
            if gap >= size and (best_gap is None or gap < best_gap):
                best, best_gap = cursor, gap
            cursor = max(cursor, stop)
        offsets[slot] = cursor if best is None else best
        placed.append((offsets[slot], offsets[slot] + size, first, last))
    total = max((offset + size for offset, size in zip(offsets, sizes)),
                default=0)
    return offsets, total


# ----------------------------------------------------------------------
# Compiler
# ----------------------------------------------------------------------
def compile_plan(trace: Trace, dtype, fold_bn: bool, const_fn,
                 arg_contiguous: Dict[int, bool]) -> Plan:
    nodes = trace.nodes
    rows_independent = _rows_independent(trace)
    const_of: List[Optional[np.ndarray]] = [None] * len(nodes)
    dead: set = set()
    ctx = _BuildContext(nodes, const_of, {}, dtype, const_fn, arg_contiguous)

    # 1. constant folding (the traced values ARE the folded results).  Only
    # ops with a builder fold: an op without one (``div`` and ``sum``, which
    # only training losses run, or any op traced through ``F._make`` with
    # an index array in its meta) may depend on runtime data the trace
    # cannot see, and folding it would bake the first batch's data into
    # every later forward; unfolded, it refuses compilation in step 5
    for i, node in enumerate(nodes):
        if node.op == "arg" or not node.inputs or node.op not in BUILDERS:
            continue
        if all(ctx.resolve_ref(ref)[0] == "const" for ref in node.inputs):
            const_of[i] = node.value

    # 2./3. graph rewrites
    if fold_bn:
        _fold_batchnorm(nodes, const_of, dead, ctx, trace.out_ref)
    _fuse_epilogues(nodes, const_of, dead, ctx, trace.out_ref)

    # 4. reachability from the output
    out_kind, out_payload = ctx.resolve_ref(trace.out_ref)
    if out_kind == "const" and trace.n_args:
        # a constant output for a model WITH inputs almost certainly means
        # the forward computed something outside the traced op set (raw
        # numpy on .data); replaying it would freeze one input's answer
        raise InferenceUnsupportedError(
            "traced output does not depend on the model inputs; the "
            "forward computes outside the traced op set")
    live = set()
    if out_kind == "node":
        stack = [out_payload]
        while stack:
            index = stack.pop()
            if index in live:
                continue
            live.add(index)
            for ref in nodes[index].inputs:
                kind, payload = ctx.resolve_ref(ref)
                if kind == "node" and payload not in live:
                    stack.append(payload)

    # final consumer counts (for in-place planning)
    counts: Dict[int, int] = {}
    for i in sorted(live):
        node = nodes[i]
        if node.op == "arg":
            continue
        for ref in node.inputs:
            kind, payload = ctx.resolve_ref(ref)
            if kind == "node":
                counts[payload] = counts.get(payload, 0) + 1
    if out_kind == "node":
        counts[out_payload] = counts.get(out_payload, 0) + 1
    ctx.consumer_count = counts

    # argument binding (cast to the plan dtype when needed)
    plan_dtype = np.dtype(dtype)
    arg_plan = []
    for index in range(trace.n_args):
        node = nodes[index]
        if index not in live:
            continue
        if node.dtype != plan_dtype:
            spec = (node.shape, plan_dtype)
            ctx.kinds[index] = "buffer"
            ctx.roots[index] = index
        else:
            spec = None
            ctx.kinds[index] = "external"
            ctx.roots[index] = None
        arg_plan.append((node.meta["position"], index, spec))

    # 5. build steps in trace order
    steps: List[Step] = []
    for i, node in enumerate(nodes):
        if (i not in live or node.op == "arg" or i in dead
                or const_of[i] is not None):
            continue
        ctx.env_inputs = []
        step = build_step(i, node, ctx)
        ctx.kinds[i] = step.kind
        if step.kind == "buffer":
            ctx.roots[i] = i
        elif step.source is not None:
            ctx.roots[i] = ctx.roots.get(step.source)
        else:
            ctx.roots[i] = None
        step._reads = list(ctx.env_inputs)
        steps.append(step)

    # drop traced values so plans don't pin every intermediate
    for i, node in enumerate(nodes):
        if const_of[i] is None:
            node.value = None

    # 6. liveness and layout.  Time 0 is the arg casts, time k+1 step k.
    # An owned buffer lives from the time it is first needed to the last
    # read of it or of a view/alias sharing it (the output buffer to the
    # final copy); a step's scratch lives for that step only.
    out_root = (ctx.roots.get(out_payload) if out_kind == "node" else None)
    last_read: Dict[int, int] = {}
    for time, step in enumerate(steps, 1):
        for read in step._reads:
            root = ctx.roots.get(read)
            if root is not None:
                last_read[root] = time
        del step._reads
    specs: List[tuple] = []
    lifetimes: List[Tuple[int, int]] = []

    def own(spec, first, root=None) -> int:
        if root is None:
            last = first
        elif root == out_root:
            last = len(steps)
        else:
            last = last_read.get(root, first)
        specs.append(spec)
        lifetimes.append((first, last))
        return len(specs) - 1

    arg_plan = [(position, index,
                 None if spec is None else own(spec, 0, index))
                for position, index, spec in arg_plan]
    for time, step in enumerate(steps, 1):
        step.out_slot = (None if step.out_spec is None
                         else own(step.out_spec, time, step.index))
        step.scratch_slots = tuple(own(spec, time)
                                   for spec in step.scratch_specs)
    offsets, workspace_nbytes = _pack(
        [math.prod(shape) * np.dtype(dtype).itemsize
         for shape, dtype in specs], lifetimes)
    buffers = [(offset, tuple(shape), np.dtype(dtype))
               for offset, (shape, dtype) in zip(offsets, specs)]

    out_index = out_payload if out_kind == "node" else None
    out_const = out_payload if out_kind == "const" else None
    return Plan(steps, len(nodes), trace.n_args, arg_plan, out_index,
                out_const, plan_dtype, buffers, workspace_nbytes,
                rows_independent)
