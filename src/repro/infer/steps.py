"""Executable kernel steps for compiled inference plans.

Each traced op is lowered to a :class:`Step` — a closure over constant
operands and op parameters that reads its inputs from the runtime value
environment and writes into buffers of the plan's workspace.  float64
builders reproduce the autograd ops' arithmetic exactly (same ufunc
sequences, same matmul operands), which is what keeps float64 plans
bit-exact against ``model.forward``.  float32 plans, the served dtype,
deviate where it pays, each within the engine's 1e-4 relative:

* BatchNorm weight folding (see :mod:`repro.infer.plan`; opt-in at
  float64);
* ReLU, standalone or as a conv/matmul epilogue, is one ``maximum``
  pass;
* stride-1 conv2d with a kernel larger than 1x1 runs as kh row-GEMMs
  over one kw-wide im2col (:func:`_conv2d_row_gemms`);
* softmax over the last axis sums its rows with a GEMV against ones and
  multiplies by their reciprocals.

There are builders only for the ops the registered models run.  A traced
op without one raises :class:`InferenceUnsupportedError` at compile
time, and an ``"auto"`` predictor then falls back to autograd.

Output kinds:

* ``buffer`` — the step owns a workspace buffer (``out_spec``);
* ``view``   — the step returns a numpy view of its input (reshape /
  transpose), sharing the input's buffer;
* ``alias``  — the step runs in place on its (dying) input's buffer.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.nn import functional as F
from repro.infer.trace import InferenceUnsupportedError, TraceNode

__all__ = ["Step", "BUILDERS", "build_step", "INPLACE_SAFE"]


class Step:
    """One executable plan step."""

    __slots__ = ("index", "out_spec", "scratch_specs", "run", "kind",
                 "source", "out_slot", "scratch_slots", "_reads")

    def __init__(self, index: int, out_spec, scratch_specs: list,
                 run: Callable, kind: str = "buffer",
                 source: Optional[int] = None):
        self.index = index
        self.out_spec = out_spec          # (shape, dtype) or None
        self.scratch_specs = scratch_specs
        self.run = run                    # run(env, out, scratch) -> ndarray
        self.kind = kind                  # "buffer" | "view" | "alias"
        self.source = source              # env index sharing our buffer
        self.out_slot = None              # layout buffer of out_spec and
        self.scratch_slots = ()           # of scratch_specs (planner)


def _val(src, env):
    """Resolve a bound input: an int is an env slot, anything else a const."""
    return env[src] if type(src) is int else src


BUILDERS: Dict[str, Callable] = {}

#: ops whose step may safely write into the buffer of a dying first input
INPLACE_SAFE = {
    "add", "sub", "mul", "pow", "exp", "log", "sigmoid", "relu", "gelu",
    "softmax",
}


def register(name: str):
    def decorator(fn):
        BUILDERS[name] = fn
        return fn
    return decorator


def build_step(index: int, node: TraceNode, ctx) -> Step:
    builder = BUILDERS.get(node.op)
    if builder is None:
        raise InferenceUnsupportedError(
            f"no inference builder for op {node.op!r}")
    return builder(index, node, ctx)


def _relu_epilogue(ctx, shape):
    """(scratch specs, apply(out, scratch, slot)) for a fused ReLU.

    float64 keeps the autograd arithmetic (`x * (x > 0)`, bit-exact);
    float32 serving mode uses a single ``maximum`` pass (equal except the
    sign of -0.0).
    """
    if ctx.dtype == np.float32:
        def apply(out, scratch, slot):
            np.maximum(out, 0.0, out=out)
        return [], apply

    def apply(out, scratch, slot):
        mask = scratch[slot]
        np.greater(out, 0, out=mask)
        np.multiply(out, mask, out=out)
    return [(shape, np.dtype(bool))], apply


# ----------------------------------------------------------------------
# Elementwise
# ----------------------------------------------------------------------
_BINARY_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply}
_UNARY_UFUNCS = {"exp": np.exp, "log": np.log}


def _build_binary(op_name):
    ufunc = _BINARY_UFUNCS[op_name]

    def build(index, node, ctx):
        a = ctx.resolve(node.inputs[0])
        b = ctx.resolve(node.inputs[1])
        target = ctx.try_inplace(node, 0)
        if target is not None:
            def run(env, out, scratch):
                buf = env[target]
                ufunc(buf, _val(b, env), out=buf)
                return buf
            return Step(index, None, [], run, kind="alias", source=target)

        def run(env, out, scratch):
            ufunc(_val(a, env), _val(b, env), out=out)
            return out
        return Step(index, ctx.spec(node), [], run)
    return build


def _build_unary(op_name):
    ufunc = _UNARY_UFUNCS[op_name]

    def build(index, node, ctx):
        a = ctx.resolve(node.inputs[0])
        target = ctx.try_inplace(node, 0)
        if target is not None:
            def run(env, out, scratch):
                buf = env[target]
                ufunc(buf, out=buf)
                return buf
            return Step(index, None, [], run, kind="alias", source=target)

        def run(env, out, scratch):
            ufunc(_val(a, env), out=out)
            return out
        return Step(index, ctx.spec(node), [], run)
    return build


for _name in _BINARY_UFUNCS:
    BUILDERS[_name] = _build_binary(_name)
for _name in _UNARY_UFUNCS:
    BUILDERS[_name] = _build_unary(_name)


@register("pow")
def _build_pow(index, node, ctx):
    a = ctx.resolve(node.inputs[0])
    exponent = node.meta["exponent"]
    target = ctx.try_inplace(node, 0)

    def run(env, out, scratch):
        buf = env[target] if target is not None else out
        np.power(_val(a, env) if target is None else buf, exponent, out=buf)
        return buf
    if target is not None:
        return Step(index, None, [], run, kind="alias", source=target)
    return Step(index, ctx.spec(node), [], run)


@register("sigmoid")
def _build_sigmoid(index, node, ctx):
    a = ctx.resolve(node.inputs[0])
    target = ctx.try_inplace(node, 0)

    def run(env, out, scratch):
        buf = env[target] if target is not None else out
        return F.sigmoid_kernel(_val(a, env), out=buf)
    if target is not None:
        return Step(index, None, [], run, kind="alias", source=target)
    return Step(index, ctx.spec(node), [], run)


@register("relu")
def _build_relu(index, node, ctx):
    a = ctx.resolve(node.inputs[0])
    target = ctx.try_inplace(node, 0)
    if ctx.dtype == np.float32:
        # serving mode: one maximum pass; equal to x*(x>0) except the
        # sign of -0.0, which float64 bit-exact mode must preserve
        def run(env, out, scratch):
            buf = env[target] if target is not None else out
            np.maximum(_val(a, env) if target is None else buf, 0.0, out=buf)
            return buf
        if target is not None:
            return Step(index, None, [], run, kind="alias", source=target)
        return Step(index, ctx.spec(node), [], run)

    mask_spec = (node.shape, np.dtype(bool))

    def run(env, out, scratch):
        buf = env[target] if target is not None else out
        return F.relu_kernel(_val(a, env), out=buf, mask=scratch[0])
    if target is not None:
        return Step(index, None, [mask_spec], run, kind="alias", source=target)
    return Step(index, ctx.spec(node), [mask_spec], run)


@register("gelu")
def _build_gelu(index, node, ctx):
    a = ctx.resolve(node.inputs[0])
    scratch_spec = (node.shape, ctx.dtype)
    target = ctx.try_inplace(node, 0)

    def run(env, out, scratch):
        buf = env[target] if target is not None else out
        return F.gelu_kernel(_val(a, env), out=buf, scratch=scratch[0])
    if target is not None:
        return Step(index, None, [scratch_spec], run, kind="alias",
                    source=target)
    return Step(index, ctx.spec(node), [scratch_spec], run)


# ----------------------------------------------------------------------
# Softmax and reductions
# ----------------------------------------------------------------------
@register("softmax")
def _build_softmax(index, node, ctx):
    a = ctx.resolve(node.inputs[0])
    axis = node.meta["axis"]
    reduced = list(node.shape)
    reduced[axis % len(reduced)] = 1
    reduce_spec = (tuple(reduced), ctx.dtype)
    target = ctx.try_inplace(node, 0)
    if ctx.dtype == np.float32 and axis % len(reduced) == len(reduced) - 1:
        # serving mode: each image's row sums as one GEMV against ones,
        # and a multiply by their reciprocals instead of a divide
        n, length = node.shape[0], node.shape[-1]
        ones = np.ones(length, dtype=ctx.dtype)

        def run(env, out, scratch):
            x = _val(a, env)
            buf = env[target] if target is not None else out
            sums = scratch[0]
            np.amax(x, axis=-1, keepdims=True, out=sums)
            np.subtract(x, sums, out=buf)
            np.exp(buf, out=buf)
            np.matmul(buf.reshape(n, -1, length), ones,
                      out=sums.reshape(n, -1))
            np.reciprocal(sums, out=sums)
            np.multiply(buf, sums, out=buf)
            return buf
    else:
        def run(env, out, scratch):
            buf = env[target] if target is not None else out
            return F.softmax_kernel(_val(a, env), axis, out=buf,
                                    reduce_buf=scratch[0])
    if target is not None:
        return Step(index, None, [reduce_spec], run, kind="alias",
                    source=target)
    return Step(index, ctx.spec(node), [reduce_spec], run)


@register("mean")
def _build_mean(index, node, ctx):
    a = ctx.resolve(node.inputs[0])
    axis = node.meta["axis"]
    keepdims = node.meta["keepdims"]
    count = math.prod(ctx.shape_of(node.inputs[0])) // math.prod(node.shape)

    def run(env, out, scratch):
        # np.mean's own arithmetic without its Python wrapper
        np.add.reduce(_val(a, env), axis=axis, keepdims=keepdims, out=out)
        np.true_divide(out, count, out=out)
        return out
    return Step(index, ctx.spec(node), [], run)


# ----------------------------------------------------------------------
# Linear algebra / shape
# ----------------------------------------------------------------------
@register("matmul")
def _build_matmul(index, node, ctx):
    a = ctx.resolve(node.inputs[0])
    b = ctx.resolve(node.inputs[1])
    ep_biases = [ctx.const(bias) for bias in node.ep_bias]
    ep_relu = node.ep_relu
    scratch_specs, apply_relu = ([], None)
    if ep_relu:
        scratch_specs, apply_relu = _relu_epilogue(ctx, node.shape)

    def run(env, out, scratch):
        np.matmul(_val(a, env), _val(b, env), out=out)
        for bias in ep_biases:
            np.add(out, bias, out=out)
        if ep_relu:
            apply_relu(out, scratch, 0)
        return out
    return Step(index, ctx.spec(node), scratch_specs, run)


@register("reshape")
def _build_reshape(index, node, ctx):
    a = ctx.resolve(node.inputs[0])
    shape = tuple(node.meta["shape"])
    src_shape = ctx.shape_of(node.inputs[0])
    if ctx.reshape_is_view(node.inputs[0], shape):
        def run(env, out, scratch):
            return _val(a, env).reshape(shape)
        return Step(index, None, [], run, kind="view",
                    source=a if type(a) is int else None)

    def run(env, out, scratch):
        np.copyto(out.reshape(src_shape), _val(a, env))
        return out
    return Step(index, ctx.spec(node), [], run)


@register("transpose")
def _build_transpose(index, node, ctx):
    a = ctx.resolve(node.inputs[0])
    axes = node.meta["axes"]

    def run(env, out, scratch):
        return _val(a, env).transpose(axes)
    return Step(index, None, [], run, kind="view",
                source=a if type(a) is int else None)


@register("concat")
def _build_concat(index, node, ctx):
    axis = node.meta["axis"] % len(node.shape)
    sources = [ctx.resolve(ref) for ref in node.inputs]
    slicers = []
    offset = 0
    for ref in node.inputs:
        size = ctx.shape_of(ref)[axis]
        slicer = [slice(None)] * len(node.shape)
        slicer[axis] = slice(offset, offset + size)
        slicers.append(tuple(slicer))
        offset += size

    def run(env, out, scratch):
        for src, slicer in zip(sources, slicers):
            np.copyto(out[slicer], _val(src, env))
        return out
    return Step(index, ctx.spec(node), [], run)


# ----------------------------------------------------------------------
# Convolutions and pooling
# ----------------------------------------------------------------------
@register("conv2d")
def _build_conv2d(index, node, ctx):
    stride = node.meta["stride"]
    padding = node.meta["padding"]
    xref = node.inputs[0]
    x_src = ctx.resolve(xref)
    weight = ctx.const_input(node.inputs[1], "conv2d weight")
    bias = (ctx.const_input(node.inputs[2], "conv2d bias")
            if len(node.inputs) > 2 else None)
    f, c, kh, kw = weight.shape
    w_mat = weight.reshape(f, c * kh * kw)
    bias4 = bias.reshape(1, f, 1, 1) if bias is not None else None
    ep_biases = [ctx.const(b) for b in node.ep_bias]
    ep_relu = node.ep_relu

    n, _, height, width = ctx.shape_of(xref)
    oh, ow = node.shape[2], node.shape[3]
    if ctx.dtype == np.float32 and stride == 1 and kh * kw > 1:
        return _conv2d_row_gemms(index, node, ctx, x_src, weight, bias4,
                                 ep_biases)
    fast_1x1 = (kh == 1 and kw == 1 and stride == 1 and padding == 0
                and ctx.is_contiguous(xref))

    scratch_specs = []
    pad_slot = cols_slot = mask_slot = None
    apply_relu = None
    if padding:
        pad_slot = len(scratch_specs)
        scratch_specs.append(
            ((n, c, height + 2 * padding, width + 2 * padding), ctx.dtype))
    if not fast_1x1:
        cols_slot = len(scratch_specs)
        scratch_specs.append(((n, c * kh * kw, oh * ow), ctx.dtype))
    if ep_relu:
        mask_slot = len(scratch_specs)
        relu_specs, apply_relu = _relu_epilogue(ctx, node.shape)
        scratch_specs.extend(relu_specs)

    def run(env, out, scratch):
        x = _val(x_src, env)
        if padding:
            padded = scratch[pad_slot]
            # zero only the border; the interior is overwritten right after
            padded[:, :, :padding, :] = 0.0
            padded[:, :, -padding:, :] = 0.0
            padded[:, :, :, :padding] = 0.0
            padded[:, :, :, -padding:] = 0.0
            padded[:, :, padding:padding + height,
                   padding:padding + width] = x
            x = padded
        if fast_1x1:
            cols = x.reshape(n, c, oh * ow)
        else:
            cols = F._im2col_into(x, kh, kw, stride, scratch[cols_slot])
        out3 = out.reshape(n, f, oh * ow)
        np.matmul(w_mat, cols, out=out3)
        if bias4 is not None:
            np.add(out, bias4, out=out)
        for extra in ep_biases:
            np.add(out, extra, out=out)
        if ep_relu:
            apply_relu(out, scratch, mask_slot)
        return out
    return Step(index, ctx.spec(node), scratch_specs, run)


def _conv2d_row_gemms(index, node, ctx, x_src, weight, bias4, ep_biases):
    """float32 stride-1 conv2d as kh row-GEMMs over one kw-wide im2col.

    One strided copy builds ``rows[(c, j), q] = padded_flat[c, q + j]``
    for ``q < hp·wp``.  Kernel row ``i`` multiplies ``W[:, :, i, :]`` by
    the window ``rows[:, i·wp : i·wp + oh·wp]``, a contiguous column range
    of each image's matrix (no copy), and the kh products accumulate in a
    wide ``(f, oh·wp)`` buffer: output pixel ``(y, x)`` sits in column
    ``y·wp + x``, and the ``wp - ow`` wrap-around columns of each output
    row are cropped by the epilogue's read.  The padded scratch carries
    one spare zero row, so the shifted rows of the last kernel row stay
    inside it.  Splitting the K sum by kernel row rounds differently from
    one im2col GEMM, so float64 plans keep im2col.
    """
    padding = node.meta["padding"]
    f, c, kh, kw = weight.shape
    n, _, height, width = ctx.shape_of(node.inputs[0])
    oh, ow = node.shape[2], node.shape[3]
    hp, wp = height + 2 * padding, width + 2 * padding
    span = oh * wp
    w_rows = np.ascontiguousarray(
        weight.transpose(2, 0, 1, 3)).reshape(kh, f, c * kw)
    windows = [slice(i * wp, i * wp + span) for i in range(kh)]
    itemsize = ctx.dtype.itemsize
    rows_shape = (n, c, kw, hp * wp)
    # rows_shape read off the padded scratch: each (c, j) row starts j
    # elements into channel c's flat plane
    shift_strides = ((c * (hp + 1) * wp) * itemsize, (hp + 1) * wp * itemsize,
                     itemsize, itemsize)
    ep_relu = node.ep_relu
    # padded input, rows, the wide accumulator and one kernel row's product
    scratch_specs = [((n, c, hp + 1, wp), ctx.dtype),
                     ((n, c * kw, hp * wp), ctx.dtype),
                     ((n, f, span), ctx.dtype), ((n, f, span), ctx.dtype)]

    def run(env, out, scratch):
        padded, rows, acc, part = scratch
        padded[:, :, :padding] = 0.0
        padded[:, :, padding + height:] = 0.0
        interior = padded[:, :, padding:padding + height]
        interior[..., :padding] = 0.0
        interior[..., padding + width:] = 0.0
        interior[..., padding:padding + width] = _val(x_src, env)
        np.copyto(rows.reshape(rows_shape),
                  np.ndarray(rows_shape, padded.dtype, padded, 0,
                             shift_strides))
        np.matmul(w_rows[0], rows[:, :, windows[0]], out=acc)
        for i in range(1, kh):
            np.matmul(w_rows[i], rows[:, :, windows[i]], out=part)
            np.add(acc, part, out=acc)
        cropped = acc.reshape(n, f, oh, wp)[..., :ow]
        if bias4 is not None:
            np.add(cropped, bias4, out=out)
        else:
            np.copyto(out, cropped)
        for extra in ep_biases:
            np.add(out, extra, out=out)
        if ep_relu:
            np.maximum(out, 0.0, out=out)   # float32's ReLU epilogue
        return out
    return Step(index, ctx.spec(node), scratch_specs, run)


@register("conv_transpose2d")
def _build_conv_transpose2d(index, node, ctx):
    stride = node.meta["stride"]
    padding = node.meta["padding"]
    output_padding = node.meta["output_padding"]
    xref = node.inputs[0]
    x_src = ctx.resolve(xref)
    weight = ctx.const_input(node.inputs[1], "conv_transpose2d weight")
    bias = (ctx.const_input(node.inputs[2], "conv_transpose2d bias")
            if len(node.inputs) > 2 else None)
    c_in, c_out, kh, kw = weight.shape
    w_mat_t = weight.reshape(c_in, c_out * kh * kw).T
    bias4 = bias.reshape(1, c_out, 1, 1) if bias is not None else None
    ep_biases = [ctx.const(b) for b in node.ep_bias]
    ep_relu = node.ep_relu

    n, _, h, w = ctx.shape_of(xref)
    h_full = (h - 1) * stride + kh
    w_full = (w - 1) * stride + kw
    h_out, w_out = node.shape[2], node.shape[3]
    x_contiguous = ctx.is_contiguous(xref)

    scratch_specs = [((n, c_out * kh * kw, h * w), ctx.dtype),
                     ((n, c_out, h_full + output_padding,
                       w_full + output_padding), ctx.dtype)]
    x_slot = mask_slot = None
    apply_relu = None
    if not x_contiguous:
        x_slot = len(scratch_specs)
        scratch_specs.append(((n, c_in, h * w), ctx.dtype))
    if ep_relu:
        mask_slot = len(scratch_specs)
        relu_specs, apply_relu = _relu_epilogue(ctx, node.shape)
        scratch_specs.extend(relu_specs)

    def run(env, out, scratch):
        x = _val(x_src, env)
        if x_contiguous:
            x3 = x.reshape(n, c_in, h * w)
        else:
            x3 = scratch[x_slot]
            np.copyto(x3.reshape(x.shape), x)
            x3 = x3.reshape(n, c_in, h * w)
        cols = scratch[0]
        np.matmul(w_mat_t, x3, out=cols)
        full = scratch[1]
        full.fill(0.0)
        F._col2im(cols, (n, c_out, h_full, w_full), kh, kw, stride,
                  out=full[:, :, :h_full, :w_full])
        view = full[:, :, padding:padding + h_out, padding:padding + w_out]
        if bias4 is not None:
            np.add(view, bias4, out=out)
        else:
            np.copyto(out, view)
        for extra in ep_biases:
            np.add(out, extra, out=out)
        if ep_relu:
            apply_relu(out, scratch, mask_slot)
        return out
    return Step(index, ctx.spec(node), scratch_specs, run)


@register("max_pool2d")
def _build_max_pool2d(index, node, ctx):
    a = ctx.resolve(node.inputs[0])
    kernel_size = node.meta["kernel_size"]
    stride = node.meta["stride"]

    def run(env, out, scratch):
        return F.max_pool2d_kernel(_val(a, env), kernel_size, stride, out=out)
    return Step(index, ctx.spec(node), [], run)
