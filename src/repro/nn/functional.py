"""Differentiable operations for the numpy autograd engine.

Every function takes :class:`~repro.nn.tensor.Tensor` inputs (scalars and
arrays are coerced to constant tensors), performs the forward computation
with numpy, and registers a backward closure implementing the analytic
vector-Jacobian product.  Convolutions use the standard im2col/col2im
lowering so the heavy lifting is a single BLAS ``matmul``.

Two extra surfaces exist for the grad-free inference engine
(:mod:`repro.infer`):

* **pure kernels** — the numeric forward of each op the engine runs
  outside a conv/matmul step is a plain ndarray-in/ndarray-out function
  (``max_pool2d_kernel``, ``sigmoid_kernel``, ...) reusable without any
  Tensor wrapping; the autograd ops and the inference engine share this
  arithmetic (the engine's float64 conv steps reuse ``_im2col_into``,
  its conv-transpose steps ``_col2im``), which is what keeps the engine
  bit-exact at float64; float32 plans lower conv2d and softmax their own
  way (see :mod:`repro.infer.steps`);
* **trace hook** — :func:`set_trace_hook` installs a callback that
  observes every op (name, output, parents, params) as a model runs, so
  the engine can compile a module's forward into a flat kernel plan.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "add", "sub", "mul", "div", "pow", "exp", "log", "sigmoid", "relu",
    "gelu", "matmul", "reshape", "transpose", "concat", "sum", "mean",
    "softmax", "conv2d", "conv_transpose2d", "max_pool2d",
    "set_trace_hook",
    "max_pool2d_kernel", "relu_kernel", "sigmoid_kernel", "gelu_kernel",
    "softmax_kernel",
]

Axis = Union[None, int, Tuple[int, ...]]


# ----------------------------------------------------------------------
# Graph-building helpers
# ----------------------------------------------------------------------
class _TraceState(threading.local):
    hook = None


#: per thread, like the grad mode: worker threads compile their engines
#: concurrently, and with one process-wide hook their interleaved
#: restores could leave a stale hook swallowing every later op
_TRACE = _TraceState()


def set_trace_hook(hook):
    """Install (or clear, with ``None``) the calling thread's op-trace
    callback.

    While a hook is installed every op reports
    ``hook(op_name, out_tensor, parent_tensors, meta)`` instead of
    recording autograd state; the inference engine uses this to compile
    a module's forward into a flat kernel plan.  Returns the previously
    installed hook so callers can restore it.
    """
    previous = _TRACE.hook
    _TRACE.hook = hook
    return previous


def _make(data: np.ndarray, parents: Tuple[Tensor, ...], backward_fn,
          op: Optional[str] = None, meta: Optional[dict] = None) -> Tensor:
    """Create an output tensor, recording the graph only when needed."""
    hook = _TRACE.hook
    if hook is not None:
        out = Tensor(data)
        hook(op, out, parents, meta or {})
        return out
    if is_grad_enabled() and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _backward_fn=backward_fn)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    reduce_axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if reduce_axes:
        grad = grad.sum(axis=reduce_axes, keepdims=True)
    return grad


# ----------------------------------------------------------------------
# Elementwise binary operations
# ----------------------------------------------------------------------
def add(a, b) -> Tensor:
    """Elementwise addition with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(grad, b.shape))

    return _make(out_data, (a, b), backward, op="add")


def sub(a, b) -> Tensor:
    """Elementwise subtraction with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-grad, b.shape))

    return _make(out_data, (a, b), backward, op="sub")


def mul(a, b) -> Tensor:
    """Elementwise multiplication with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(grad * a.data, b.shape))

    return _make(out_data, (a, b), backward, op="mul")


def div(a, b) -> Tensor:
    """Elementwise division with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad / b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-grad * a.data / (b.data ** 2), b.shape))

    return _make(out_data, (a, b), backward, op="div")


def pow(a, exponent: float) -> Tensor:
    """Elementwise power with a *constant* exponent."""
    a = as_tensor(a)
    exponent = float(exponent)
    out_data = a.data ** exponent

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad * exponent * a.data ** (exponent - 1.0))

    return _make(out_data, (a,), backward, op="pow", meta={"exponent": exponent})


# ----------------------------------------------------------------------
# Elementwise unary nonlinearities
# ----------------------------------------------------------------------
def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad * out_data)

    return _make(out_data, (a,), backward, op="exp")


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = as_tensor(a)

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad / a.data)

    return _make(np.log(a.data), (a,), backward, op="log")


def sigmoid(a) -> Tensor:
    """Elementwise logistic sigmoid."""
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward, op="sigmoid")


def relu(a) -> Tensor:
    """Elementwise rectifier, max(x, 0)."""
    a = as_tensor(a)
    mask = a.data > 0

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad * mask)

    return _make(a.data * mask, (a,), backward, op="relu")


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a) -> Tensor:
    """GELU with the tanh approximation (as used by transformer blocks).

    The cubic is ``(x*x)*x``, not ``x ** 3`` — numpy's ``power`` ufunc is
    ~100x slower than two multiplies for integer exponents on this path.
    """
    a = as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def backward(grad):
        if a.requires_grad:
            dinner = _GELU_C * (1.0 + 3.0 * 0.044715 * (x * x))
            da = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner
            a.accumulate_grad(grad * da)

    return _make(out_data, (a,), backward, op="gelu")


# ----------------------------------------------------------------------
# Linear algebra and shape manipulation
# ----------------------------------------------------------------------
def matmul(a, b) -> Tensor:
    """Matrix product supporting numpy-style batched broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            if b.data.ndim == 1:
                grad_a = np.multiply.outer(grad, b.data) if grad.ndim else grad * b.data
            else:
                grad_a = grad @ np.swapaxes(b.data, -1, -2)
            if a.data.ndim == 1 and grad_a.ndim > 1:
                grad_a = grad_a.sum(axis=tuple(range(grad_a.ndim - 1)))
            a.accumulate_grad(_unbroadcast(grad_a, a.shape))
        if b.requires_grad:
            if a.data.ndim == 1:
                grad_b = np.multiply.outer(a.data, grad) if grad.ndim else a.data * grad
            else:
                grad_b = np.swapaxes(a.data, -1, -2) @ grad
            if b.data.ndim == 1 and grad_b.ndim > 1:
                grad_b = grad_b.sum(axis=tuple(range(grad_b.ndim - 1)))
            b.accumulate_grad(_unbroadcast(grad_b, b.shape))

    return _make(out_data, (a, b), backward, op="matmul")


def reshape(a, shape: Tuple[int, ...]) -> Tensor:
    """View the tensor with a new shape (data preserved)."""
    a = as_tensor(a)
    original_shape = a.shape
    out_data = a.data.reshape(shape)

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad.reshape(original_shape))

    return _make(out_data, (a,), backward, op="reshape",
                 meta={"shape": out_data.shape})


def transpose(a, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    """Permute axes (defaults to full reversal)."""
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inverse = np.argsort(axes)

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), backward, op="transpose",
                 meta={"axes": tuple(axes)})


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor.accumulate_grad(grad[tuple(slicer)])

    return _make(out_data, tuple(tensors), backward, op="concat",
                 meta={"axis": axis})


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _expand_reduced(grad: np.ndarray, shape, axis: Axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(grad, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % len(shape) for ax in axes)
    if not keepdims:
        grad = np.expand_dims(grad, axes)
    return np.broadcast_to(grad, shape)


def sum(a, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum over the given axis/axes (or all elements)."""
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(_expand_reduced(grad, a.shape, axis, keepdims).copy())

    return _make(out_data, (a,), backward, op="sum",
                 meta={"axis": axis, "keepdims": keepdims})


def mean(a, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Mean over the given axis/axes (or all elements)."""
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else int(np.prod(
        [a.shape[ax % a.ndim] for ax in ((axis,) if isinstance(axis, int) else axis)]
    ))

    def backward(grad):
        if a.requires_grad:
            expanded = _expand_reduced(grad, a.shape, axis, keepdims)
            a.accumulate_grad(expanded / count)

    return _make(out_data, (a,), backward, op="mean",
                 meta={"axis": axis, "keepdims": keepdims})


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along an axis."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exp_data = np.exp(shifted)
    out_data = exp_data / exp_data.sum(axis=axis, keepdims=True)

    def backward(grad):
        if a.requires_grad:
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            a.accumulate_grad(out_data * (grad - inner))

    return _make(out_data, (a,), backward, op="softmax", meta={"axis": axis})


# ----------------------------------------------------------------------
# Convolution machinery (im2col / col2im lowering)
# ----------------------------------------------------------------------
def _im2col(x: np.ndarray, kh: int, kw: int, stride: int):
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


def _im2col_into(x: np.ndarray, kh: int, kw: int, stride: int,
                 cols_out: np.ndarray) -> np.ndarray:
    """:func:`_im2col` writing into a preallocated (n, c·kh·kw, oh·ow) buffer.

    Produces exactly the layout (and therefore the exact matmul result)
    of :func:`_im2col`; the inference engine's conv steps write into a
    scratch buffer of their plan's workspace.
    """
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    view = cols_out.reshape(n, c, kh, kw, oh, ow)
    np.copyto(view, windows.transpose(0, 1, 4, 5, 2, 3))
    return cols_out


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Scatter-add flat ``(n, c·kh·kw, oh·ow)`` column patches back onto
    the image grid; ``out``, when given, must be zero-filled by the caller.
    """
    n, c, h, w = x_shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    x = np.zeros(x_shape, dtype=cols.dtype) if out is None else out
    for i in range(kh):
        row_end = i + stride * oh
        for j in range(kw):
            col_end = j + stride * ow
            x[:, :, i:row_end:stride, j:col_end:stride] += cols[:, :, i, j]
    return x


def _conv2d_forward(x: np.ndarray, weight: np.ndarray,
                    bias: Optional[np.ndarray], stride: int, padding: int):
    """Shared conv2d arithmetic; returns ``(out, cols, padded_shape)``."""
    f, c, kh, kw = weight.shape
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) \
        if padding else x
    cols, oh, ow = _im2col(padded, kh, kw, stride)
    w_mat = weight.reshape(f, c * kh * kw)
    out = np.matmul(w_mat, cols).reshape(x.shape[0], f, oh, ow)
    if bias is not None:
        out = out + bias.reshape(1, f, 1, 1)
    return out, cols, padded.shape


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution.  ``x``: (N,C,H,W); ``weight``: (F,C,KH,KW)."""
    x, weight = as_tensor(x), as_tensor(weight)
    bias = as_tensor(bias) if bias is not None else None
    f, c, kh, kw = weight.shape
    if x.shape[1] != c:
        raise ValueError(f"conv2d channel mismatch: input {x.shape[1]} vs weight {c}")

    out, cols, padded_shape = _conv2d_forward(
        x.data, weight.data, bias.data if bias is not None else None,
        stride, padding)
    oh, ow = out.shape[2], out.shape[3]
    w_mat = weight.data.reshape(f, c * kh * kw)
    # The im2col buffer is the largest forward temporary and is only read
    # again to form the *weight* gradient — so it is not captured at all
    # when the weight is frozen, and is dropped right after its single use
    # otherwise (trims peak memory during the rest of backward).
    saved_cols = [cols if (is_grad_enabled() and weight.requires_grad) else None]
    del cols

    def backward(grad):
        grad_mat = grad.reshape(grad.shape[0], f, oh * ow)
        if weight.requires_grad:
            cols_buf = saved_cols[0]
            if cols_buf is None:
                raise RuntimeError(
                    "conv2d weight gradient requested but the im2col buffer "
                    "was already released (backward ran twice?)"
                )
            saved_cols[0] = None
            dw = np.matmul(grad_mat, cols_buf.transpose(0, 2, 1)).sum(axis=0)
            weight.accumulate_grad(dw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dcols = np.matmul(w_mat.T, grad_mat)
            dx = _col2im(dcols, padded_shape, kh, kw, stride)
            if padding:
                dx = dx[:, :, padding:-padding or None, padding:-padding or None]
            x.accumulate_grad(dx)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out, parents, backward, op="conv2d",
                 meta={"stride": stride, "padding": padding})


def _conv_transpose2d_forward(x: np.ndarray, weight: np.ndarray,
                              bias: Optional[np.ndarray], stride: int,
                              padding: int, output_padding: int):
    """Shared transposed-conv arithmetic; returns ``(out, x_mat, w_mat)``."""
    c_in, c_out, kh, kw = weight.shape
    n, _, h, w = x.shape
    h_full = (h - 1) * stride + kh
    w_full = (w - 1) * stride + kw
    h_out = h_full - 2 * padding + output_padding
    w_out = w_full - 2 * padding + output_padding

    x_mat = x.reshape(n, c_in, h * w)
    w_mat = weight.reshape(c_in, c_out * kh * kw)
    cols = np.matmul(w_mat.T, x_mat)
    full = _col2im(cols, (n, c_out, h_full, w_full), kh, kw, stride)
    if output_padding:
        full = np.pad(full, ((0, 0), (0, 0), (0, output_padding), (0, output_padding)))
    out = full[:, :, padding:padding + h_out, padding:padding + w_out]
    if bias is not None:
        out = out + bias.reshape(1, c_out, 1, 1)
    return np.ascontiguousarray(out), x_mat, w_mat


def conv_transpose2d(
    x, weight, bias=None, stride: int = 1, padding: int = 0, output_padding: int = 0
) -> Tensor:
    """Transposed 2-D convolution (the decoder's learned upsampling).

    ``x``: (N,C_in,H,W); ``weight``: (C_in,C_out,KH,KW) (PyTorch layout).
    Output spatial size is ``(H - 1) * stride - 2 * padding + KH + output_padding``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    bias = as_tensor(bias) if bias is not None else None
    c_in, c_out, kh, kw = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(f"conv_transpose2d channel mismatch: {x.shape[1]} vs {c_in}")
    n, _, h, w = x.shape
    h_full = (h - 1) * stride + kh
    w_full = (w - 1) * stride + kw
    h_out = h_full - 2 * padding + output_padding
    w_out = w_full - 2 * padding + output_padding

    out, x_mat, w_mat = _conv_transpose2d_forward(
        x.data, weight.data, bias.data if bias is not None else None,
        stride, padding, output_padding)

    def backward(grad):
        grad_full = np.zeros((n, c_out, h_full + output_padding, w_full + output_padding),
                             dtype=grad.dtype)
        grad_full[:, :, padding:padding + h_out, padding:padding + w_out] = grad
        grad_full = grad_full[:, :, :h_full, :w_full]
        dcols, _, _ = _im2col(grad_full, kh, kw, stride)
        if x.requires_grad:
            dx = np.matmul(w_mat, dcols).reshape(x.shape)
            x.accumulate_grad(dx)
        if weight.requires_grad:
            dw = np.matmul(x_mat, dcols.transpose(0, 2, 1)).sum(axis=0)
            weight.accumulate_grad(dw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out, parents, backward, op="conv_transpose2d",
                 meta={"stride": stride, "padding": padding,
                       "output_padding": output_padding})


def max_pool2d_kernel(x: np.ndarray, kernel_size: int,
                      stride: Optional[int] = None,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Pure-ndarray max pooling (value-identical to the autograd op).

    Runs as kh·kw pairwise ``np.maximum`` passes over strided slices —
    an order-of-magnitude faster than a windowed multi-axis ``amax``
    (numpy's 6-D reduction iterator is pathologically slow here), and
    exactly equal since max is a selection.
    """
    stride = stride or kernel_size
    n, c, h, w = x.shape
    kh = kw = kernel_size
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if out is None:
        out = np.empty((n, c, oh, ow), dtype=x.dtype)
    first = True
    for i in range(kh):
        for j in range(kw):
            tap = x[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
            if first:
                np.copyto(out, tap)
                first = False
            else:
                np.maximum(out, tap, out=out)
    return out


def max_pool2d(x, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over (N, C, H, W); gradient to argmax."""
    x = as_tensor(x)
    stride = stride or kernel_size
    n, c, h, w = x.shape
    kh = kw = kernel_size
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :].reshape(n, c, oh, ow, kh * kw)
    flat_idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, flat_idx[..., None], axis=-1)[..., 0]

    def backward(grad):
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            ni, ci, oi, oj = np.indices((n, c, oh, ow))
            rows = oi * stride + flat_idx // kw
            cols_ = oj * stride + flat_idx % kw
            np.add.at(dx, (ni, ci, rows, cols_), grad)
            x.accumulate_grad(dx)

    return _make(np.ascontiguousarray(out), (x,), backward, op="max_pool2d",
                 meta={"kernel_size": kernel_size, "stride": stride})


# ----------------------------------------------------------------------
# Pure elementwise / normalisation kernels (inference-engine arithmetic)
# ----------------------------------------------------------------------
def relu_kernel(x: np.ndarray, out: Optional[np.ndarray] = None,
                mask: Optional[np.ndarray] = None) -> np.ndarray:
    """``x * (x > 0)`` — the exact arithmetic of the autograd op."""
    if mask is None:
        mask = x > 0
    else:
        np.greater(x, 0, out=mask)
    if out is None:
        return x * mask
    np.multiply(x, mask, out=out)
    return out


def sigmoid_kernel(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``1 / (1 + exp(-x))`` as the same ufunc sequence as the autograd op."""
    if out is None:
        return 1.0 / (1.0 + np.exp(-x))
    np.negative(x, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)
    return out


def gelu_kernel(x: np.ndarray, out: Optional[np.ndarray] = None,
                scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Tanh-approximation GELU, op-for-op the autograd arithmetic."""
    if out is None:
        inner = _GELU_C * (x + 0.044715 * (x * x * x))
        return 0.5 * x * (1.0 + np.tanh(inner))
    if scratch is None:
        scratch = np.empty_like(out)
    np.multiply(x, x, out=scratch)
    np.multiply(scratch, x, out=scratch)
    np.multiply(scratch, 0.044715, out=scratch)
    np.add(x, scratch, out=scratch)
    np.multiply(scratch, _GELU_C, out=scratch)
    np.tanh(scratch, out=scratch)
    np.add(scratch, 1.0, out=scratch)
    np.multiply(x, 0.5, out=out)
    np.multiply(out, scratch, out=out)
    return out


def softmax_kernel(x: np.ndarray, axis: int = -1,
                   out: Optional[np.ndarray] = None,
                   reduce_buf: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically stable softmax, same ufunc sequence as the autograd op."""
    if out is None:
        shifted = x - x.max(axis=axis, keepdims=True)
        exp_data = np.exp(shifted)
        return exp_data / exp_data.sum(axis=axis, keepdims=True)
    if reduce_buf is None:
        reduced = list(x.shape)
        reduced[axis % x.ndim] = 1
        reduce_buf = np.empty(reduced, dtype=out.dtype)
    np.amax(x, axis=axis, keepdims=True, out=reduce_buf)
    np.subtract(x, reduce_buf, out=out)
    np.exp(out, out=out)
    np.sum(out, axis=axis, keepdims=True, out=reduce_buf)
    np.divide(out, reduce_buf, out=out)
    return out
