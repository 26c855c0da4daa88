"""The float32 serving arithmetic of compiled plans.

float32 plans lower stride-1 convolutions to kh row-GEMMs over one
kw-wide im2col and sum softmax rows with a GEMV; float64 plans keep the
autograd arithmetic.  The conv step must agree with the float64 im2col
step, give each row of a batch the bits it gets alone (what served-vs-
direct parity rests on) and never read the slab bytes it does not write:
the padded scratch's spare row and the wide buffer's cropped columns.
The ``mean`` step must be ``np.mean`` bit for bit in both dtypes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import functional as F
from repro.infer import InferenceEngine
from repro.infer.arena import BufferArena
from repro.train.seed import seed_everything


class _Call(nn.Module):
    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def forward(self, x):
        return self.fn(x)


class _ConvReLU(nn.Module):
    """conv2d + ReLU, optionally over a transposed (non-contiguous) view."""

    def __init__(self, cin, cout, kernel, padding, bias, transposed):
        super().__init__()
        self.conv = nn.Conv2d(cin, cout, kernel, padding=padding, bias=bias)
        if bias:
            self.conv.bias.data[:] = np.linspace(-0.5, 0.5, cout)
        self.act = nn.ReLU()
        self.transposed = transposed

    def forward(self, x):
        if self.transposed:
            x = F.transpose(x, (0, 1, 3, 2))
        return self.act(self.conv(x))


@given(kernel=st.sampled_from([3, 5]), padding=st.sampled_from([0, 1, 2]),
       edges=st.sampled_from([(7, 13), (13, 7), (13, 13)]),
       bias=st.booleans(), transposed=st.booleans())
@settings(max_examples=30, deadline=None)
def test_float32_conv_rows_match_im2col_per_row_and_ignore_slab_garbage(
        kernel, padding, edges, bias, transposed):
    seed_everything(0)
    model = _ConvReLU(3, 4, kernel, padding, bias, transposed).eval()
    rng = np.random.default_rng(kernel * 10 + padding)
    x = rng.normal(size=(3, 3, *edges))
    single = InferenceEngine(model, dtype="float32")
    oracle = InferenceEngine(model, dtype="float64")

    plan = single.compile(x)
    height, width = edges[::-1] if transposed else edges
    hp, wp = height + 2 * padding, width + 2 * padding
    # padded input with its spare row, (c·kw, hp·wp) rows, wide output
    shapes = [shape for shape, _ in plan.steps[-1].scratch_specs]
    assert shapes[:3] == [(3, 3, hp + 1, wp), (3, 3 * kernel, hp * wp),
                          (3, 4, (hp - kernel + 1) * wp)]
    arena = BufferArena()
    batched = plan.run((x,), arena)
    reference = oracle.compile(x).run((x,), BufferArena())
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(batched - reference)) <= 1e-5 * scale

    for row in range(3):
        alone = single.compile(x[row:row + 1])
        assert np.array_equal(alone.run((x[row:row + 1],), BufferArena()),
                              batched[row:row + 1])

    # NaN in every buffer of the plan's slab before the run
    arg_binding, step_binding = arena.checkout(plan)
    try:
        for _, _, buffer in arg_binding:
            if buffer is not None:
                buffer.fill(np.nan)
        for _, out, scratch in step_binding:
            for buffer in (out, *scratch):
                if buffer is not None and buffer.dtype.kind == "f":
                    buffer.fill(np.nan)
    finally:
        arena.checkin()
    poisoned = plan.run((x,), arena)
    assert np.all(np.isfinite(poisoned))
    assert np.array_equal(poisoned, batched)


@pytest.mark.parametrize("shape", [(2, 4, 9, 192), (3, 5, 7)])
def test_float32_softmax_on_extreme_logits(shape):
    rng = np.random.default_rng(0)
    logits = rng.uniform(-1e4, 1e4, size=shape)
    logits[0, 0] = 1e4                   # a row of ties at the top
    logits[-1, -1] = -1e4                # and at the bottom
    logits[..., 0] += 2e4 * (rng.random(shape[:-1]) < 0.1)   # outliers
    logits = np.clip(logits, -1e4, 1e4)
    engine = InferenceEngine(_Call(lambda x: F.softmax(x, axis=-1)).eval(),
                             dtype="float32")
    probs = engine.run(logits)
    assert probs.dtype == np.float32
    assert np.all(np.isfinite(probs))
    served = logits.astype(np.float32).astype(np.float64)
    exact = np.exp(served - served.max(axis=-1, keepdims=True))
    exact /= exact.sum(axis=-1, keepdims=True)
    assert np.max(np.abs(probs - exact)) <= 1e-6
    assert np.max(np.abs(probs.astype(np.float64).sum(axis=-1) - 1.0)) <= 1e-6


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("keepdims", [True, False])
@pytest.mark.parametrize("axis", [(1, 2), (0, 3), (2,), (-1,), -1])
def test_mean_step_is_np_mean_bit_for_bit(axis, keepdims, dtype):
    x = np.random.default_rng(3).normal(size=(3, 7, 5, 11))
    engine = InferenceEngine(
        _Call(lambda t: F.mean(t, axis=axis, keepdims=keepdims)).eval(),
        dtype=dtype)
    # the plan itself, on an arena of its own
    output = engine.compile(x).run((x,), BufferArena())
    expected = np.mean(x.astype(dtype), axis=axis, keepdims=keepdims)
    assert output.dtype == expected.dtype
    assert np.array_equal(output, expected)
