"""Property-based tests (hypothesis) for autograd invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn
from repro.nn import functional as F

FLOATS = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


@given(FLOATS)
@settings(max_examples=40, deadline=None)
def test_add_commutative(data):
    a, b = nn.Tensor(data), nn.Tensor(data[::-1].copy() if data.ndim == 1 else data)
    assert np.allclose(F.add(a, b).data, F.add(b, a).data)


@given(FLOATS)
@settings(max_examples=40, deadline=None)
def test_relu_idempotent(data):
    t = nn.Tensor(data)
    once = F.relu(t).data
    twice = F.relu(F.relu(t)).data
    assert np.allclose(once, twice)
    assert np.all(once >= 0)


@given(FLOATS)
@settings(max_examples=40, deadline=None)
def test_softmax_is_distribution(data):
    t = nn.Tensor(data.reshape(1, -1))
    y = F.softmax(t, axis=-1).data
    assert np.isclose(y.sum(), 1.0)
    assert np.all(y >= 0)


@given(FLOATS)
@settings(max_examples=40, deadline=None)
def test_sum_linear_in_scaling(data):
    t = nn.Tensor(data)
    assert np.isclose(F.sum(F.mul(t, 3.0)).item(), 3.0 * F.sum(t).item(),
                      rtol=1e-10, atol=1e-8)


@given(FLOATS, st.floats(0.1, 5.0))
@settings(max_examples=40, deadline=None)
def test_gradient_linearity_of_scalar_scaling(data, scale):
    """d(c * sum(x))/dx == c everywhere: backward must be exactly linear."""
    t = nn.Tensor(data, requires_grad=True)
    F.mul(F.sum(t), scale).backward()
    assert np.allclose(t.grad, scale)


@given(hnp.arrays(dtype=np.float64, shape=(3, 4),
                  elements=st.floats(-5, 5, allow_nan=False)))
@settings(max_examples=30, deadline=None)
def test_reshape_preserves_sum_and_grad(data):
    t = nn.Tensor(data, requires_grad=True)
    F.sum(F.reshape(t, (12,))).backward()
    assert np.allclose(t.grad, 1.0)


@given(hnp.arrays(dtype=np.float64, shape=(2, 3),
                  elements=st.floats(-5, 5, allow_nan=False)),
       hnp.arrays(dtype=np.float64, shape=(3, 2),
                  elements=st.floats(-5, 5, allow_nan=False)))
@settings(max_examples=30, deadline=None)
def test_matmul_transpose_identity(a, b):
    """(A @ B)^T == B^T @ A^T."""
    lhs = F.transpose(F.matmul(nn.Tensor(a), nn.Tensor(b))).data
    rhs = F.matmul(F.transpose(nn.Tensor(b)), F.transpose(nn.Tensor(a))).data
    assert np.allclose(lhs, rhs)


@given(st.integers(1, 4), st.integers(1, 3), st.integers(2, 5))
@settings(max_examples=20, deadline=None)
def test_conv_output_shape_formula(batch, channels, size):
    """Convolution output size follows floor((H + 2p - k)/s) + 1."""
    rng = np.random.default_rng(0)
    k, s, p = 3, 2, 1
    h = size + k  # ensure input large enough
    x = nn.Tensor(rng.normal(size=(batch, channels, h, h)))
    w = nn.Tensor(rng.normal(size=(2, channels, k, k)))
    out = F.conv2d(x, w, stride=s, padding=p)
    expected = (h + 2 * p - k) // s + 1
    assert out.shape == (batch, 2, expected, expected)


@given(hnp.arrays(dtype=np.float64, shape=(4, 6),
                  elements=st.floats(-3, 3, allow_nan=False)))
@settings(max_examples=30, deadline=None)
def test_layernorm_output_standardized(data):
    ln = nn.LayerNorm(6)
    out = ln(nn.Tensor(data)).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
