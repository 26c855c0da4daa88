"""Forward-value tests for repro.nn.functional (gradients in test_gradients)."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F


RNG = np.random.default_rng(42)


def t(*shape, requires_grad=False):
    return nn.Tensor(RNG.normal(size=shape), requires_grad=requires_grad)


class TestElementwise:
    def test_broadcast_add(self):
        a = t(3, 1)
        b = t(1, 4)
        out = F.add(a, b)
        assert out.shape == (3, 4)
        assert np.allclose(out.data, a.data + b.data)

    def test_scalar_coercion(self):
        a = t(2, 2)
        assert np.allclose(F.mul(a, 3.0).data, a.data * 3)

    def test_div_matches_numpy(self):
        a, b = t(4), nn.Tensor(RNG.uniform(0.5, 2.0, size=4))
        assert np.allclose(F.div(a, b).data, a.data / b.data)



class TestActivations:
    def test_relu_zeroes_negatives(self):
        out = F.relu(nn.Tensor([-1.0, 0.5]))
        assert np.allclose(out.data, [0.0, 0.5])

    def test_sigmoid_range_and_symmetry(self):
        x = t(100)
        y = F.sigmoid(x).data
        assert np.all((y > 0) & (y < 1))
        assert np.allclose(F.sigmoid(nn.Tensor(0.0)).data, 0.5)

    def test_gelu_limits(self):
        # GELU(x) ~ x for large positive x, ~0 for large negative x
        assert np.isclose(F.gelu(nn.Tensor(10.0)).data, 10.0, atol=1e-3)
        assert np.isclose(F.gelu(nn.Tensor(-10.0)).data, 0.0, atol=1e-3)

    def test_exp_log_sqrt_roundtrip(self):
        x = nn.Tensor(RNG.uniform(0.1, 3.0, size=7))
        assert np.allclose(F.log(F.exp(x)).data, x.data)
        assert np.allclose(F.pow(x, 0.5).data ** 2, x.data)


class TestShapeOps:
    def test_reshape_roundtrip(self):
        x = t(2, 3, 4)
        assert F.reshape(x, (4, 6)).shape == (4, 6)
        assert np.allclose(F.reshape(F.reshape(x, (24,)), (2, 3, 4)).data, x.data)

    def test_transpose_default_reverses(self):
        x = t(2, 3, 4)
        assert F.transpose(x).shape == (4, 3, 2)

    def test_transpose_axes(self):
        x = t(2, 3, 4)
        assert F.transpose(x, (0, 2, 1)).shape == (2, 4, 3)

    def test_concat_and_stack(self):
        a, b = t(2, 3), t(2, 3)
        assert F.concat([a, b], axis=0).shape == (4, 3)
        assert F.concat([a, b], axis=1).shape == (2, 6)


class TestReductions:
    def test_sum_axis_none(self):
        x = t(3, 4)
        assert np.isclose(F.sum(x).data, x.data.sum())

    def test_sum_axis_tuple_keepdims(self):
        x = t(2, 3, 4)
        out = F.sum(x, axis=(0, 2), keepdims=True)
        assert out.shape == (1, 3, 1)

    def test_mean_matches_numpy(self):
        x = t(5, 6)
        assert np.allclose(F.mean(x, axis=1).data, x.data.mean(axis=1))

    def test_negative_axis(self):
        x = t(2, 3)
        assert np.allclose(F.sum(x, axis=-1).data, x.data.sum(axis=-1))


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        x = t(5, 7)
        y = F.softmax(x, axis=-1).data
        assert np.allclose(y.sum(axis=-1), 1.0)
        assert np.all(y > 0)

    def test_softmax_shift_invariance(self):
        x = t(3, 4)
        shifted = nn.Tensor(x.data + 100.0)
        assert np.allclose(F.softmax(x).data, F.softmax(shifted).data)

    def test_softmax_extreme_values_stable(self):
        x = nn.Tensor([[1e4, 0.0, -1e4]])
        y = F.softmax(x).data
        assert np.isfinite(y).all()
        assert np.isclose(y.sum(), 1.0)


class TestMatmul:
    def test_2d(self):
        a, b = t(3, 4), t(4, 5)
        assert np.allclose(F.matmul(a, b).data, a.data @ b.data)

    def test_batched(self):
        a, b = t(2, 3, 4), t(2, 4, 5)
        assert F.matmul(a, b).shape == (2, 3, 5)

    def test_broadcast_batch(self):
        a, b = t(2, 6, 3, 4), t(4, 5)
        assert F.matmul(a, b).shape == (2, 6, 3, 5)


class TestConv:
    def test_conv2d_shape(self):
        x, w = t(2, 3, 8, 8), t(5, 3, 3, 3)
        assert F.conv2d(x, w, stride=1, padding=1).shape == (2, 5, 8, 8)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)

    def test_conv2d_identity_kernel(self):
        x = t(1, 1, 5, 5)
        w = nn.Tensor(np.ones((1, 1, 1, 1)))
        assert np.allclose(F.conv2d(x, w).data, x.data)

    def test_conv2d_matches_direct_computation(self):
        x, w = t(1, 2, 4, 4), t(3, 2, 2, 2)
        out = F.conv2d(x, w).data
        # brute-force reference
        ref = np.zeros((1, 3, 3, 3))
        for f in range(3):
            for i in range(3):
                for j in range(3):
                    ref[0, f, i, j] = (x.data[0, :, i:i+2, j:j+2] * w.data[f]).sum()
        assert np.allclose(out, ref)

    def test_conv2d_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(t(1, 3, 4, 4), t(2, 4, 3, 3))

    def test_conv2d_bias_added(self):
        x, w = t(1, 1, 3, 3), t(2, 1, 1, 1)
        b = nn.Tensor([10.0, 20.0])
        out = F.conv2d(x, w, b).data
        no_bias = F.conv2d(x, w).data
        assert np.allclose(out[0, 0], no_bias[0, 0] + 10.0)
        assert np.allclose(out[0, 1], no_bias[0, 1] + 20.0)

    def test_conv_transpose_doubles_spatial(self):
        x, w = t(2, 3, 5, 5), t(3, 4, 2, 2)
        assert F.conv_transpose2d(x, w, stride=2).shape == (2, 4, 10, 10)

    def test_conv_transpose_k4s2p1_doubles(self):
        x, w = t(1, 2, 6, 6), t(2, 3, 4, 4)
        assert F.conv_transpose2d(x, w, stride=2, padding=1).shape == (1, 3, 12, 12)

    def test_conv_transpose_inverts_conv_shape(self):
        x = t(1, 4, 7, 7)
        down = F.conv2d(x, t(8, 4, 3, 3), stride=2, padding=1)  # -> 4x4
        up = F.conv_transpose2d(down, t(8, 4, 3, 3), stride=2, padding=1,
                                output_padding=0)
        assert up.shape[2] == 7

    def test_conv_transpose_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv_transpose2d(t(1, 3, 4, 4), t(2, 4, 2, 2))


class TestPooling:
    def test_max_pool_shape_and_values(self):
        x = nn.Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_overlapping_max_pool(self):
        x = t(1, 2, 6, 6)
        out = F.max_pool2d(x, 3, stride=1)
        assert out.shape == (1, 2, 4, 4)
