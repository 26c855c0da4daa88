"""Finite-difference validation of every analytic backward pass.

The reproduction's central substitution (PyTorch -> hand-rolled autograd)
is only sound if gradients are exact; these tests check each primitive
against central differences.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.gradcheck import check_gradients

RNG = np.random.default_rng(7)


def t(*shape):
    return nn.Tensor(RNG.normal(size=shape), requires_grad=True)


def tpos(*shape):
    return nn.Tensor(RNG.uniform(0.5, 2.0, size=shape), requires_grad=True)


@pytest.mark.parametrize("op", [F.add, F.sub, F.mul, F.div])
def test_binary_ops(op):
    check_gradients(op, [t(3, 4), tpos(3, 4)])


@pytest.mark.parametrize("op", [F.add, F.sub, F.mul])
def test_binary_ops_broadcast(op):
    check_gradients(op, [t(3, 1), t(1, 4)])
    check_gradients(op, [t(2, 3, 4), t(4)])


def test_div_broadcast():
    check_gradients(F.div, [t(3, 1), tpos(1, 4)])


@pytest.mark.parametrize("exponent", [2.0, 3.0, -1.0, 0.5])
def test_pow(exponent):
    check_gradients(lambda x: F.pow(x, exponent), [tpos(4)])


@pytest.mark.parametrize("op", [F.exp, F.sigmoid, F.gelu])
def test_smooth_unary(op):
    check_gradients(op, [t(3, 3)])


def test_log_sqrt():
    check_gradients(F.log, [tpos(4)])
    check_gradients(lambda x: F.pow(x, 0.5), [tpos(4)])


def test_relu_away_from_kink():
    x = nn.Tensor(RNG.normal(size=(4, 4)) + np.sign(RNG.normal(size=(4, 4))),
                  requires_grad=True)
    x.data[np.abs(x.data) < 0.1] = 0.5
    check_gradients(F.relu, [x])


def test_matmul_2d_and_batched():
    check_gradients(F.matmul, [t(3, 4), t(4, 5)])
    check_gradients(F.matmul, [t(2, 3, 4), t(2, 4, 5)])


def test_matmul_broadcast_batch():
    check_gradients(F.matmul, [t(2, 2, 3, 4), t(4, 5)])
    check_gradients(F.matmul, [t(3, 4), t(2, 4, 5)])


def test_matmul_vector_cases():
    check_gradients(F.matmul, [t(4), t(4, 5)])
    check_gradients(F.matmul, [t(3, 4), t(4)])


def test_reshape_transpose():
    check_gradients(lambda x: F.reshape(x, (6, 2)), [t(3, 4)])
    check_gradients(lambda x: F.transpose(x, (2, 0, 1)), [t(2, 3, 4)])


def test_concat_stack():
    check_gradients(lambda a, b: F.concat([a, b], axis=1), [t(2, 3), t(2, 2)])


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True),
                                           ((0, 2), False)])
def test_sum_mean(axis, keepdims):
    check_gradients(lambda x: F.sum(x, axis=axis, keepdims=keepdims), [t(2, 3, 4)])
    check_gradients(lambda x: F.mean(x, axis=axis, keepdims=keepdims), [t(2, 3, 4)])


def test_softmax_log_softmax():
    check_gradients(lambda x: F.softmax(x, axis=-1), [t(3, 5)])


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d(stride, padding):
    check_gradients(
        lambda x, w, b: F.conv2d(x, w, b, stride=stride, padding=padding),
        [t(2, 2, 6, 6), t(3, 2, 3, 3), t(3)],
    )


@pytest.mark.parametrize("stride,padding,output_padding,k", [
    (2, 0, 0, 2), (2, 1, 0, 4), (1, 0, 0, 3), (2, 1, 1, 3),
])
def test_conv_transpose2d(stride, padding, output_padding, k):
    check_gradients(
        lambda x, w, b: F.conv_transpose2d(
            x, w, b, stride=stride, padding=padding, output_padding=output_padding),
        [t(2, 3, 4, 4), t(3, 2, k, k), t(2)],
    )


def test_max_pool_grad():
    # jitter to avoid exact ties inside pooling windows
    x = nn.Tensor(RNG.permutation(64).reshape(1, 1, 8, 8).astype(float),
                  requires_grad=True)
    check_gradients(lambda v: F.max_pool2d(v, 2), [x])
    check_gradients(lambda v: F.max_pool2d(v, 3, stride=2), [x])


def test_layer_modules_gradcheck():
    layer = nn.Linear(4, 3)
    x = t(2, 4)
    inputs = [x, layer.weight, layer.bias]
    check_gradients(lambda xv, w, b: F.add(F.matmul(xv, w), b), inputs)


def test_attention_block_gradients_flow():
    block = nn.TransformerEncoderBlock(dim=8, num_heads=2)
    x = t(2, 5, 8)
    out = block(x)
    F.sum(out).backward()
    for name, param in block.named_parameters():
        assert param.grad is not None, f"no grad for {name}"
        assert np.isfinite(param.grad).all()


def test_cross_attention_gradients_flow():
    block = nn.CrossAttentionBlock(dim=8, num_heads=2)
    q, ctx = t(2, 4, 8), t(2, 6, 8)
    F.sum(block(q, ctx)).backward()
    assert q.grad is not None and ctx.grad is not None
    assert np.isfinite(q.grad).all() and np.isfinite(ctx.grad).all()


def test_attention_gate_gradients_flow():
    gate = nn.AttentionGate(gate_channels=4, skip_channels=6)
    g, s = t(2, 4, 5, 5), t(2, 6, 5, 5)
    F.sum(gate(g, s)).backward()
    assert g.grad is not None and s.grad is not None
