"""Tests for the autograd Tensor plumbing."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import as_tensor, is_grad_enabled, no_grad


def test_tensor_wraps_array_as_float64():
    t = nn.Tensor([[1, 2], [3, 4]])
    assert t.dtype == np.float64
    assert t.shape == (2, 2)
    assert t.ndim == 2
    assert t.size == 4


def test_tensor_rejects_tensor_input():
    with pytest.raises(TypeError):
        nn.Tensor(nn.Tensor([1.0]))


def test_item_scalar_and_error():
    assert nn.Tensor(3.5).item() == 3.5
    with pytest.raises(ValueError):
        nn.Tensor([1.0, 2.0]).item()


def test_backward_requires_scalar_without_grad():
    t = nn.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(RuntimeError):
        (t * 2.0).backward()


def test_backward_grad_shape_validated():
    t = nn.Tensor([1.0, 2.0], requires_grad=True)
    out = t * 2.0
    with pytest.raises(ValueError):
        out.backward(np.ones((3,)))


def test_simple_chain_backward():
    x = nn.Tensor(2.0, requires_grad=True)
    y = (x * x + 3.0 * x + 1.0).sum()
    y.backward()
    assert np.isclose(x.grad, 2 * 2.0 + 3.0)


def test_grad_accumulates_across_backward_calls():
    x = nn.Tensor(1.0, requires_grad=True)
    (x * 2.0).sum().backward()
    first = x.grad.copy()
    (x * 2.0).sum().backward()
    assert np.allclose(x.grad, 2 * first)


def test_diamond_graph_accumulates_both_paths():
    x = nn.Tensor(3.0, requires_grad=True)
    a = x * 2.0
    b = x * 5.0
    (a + b).sum().backward()
    assert np.isclose(x.grad, 7.0)


def test_reused_node_gradient():
    x = nn.Tensor([1.0, 2.0], requires_grad=True)
    y = x * x  # y used twice below
    z = (y + y).sum()
    z.backward()
    assert np.allclose(x.grad, 4.0 * x.data)


def test_detach_cuts_graph():
    x = nn.Tensor(2.0, requires_grad=True)
    y = (x * 3.0).detach()
    assert not y.requires_grad
    z = (y * 2.0).sum()
    # no path back to x
    assert x.grad is None


def test_no_grad_context_disables_graph():
    x = nn.Tensor(1.0, requires_grad=True)
    assert is_grad_enabled()
    with no_grad():
        assert not is_grad_enabled()
        y = x * 2.0
        assert not y.requires_grad
    assert is_grad_enabled()


def test_no_grad_restores_on_exception():
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert is_grad_enabled()


def test_as_tensor_passthrough_and_coercion():
    t = nn.Tensor([1.0])
    assert as_tensor(t) is t
    coerced = as_tensor(5.0)
    assert isinstance(coerced, nn.Tensor)
    assert coerced.item() == 5.0


def test_clone_is_independent_copy():
    x = nn.Tensor([1.0, 2.0], requires_grad=True)
    c = x.clone()
    c.data[0] = 99.0
    assert x.data[0] == 1.0
    assert not c.requires_grad


def test_operator_sugar_matches_functional():
    a = nn.Tensor([1.0, 2.0])
    b = nn.Tensor([3.0, 4.0])
    assert np.allclose((a + b).data, F.add(a, b).data)
    assert np.allclose((a - b).data, F.sub(a, b).data)
    assert np.allclose((a * b).data, F.mul(a, b).data)
    assert np.allclose((a / b).data, F.div(a, b).data)
    assert np.allclose((a ** 2).data, a.data ** 2)
    assert np.allclose((2.0 - a).data, 2.0 - a.data)
    assert np.allclose((2.0 / a).data, 2.0 / a.data)


def test_matmul_operator():
    a = nn.Tensor(np.arange(6.0).reshape(2, 3))
    b = nn.Tensor(np.arange(12.0).reshape(3, 4))
    assert np.allclose((a @ b).data, a.data @ b.data)


def test_deep_graph_does_not_hit_recursion_limit():
    x = nn.Tensor(1.0, requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.0
    y.sum().backward()
    assert np.isclose(x.grad, 1.0)


def test_parameter_requires_grad_by_default():
    p = nn.Parameter(np.zeros(3))
    assert p.requires_grad


def test_len_matches_leading_dim():
    assert len(nn.Tensor(np.zeros((5, 2)))) == 5
