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
        F.mul(t, 2.0).backward()


def test_backward_grad_shape_validated():
    t = nn.Tensor([1.0, 2.0], requires_grad=True)
    out = F.mul(t, 2.0)
    with pytest.raises(ValueError):
        out.backward(np.ones((3,)))


def test_simple_chain_backward():
    x = nn.Tensor(2.0, requires_grad=True)
    y = F.sum(F.add(F.add(F.mul(x, x), F.mul(3.0, x)), 1.0))
    y.backward()
    assert np.isclose(x.grad, 2 * 2.0 + 3.0)


def test_grad_accumulates_across_backward_calls():
    x = nn.Tensor(1.0, requires_grad=True)
    F.sum(F.mul(x, 2.0)).backward()
    first = x.grad.copy()
    F.sum(F.mul(x, 2.0)).backward()
    assert np.allclose(x.grad, 2 * first)


def test_diamond_graph_accumulates_both_paths():
    x = nn.Tensor(3.0, requires_grad=True)
    a = F.mul(x, 2.0)
    b = F.mul(x, 5.0)
    F.sum(F.add(a, b)).backward()
    assert np.isclose(x.grad, 7.0)


def test_reused_node_gradient():
    x = nn.Tensor([1.0, 2.0], requires_grad=True)
    y = F.mul(x, x)  # y used twice below
    z = F.sum(F.add(y, y))
    z.backward()
    assert np.allclose(x.grad, 4.0 * x.data)


def test_detach_cuts_graph():
    x = nn.Tensor(2.0, requires_grad=True)
    y = nn.Tensor(F.mul(x, 3.0).data)  # re-wrapping the data detaches
    assert not y.requires_grad
    F.sum(F.mul(y, 2.0)).backward()
    # no path back to x
    assert x.grad is None


def test_no_grad_context_disables_graph():
    x = nn.Tensor(1.0, requires_grad=True)
    assert is_grad_enabled()
    with no_grad():
        assert not is_grad_enabled()
        y = F.mul(x, 2.0)
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


def test_deep_graph_does_not_hit_recursion_limit():
    x = nn.Tensor(1.0, requires_grad=True)
    y = x
    for _ in range(5000):
        y = F.add(y, 0.0)
    F.sum(y).backward()
    assert np.isclose(x.grad, 1.0)


def test_parameter_requires_grad_by_default():
    p = nn.Parameter(np.zeros(3))
    assert p.requires_grad


def test_len_matches_leading_dim():
    assert len(nn.Tensor(np.zeros((5, 2)))) == 5
