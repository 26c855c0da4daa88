"""Backward-closure memory discipline for the heavy conv buffers.

conv2d's im2col buffer is the largest forward temporary; it is needed
again only for the *weight* gradient.  These tests pin the contract: a
frozen weight (pretrain-style encoder freezing, feature extraction)
means the buffer is not captured at all, and a trainable weight drops it
right after the single backward use.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Parameter, Tensor


def _closure_cells(tensor):
    fn = tensor._backward_fn
    return dict(zip(fn.__code__.co_freevars, fn.__closure__))


def _saved_cols(tensor):
    return _closure_cells(tensor)["saved_cols"].cell_contents


class TestConvColsRetention:
    def _conv(self, weight_requires_grad: bool):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
        weight = Parameter(rng.normal(size=(4, 3, 3, 3)))
        weight.requires_grad = weight_requires_grad
        bias = Parameter(rng.normal(size=4))
        out = F.conv2d(x, weight, bias, padding=1)
        return x, weight, out

    def test_frozen_weight_never_captures_cols(self):
        x, weight, out = self._conv(weight_requires_grad=False)
        assert _saved_cols(out) == [None]

    def test_trainable_weight_drops_cols_after_backward(self):
        x, weight, out = self._conv(weight_requires_grad=True)
        held = _saved_cols(out)
        assert held[0] is not None
        assert held[0].shape == (2, 3 * 3 * 3, 8 * 8)
        out.backward(np.ones(out.shape))
        assert _saved_cols(out) == [None]
        assert weight.grad is not None

    def test_frozen_weight_input_gradient_matches_trainable_run(self):
        """Pretrain-style frozen conv still produces the exact dx."""
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(2, 3, 8, 8))
        w_data = rng.normal(size=(4, 3, 3, 3))
        upstream = rng.normal(size=(2, 4, 8, 8))

        grads = {}
        for trainable in (True, False):
            x = Tensor(x_data.copy(), requires_grad=True)
            weight = Parameter(w_data.copy())
            weight.requires_grad = trainable
            out = F.conv2d(x, weight, None, padding=1)
            out.backward(upstream)
            grads[trainable] = x.grad
        assert np.array_equal(grads[True], grads[False])

    def test_double_backward_use_raises_clearly(self):
        _, _, out = self._conv(weight_requires_grad=True)
        out.backward(np.ones(out.shape))
        with pytest.raises(RuntimeError, match="im2col buffer"):
            out._backward_fn(np.ones(out.shape))

    def test_no_grad_forward_holds_no_cols(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 3, 8, 8)), requires_grad=True)
        weight = Parameter(rng.normal(size=(4, 3, 3, 3)))
        with nn.no_grad():
            out = F.conv2d(x, weight, None, padding=1)
        # no graph at all under no_grad
        assert out._backward_fn is None
