"""Tests for losses (the paper trains with MSE)."""

import numpy as np
import pytest

from repro import nn
from repro.nn.losses import masked_mse

RNG = np.random.default_rng(17)


def test_mse_matches_numpy():
    pred, target = RNG.normal(size=(4, 5)), RNG.normal(size=(4, 5))
    loss = nn.MSELoss()(nn.Tensor(pred), nn.Tensor(target))
    assert np.isclose(loss.item(), ((pred - target) ** 2).mean())


def test_mse_zero_at_perfect_prediction():
    x = nn.Tensor(RNG.normal(size=(3, 3)))
    assert nn.MSELoss()(x, nn.Tensor(x.data.copy())).item() == 0.0


def test_masked_mse_ignores_masked_pixels():
    pred = nn.Tensor([[1.0, 100.0]])
    target = nn.Tensor([[0.0, 0.0]])
    mask = np.array([[1.0, 0.0]])
    assert np.isclose(masked_mse(pred, target, mask).item(), 1.0)


def test_masked_mse_no_mask_is_plain_mse():
    pred, target = nn.Tensor(RNG.normal(size=(3, 3))), nn.Tensor(RNG.normal(size=(3, 3)))
    assert np.isclose(masked_mse(pred, target).item(),
                      nn.MSELoss()(pred, target).item())


def test_masked_mse_all_masked_raises():
    with pytest.raises(ValueError):
        masked_mse(nn.Tensor([1.0]), nn.Tensor([0.0]), np.zeros(1))


def test_losses_backprop():
    pred = nn.Tensor(RNG.normal(size=(4,)), requires_grad=True)
    target = nn.Tensor((RNG.random(4) > 0.5).astype(float))
    nn.MSELoss()(pred, target).backward()
    assert pred.grad is not None
    assert np.isfinite(pred.grad).all()
