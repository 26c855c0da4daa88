"""Tests for optimisers."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.optim import clip_grad_norm

RNG = np.random.default_rng(23)


def quadratic_param(start=5.0):
    return nn.Parameter(np.array([start]))


def step_quadratic(opt, param, n=100):
    """Minimise f(x) = x^2 with the given optimiser."""
    for _ in range(n):
        opt.zero_grad()
        loss = F.sum(F.mul(param, param))
        loss.backward()
        opt.step()
    return float(param.data[0])


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        assert abs(step_quadratic(nn.Adam([p], lr=0.3), p, n=200)) < 1e-3

    def test_bias_correction_first_step_magnitude(self):
        # with bias correction the very first Adam step ~= lr in magnitude
        p = quadratic_param(1.0)
        opt = nn.Adam([p], lr=0.1)
        opt.zero_grad()
        F.sum(F.mul(p, p)).backward()
        opt.step()
        assert np.isclose(abs(1.0 - p.data[0]), 0.1, rtol=1e-3)

    def test_skips_params_without_grad(self):
        p = quadratic_param()
        opt = nn.Adam([p], lr=0.1)
        opt.step()  # no grad yet: no-op
        assert p.data[0] == 5.0


class TestOptimizerValidation:
    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ValueError):
            nn.Adam([quadratic_param()], lr=0.0)


class TestClipGradNorm:
    def test_clips_to_max_norm(self):
        p = nn.Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        total = clip_grad_norm([p], max_norm=1.0)
        assert total > 1.0
        assert np.isclose(np.linalg.norm(p.grad), 1.0)

    def test_no_clip_below_threshold(self):
        p = nn.Parameter(np.zeros(4))
        p.grad = np.full(4, 0.01)
        before = p.grad.copy()
        clip_grad_norm([p], max_norm=10.0)
        assert np.allclose(p.grad, before)


class TestEndToEndTraining:
    def test_mlp_learns_xor(self):
        nn.init.seed(0)
        model = nn.Sequential(nn.Linear(2, 8), nn.GELU(), nn.Linear(8, 1))
        x = nn.Tensor([[0, 0], [0, 1], [1, 0], [1, 1]])
        y = nn.Tensor([[0.0], [1.0], [1.0], [0.0]])
        opt = nn.Adam(model.parameters(), lr=0.05)
        loss_fn = nn.MSELoss()
        for _ in range(400):
            opt.zero_grad()
            loss = loss_fn(model(x), y)
            loss.backward()
            opt.step()
        assert loss.item() < 1e-2

    def test_small_cnn_overfits_single_batch(self):
        nn.init.seed(1)
        model = nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1), nn.ReLU(),
            nn.Conv2d(4, 1, 3, padding=1),
        )
        rng = np.random.default_rng(0)
        x = nn.Tensor(rng.normal(size=(2, 1, 8, 8)))
        y = nn.Tensor(rng.normal(size=(2, 1, 8, 8)))
        opt = nn.Adam(model.parameters(), lr=0.01)
        first = None
        for _ in range(150):
            opt.zero_grad()
            loss = nn.MSELoss()(model(x), y)
            loss.backward()
            opt.step()
            first = first if first is not None else loss.item()
        assert loss.item() < 0.5 * first
