"""Tests for optimisers and LR schedulers."""

import numpy as np
import pytest

from repro import nn
from repro.nn.optim import clip_grad_norm

RNG = np.random.default_rng(23)


def quadratic_param(start=5.0):
    return nn.Parameter(np.array([start]))


def step_quadratic(opt, param, n=100):
    """Minimise f(x) = x^2 with the given optimiser."""
    for _ in range(n):
        opt.zero_grad()
        loss = (param * param).sum()
        loss.backward()
        opt.step()
    return float(param.data[0])


class TestSGD:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        assert abs(step_quadratic(nn.SGD([p], lr=0.1), p)) < 1e-4

    def test_momentum_accelerates(self):
        p_plain, p_momentum = quadratic_param(), quadratic_param()
        step_quadratic(nn.SGD([p_plain], lr=0.01), p_plain, n=50)
        step_quadratic(nn.SGD([p_momentum], lr=0.01, momentum=0.9), p_momentum, n=50)
        assert abs(p_momentum.data[0]) < abs(p_plain.data[0])

    def test_weight_decay_shrinks_weights(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.SGD([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 1.0

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            nn.SGD([quadratic_param()], lr=0.1, nesterov=True)

    def test_skips_params_without_grad(self):
        p = quadratic_param()
        opt = nn.SGD([p], lr=0.1)
        opt.step()  # no grad yet: no-op
        assert p.data[0] == 5.0


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        assert abs(step_quadratic(nn.Adam([p], lr=0.3), p, n=200)) < 1e-3

    def test_bias_correction_first_step_magnitude(self):
        # with bias correction the very first Adam step ~= lr in magnitude
        p = quadratic_param(1.0)
        opt = nn.Adam([p], lr=0.1)
        opt.zero_grad()
        (p * p).sum().backward()
        opt.step()
        assert np.isclose(abs(1.0 - p.data[0]), 0.1, rtol=1e-3)

    def test_adamw_decay_decoupled(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.AdamW([p], lr=0.0001, weight_decay=1.0)
        p.grad = np.zeros(1)
        opt.step()
        # decoupled decay applies even with zero gradient
        assert p.data[0] < 1.0


class TestOptimizerValidation:
    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

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


class TestSchedulers:
    def _opt(self):
        return nn.SGD([quadratic_param()], lr=1.0)

    def test_step_lr(self):
        opt = self._opt()
        sched = nn.StepLR(opt, step_size=2, gamma=0.1)
        # epoch counter increments on step(): epochs 1..4 -> decay at 2 and 4
        lrs = [sched.step() for _ in range(4)]
        assert np.allclose(lrs, [1.0, 0.1, 0.1, 0.01])

    def test_exponential_lr(self):
        opt = self._opt()
        sched = nn.ExponentialLR(opt, gamma=0.5)
        assert np.allclose([sched.step(), sched.step()], [0.5, 0.25])

    def test_cosine_reaches_eta_min(self):
        opt = self._opt()
        sched = nn.CosineAnnealingLR(opt, t_max=10, eta_min=0.01)
        last = [sched.step() for _ in range(10)][-1]
        assert np.isclose(last, 0.01)

    def test_cosine_monotone_decreasing(self):
        opt = self._opt()
        sched = nn.CosineAnnealingLR(opt, t_max=20)
        lrs = [sched.step() for _ in range(20)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_warmup_cosine_ramps_then_decays(self):
        opt = self._opt()
        sched = nn.WarmupCosine(opt, warmup=5, t_max=20)
        lrs = [sched.step() for _ in range(20)]
        assert lrs[0] < lrs[4]          # warming up
        assert np.isclose(lrs[4], 1.0)  # peak at end of warmup
        assert lrs[-1] < 0.05           # decayed

    def test_scheduler_updates_optimizer(self):
        opt = self._opt()
        nn.StepLR(opt, step_size=1, gamma=0.5).step()
        assert opt.lr == 0.5

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            nn.StepLR(self._opt(), step_size=0)
        with pytest.raises(ValueError):
            nn.CosineAnnealingLR(self._opt(), t_max=0)
        with pytest.raises(ValueError):
            nn.WarmupCosine(self._opt(), warmup=5, t_max=5)


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
