"""Tests for trainable layers (shapes, semantics, train/eval behaviour)."""

import numpy as np
import pytest

from repro import nn

RNG = np.random.default_rng(11)


def t(*shape):
    return nn.Tensor(RNG.normal(size=shape))


class TestLinear:
    def test_shape(self):
        layer = nn.Linear(5, 3)
        assert layer(t(4, 5)).shape == (4, 3)

    def test_applies_to_last_dim(self):
        layer = nn.Linear(5, 3)
        assert layer(t(2, 7, 5)).shape == (2, 7, 3)

    def test_no_bias(self):
        layer = nn.Linear(5, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_matches_manual(self):
        layer = nn.Linear(4, 2)
        x = t(3, 4)
        expected = x.data @ layer.weight.data + layer.bias.data
        assert np.allclose(layer(x).data, expected)


class TestConvLayers:
    def test_conv2d_shape(self):
        layer = nn.Conv2d(3, 8, kernel_size=3, stride=1, padding=1)
        assert layer(t(2, 3, 16, 16)).shape == (2, 8, 16, 16)

    def test_conv2d_7x7_padding3_preserves(self):
        # the paper's circuit encoder uses 7x7 convs
        layer = nn.Conv2d(4, 4, kernel_size=7, padding=3)
        assert layer(t(1, 4, 32, 32)).shape == (1, 4, 32, 32)

    def test_conv_transpose_doubles(self):
        layer = nn.ConvTranspose2d(8, 4, kernel_size=2, stride=2)
        assert layer(t(2, 8, 8, 8)).shape == (2, 4, 16, 16)

    def test_pool_layers(self):
        assert nn.MaxPool2d(2)(t(1, 3, 8, 8)).shape == (1, 3, 4, 4)


class TestBatchNorm:
    def test_train_normalizes_batch(self):
        bn = nn.BatchNorm2d(3)
        x = nn.Tensor(RNG.normal(5.0, 3.0, size=(8, 3, 4, 4)))
        out = bn(x).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_updated(self):
        bn = nn.BatchNorm2d(2, momentum=0.5)
        x = nn.Tensor(RNG.normal(3.0, 1.0, size=(16, 2, 4, 4)))
        bn(x)
        assert not np.allclose(bn.running_mean, 0.0)

    def test_eval_uses_running_stats(self):
        bn = nn.BatchNorm2d(2, momentum=1.0)
        x = nn.Tensor(RNG.normal(3.0, 2.0, size=(32, 2, 8, 8)))
        bn(x)  # one training pass with momentum 1 copies batch stats
        bn.eval()
        out = bn(x).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=0.05)

    def test_eval_mode_does_not_update_stats(self):
        bn = nn.BatchNorm2d(2)
        bn.eval()
        before = bn.running_mean.copy()
        bn(nn.Tensor(RNG.normal(10.0, 1.0, size=(4, 2, 3, 3))))
        assert np.allclose(bn.running_mean, before)

    def test_wrong_rank_raises(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(3)(t(2, 3, 4))

    def test_affine_params_change_output(self):
        bn = nn.BatchNorm2d(1)
        bn.weight.data[:] = 2.0
        bn.bias.data[:] = 1.0
        x = nn.Tensor(RNG.normal(size=(8, 1, 4, 4)))
        out = bn(x).data
        assert np.isclose(out.mean(), 1.0, atol=1e-6)


class TestLayerNorm:
    def test_normalizes_last_dim(self):
        ln = nn.LayerNorm(16)
        x = nn.Tensor(RNG.normal(4.0, 3.0, size=(2, 5, 16)))
        out = ln(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)

    def test_multi_dim_normalized_shape(self):
        ln = nn.LayerNorm((4, 4))
        out = ln(t(2, 3, 4, 4)).data
        assert np.allclose(out.mean(axis=(-1, -2)), 0.0, atol=1e-6)


class TestMisc:
    def test_sequential_chains_and_indexes(self):
        seq = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
        assert seq(t(5, 4)).shape == (5, 2)
        assert len(seq) == 3
        assert isinstance(seq[1], nn.ReLU)

    def test_module_list(self):
        blocks = nn.ModuleList([nn.Linear(2, 2) for _ in range(3)])
        assert len(blocks) == 3
        # registered as submodules -> parameters visible
        assert len(blocks.parameters()) == 6
