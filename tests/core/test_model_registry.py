"""Tests for the assembled LMM-IR model, registry and baselines."""

import numpy as np
import pytest

from repro import nn
from repro.baselines import FirstPlaceModel, IREDGe, IRPnet, SecondPlaceModel, UNetBackbone
from repro.core.model import LMMIR, LMMIRConfig
from repro.core.registry import BASELINES, MODEL_REGISTRY, OURS, build_model

RNG = np.random.default_rng(41)


def t(*shape):
    return nn.Tensor(RNG.normal(size=shape))


def tiny_config(**kwargs):
    defaults = dict(in_channels=6, base_channels=4, depth=2, encoder_kernel=3,
                    netlist_dim=8, netlist_depth=1, netlist_heads=2,
                    fusion_heads=2)
    defaults.update(kwargs)
    return LMMIRConfig(**defaults)


class TestLMMIR:
    def test_ir_head_output_shape(self):
        model = LMMIR(tiny_config())
        out = model(t(2, 6, 16, 16), t(2, 12, 11))
        assert out.shape == (2, 1, 16, 16)

    def test_recon_head_output_shape(self):
        model = LMMIR(tiny_config())
        out = model(t(1, 6, 16, 16), t(1, 12, 11), head="recon")
        assert out.shape == (1, 6, 16, 16)

    def test_unknown_head_raises(self):
        model = LMMIR(tiny_config())
        with pytest.raises(ValueError):
            model(t(1, 6, 16, 16), t(1, 12, 11), head="bogus")

    def test_multimodal_requires_points(self):
        model = LMMIR(tiny_config())
        with pytest.raises(ValueError):
            model(t(1, 6, 16, 16))

    def test_unimodal_ablation_ignores_points(self):
        model = LMMIR(tiny_config(use_lnt=False))
        assert model.lnt is None
        out = model(t(1, 6, 16, 16))
        assert out.shape == (1, 1, 16, 16)

    def test_ablation_toggles_change_capacity(self):
        united = LMMIR(tiny_config()).num_parameters()
        no_lnt = LMMIR(tiny_config(use_lnt=False)).num_parameters()
        no_att = LMMIR(tiny_config(use_attention_gates=False)).num_parameters()
        assert no_lnt < united
        assert no_att < united

    def test_gradients_reach_both_modalities(self):
        model = LMMIR(tiny_config())
        circuit, points = t(1, 6, 16, 16), t(1, 12, 11)
        out = model(circuit, points)
        loss = nn.MSELoss()(out, nn.Tensor(np.zeros(out.shape)))
        loss.backward()
        lnt_grads = [p.grad for p in model.lnt.parameters()]
        encoder_grads = [p.grad for p in model.encoder.parameters()]
        assert all(g is not None for g in lnt_grads)
        assert all(g is not None for g in encoder_grads)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LMMIRConfig(in_channels=0)
        with pytest.raises(ValueError):
            LMMIRConfig(depth=0)


class TestBaselines:
    @pytest.mark.parametrize("model_cls,channels", [
        (IREDGe, 3), (IRPnet, 3), (FirstPlaceModel, 6), (SecondPlaceModel, 6),
    ])
    def test_forward_shapes(self, model_cls, channels):
        model = model_cls()
        out = model(t(1, channels, 16, 16))
        assert out.shape == (1, 1, 16, 16)

    def test_baselines_ignore_points(self):
        model = IREDGe()
        x = t(1, 3, 16, 16)
        a = model(x).data
        b = model(x, t(1, 10, 11)).data
        assert np.allclose(a, b)

    def test_irpnet_output_nonnegative(self):
        model = IRPnet()
        out = model(t(2, 3, 8, 8))
        assert (out.data >= 0).all()

    def test_unet_backbone_depth_validated(self):
        with pytest.raises(ValueError):
            UNetBackbone(3, depth=0)

    def test_unet_indivisible_input(self):
        model = UNetBackbone(3, depth=2)
        with pytest.raises(ValueError):
            model(t(1, 3, 10, 10))

    def test_first_place_is_largest_cnn(self):
        assert FirstPlaceModel().num_parameters() > \
               SecondPlaceModel().num_parameters() > \
               IREDGe().num_parameters()


class TestRegistry:
    def test_contains_all_table1_rows(self):
        assert set(MODEL_REGISTRY) == {
            "1st Place", "2nd Place", "IREDGe", "IRPnet", OURS}

    def test_capability_claims_match_reality(self):
        """Table I cross-check: registry claims vs. actual model classes."""
        for name, spec in MODEL_REGISTRY.items():
            model = spec.build()
            assert spec.uses_pointcloud == isinstance(model, LMMIR), name
            assert spec.fully_handles_netlist == spec.uses_pointcloud, name
            if spec.extra_features:
                assert len(spec.channels) == 6, name
            else:
                assert len(spec.channels) == 3, name

    def test_ours_is_multimodal(self):
        model = build_model(OURS)
        assert isinstance(model, LMMIR)
        assert model.lnt is not None

    def test_build_unknown_raises(self):
        with pytest.raises(KeyError):
            build_model("nonexistent")

    def test_baseline_list(self):
        assert OURS not in BASELINES
        assert len(BASELINES) == 4

    def test_irpnet_regime(self):
        spec = MODEL_REGISTRY["IRPnet"]
        assert spec.train_on == "real_only"
        assert spec.epoch_fraction < 1.0

    def test_first_place_tta(self):
        assert MODEL_REGISTRY["1st Place"].tta_samples > 1
