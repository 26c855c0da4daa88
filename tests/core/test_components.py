"""Tests for LMM-IR components: encoder, LNT, fusion, decoder."""

import numpy as np
import pytest

from repro import nn
from repro.core.circuit_encoder import CircuitEncoder, ConvBlock
from repro.core.decoder import MultimodalDecoder
from repro.core.fusion import MultimodalFusion
from repro.core.lnt import LargeNetlistTransformer

RNG = np.random.default_rng(31)


def t(*shape):
    return nn.Tensor(RNG.normal(size=shape))


class TestConvBlock:
    def test_preserves_spatial_dims(self):
        block = ConvBlock(3, 8, kernel_size=7)
        assert block(t(1, 3, 16, 16)).shape == (1, 8, 16, 16)

    def test_small_kernel(self):
        block = ConvBlock(2, 4, kernel_size=3)
        assert block(t(2, 2, 8, 8)).shape == (2, 4, 8, 8)


class TestCircuitEncoder:
    def test_skip_shapes_and_bottleneck(self):
        encoder = CircuitEncoder(in_channels=6, base_channels=4, depth=3,
                                 kernel_size=3)
        bottleneck, skips = encoder(t(1, 6, 32, 32))
        assert [s.shape for s in skips] == [
            (1, 4, 32, 32), (1, 8, 16, 16), (1, 16, 8, 8)]
        assert bottleneck.shape == (1, 32, 4, 4)
        assert encoder.out_channels == 32
        assert encoder.skip_channels == [4, 8, 16]

    def test_indivisible_input_raises(self):
        encoder = CircuitEncoder(3, 4, depth=2, kernel_size=3)
        with pytest.raises(ValueError):
            encoder(t(1, 3, 30, 30))

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            CircuitEncoder(3, 4, depth=0)


class TestLNT:
    def test_token_shapes(self):
        lnt = LargeNetlistTransformer(in_features=11, dim=16, depth=2,
                                      num_heads=4)
        tokens = lnt(t(2, 40, 11))
        assert tokens.shape == (2, 40, 16)

    def test_rejects_wrong_rank(self):
        lnt = LargeNetlistTransformer()
        with pytest.raises(ValueError):
            lnt(t(10, 11))

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            LargeNetlistTransformer(depth=0)

    def test_token_mixing(self):
        """Each output token depends on other tokens (self-attention)."""
        lnt = LargeNetlistTransformer(in_features=11, dim=16, depth=1)
        lnt.eval()
        points = t(1, 8, 11)
        base = lnt(points).data
        perturbed = points.data.copy()
        perturbed[0, 7] += 2.0
        changed = lnt(nn.Tensor(perturbed)).data
        # token 0's embedding changes although only token 7 moved
        assert not np.allclose(base[0, 0], changed[0, 0])


class TestFusion:
    def test_shape_preserved(self):
        fusion = MultimodalFusion(circuit_channels=8, netlist_dim=16,
                                  fusion_dim=16, num_heads=4)
        out = fusion(t(2, 8, 6, 6), t(2, 20, 16))
        assert out.shape == (2, 8, 6, 6)

    def test_residual_keeps_signal(self):
        fusion = MultimodalFusion(circuit_channels=4, netlist_dim=8,
                                  fusion_dim=8)
        # zero the output projection -> fusion must reduce to identity
        fusion.out_proj.weight.data[:] = 0.0
        fusion.out_proj.bias.data[:] = 0.0
        circuit = t(1, 4, 4, 4)
        out = fusion(circuit, t(1, 5, 8))
        assert np.allclose(out.data, circuit.data)

    def test_context_influences_output(self):
        fusion = MultimodalFusion(circuit_channels=4, netlist_dim=8,
                                  fusion_dim=8)
        circuit = t(1, 4, 4, 4)
        a = fusion(circuit, t(1, 5, 8)).data
        b = fusion(circuit, t(1, 5, 8)).data
        assert not np.allclose(a, b)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            MultimodalFusion(4, 8, depth=0)


class TestDecoder:
    def test_decodes_to_input_resolution(self):
        encoder = CircuitEncoder(3, 4, depth=2, kernel_size=3)
        decoder = MultimodalDecoder(encoder.out_channels, encoder.skip_channels)
        x = t(1, 3, 16, 16)
        bottleneck, skips = encoder(x)
        out = decoder(bottleneck, skips)
        assert out.shape[2:] == (16, 16)
        assert out.shape[1] == decoder.out_channels

    def test_attention_gates_optional(self):
        encoder = CircuitEncoder(3, 4, depth=2, kernel_size=3)
        gated = MultimodalDecoder(encoder.out_channels, encoder.skip_channels,
                                  use_attention_gates=True)
        plain = MultimodalDecoder(encoder.out_channels, encoder.skip_channels,
                                  use_attention_gates=False)
        assert gated.num_parameters() > plain.num_parameters()

    def test_skip_count_mismatch(self):
        decoder = MultimodalDecoder(16, [4, 8])
        with pytest.raises(ValueError):
            decoder(t(1, 16, 4, 4), [t(1, 4, 16, 16)])
