"""Tests for self-/cross-attention and attention gates (paper §II-C)."""

import numpy as np
import pytest

from repro import nn

RNG = np.random.default_rng(13)


def t(*shape):
    return nn.Tensor(RNG.normal(size=shape))


class TestMultiHeadAttention:
    def test_self_attention_shape(self):
        attn = nn.MultiHeadAttention(16, num_heads=4)
        assert attn(t(2, 9, 16)).shape == (2, 9, 16)

    def test_cross_attention_shape(self):
        attn = nn.MultiHeadAttention(16, num_heads=4)
        out = attn(t(2, 5, 16), t(2, 11, 16))
        assert out.shape == (2, 5, 16)  # query length preserved

    def test_dim_not_divisible_raises(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(10, num_heads=3)

    def test_permutation_equivariance_of_self_attention(self):
        # permuting tokens permutes outputs identically (no positions added)
        attn = nn.MultiHeadAttention(8, num_heads=2)
        attn.eval()
        x = t(1, 6, 8)
        perm = np.random.default_rng(5).permutation(6)
        out = attn(x).data
        out_perm = attn(nn.Tensor(x.data[:, perm])).data
        assert np.allclose(out[:, perm], out_perm, atol=1e-10)

    def test_attention_weights_mix_context(self):
        # output of a query depends on all key positions
        attn = nn.MultiHeadAttention(8, num_heads=2)
        key = t(1, 4, 8)
        query = t(1, 2, 8)
        base = attn(query, key).data
        bumped = key.data.copy()
        bumped[0, 3] += 10.0
        changed = attn(query, nn.Tensor(bumped)).data
        assert not np.allclose(base, changed)


class TestTransformerBlocks:
    def test_encoder_block_shape_preserved(self):
        block = nn.TransformerEncoderBlock(dim=16, num_heads=4, mlp_ratio=2.0)
        assert block(t(2, 7, 16)).shape == (2, 7, 16)

    def test_encoder_block_residual_near_identity_at_zero_weights(self):
        block = nn.TransformerEncoderBlock(dim=8, num_heads=2)
        # zero the output projections -> block must reduce to identity
        block.attention.out_proj.weight.data[:] = 0.0
        block.attention.out_proj.bias.data[:] = 0.0
        block.mlp[2].weight.data[:] = 0.0
        block.mlp[2].bias.data[:] = 0.0
        x = t(1, 4, 8)
        assert np.allclose(block(x).data, x.data)

    def test_cross_block_query_shape(self):
        block = nn.CrossAttentionBlock(dim=8, num_heads=2)
        assert block(t(2, 3, 8), t(2, 10, 8)).shape == (2, 3, 8)

    def test_cross_block_uses_context(self):
        # note: a *uniform* shift would be erased by the context LayerNorm,
        # so perturb a single feature of a single token instead
        block = nn.CrossAttentionBlock(dim=8, num_heads=2)
        q, ctx = t(1, 3, 8), t(1, 5, 8)
        out1 = block(q, ctx).data
        perturbed = ctx.data.copy()
        perturbed[0, 2, 3] += 5.0
        out2 = block(q, nn.Tensor(perturbed)).data
        assert not np.allclose(out1, out2)


class TestAttentionGate:
    def test_gate_output_shape(self):
        gate = nn.AttentionGate(gate_channels=8, skip_channels=4)
        assert gate(t(2, 8, 6, 6), t(2, 4, 6, 6)).shape == (2, 4, 6, 6)

    def test_gate_coefficients_bounded(self):
        gate = nn.AttentionGate(4, 4)
        g, s = t(1, 4, 5, 5), nn.Tensor(np.ones((1, 4, 5, 5)))
        out = gate(g, s).data
        assert np.all(out <= 1.0) and np.all(out >= 0.0)

    def test_spatial_mismatch_raises(self):
        gate = nn.AttentionGate(4, 4)
        with pytest.raises(ValueError):
            gate(t(1, 4, 4, 4), t(1, 4, 8, 8))
