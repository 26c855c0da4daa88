"""Tests for point-cloud sampling / padding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pointcloud.sampling import (
    farthest_point_sample,
    fit_to_count,
    sample_grid,
    sample_random,
)


def cloud(n, rng=None):
    rng = rng or np.random.default_rng(0)
    points = np.zeros((n, 11))
    points[:, 0:2] = rng.random((n, 2))
    points[:, 4] = rng.random(n)
    points[:, 5] = 1.0  # mark as resistors
    return points


class TestSampling:
    def test_random_subsample_size(self):
        out = sample_random(cloud(100), 10, np.random.default_rng(1))
        assert out.shape == (10, 11)

    def test_random_no_op_when_small(self):
        points = cloud(5)
        out = sample_random(points, 10, np.random.default_rng(1))
        assert np.array_equal(out, points)

    def test_grid_respects_count(self):
        out = sample_grid(cloud(500), 64)
        assert out.shape[0] <= 64

    def test_grid_deterministic(self):
        points = cloud(300)
        assert np.array_equal(sample_grid(points, 50), sample_grid(points, 50))

    def test_grid_preserves_coverage(self):
        # points in two clusters; both must survive pooling
        rng = np.random.default_rng(2)
        a = cloud(100, rng)
        a[:, 0:2] = a[:, 0:2] * 0.1            # cluster near origin
        b = cloud(100, rng)
        b[:, 0:2] = 0.9 + b[:, 0:2] * 0.1      # cluster near far corner
        out = sample_grid(np.concatenate([a, b]), 16)
        assert (out[:, 0] < 0.5).any() and (out[:, 0] > 0.5).any()

    def test_fps_spreads_points(self):
        points = cloud(200)
        out = farthest_point_sample(points, 10)
        assert out.shape == (10, 11)
        # pairwise min distance of FPS must exceed that of the densest pairs
        dists = np.linalg.norm(out[None, :, :2] - out[:, None, :2], axis=-1)
        np.fill_diagonal(dists, 1.0)
        assert dists.min() > 0.01


class TestFitToCount:
    def test_pads_small_clouds_with_zeros(self):
        out = fit_to_count(cloud(5), 12)
        assert out.shape == (12, 11)
        assert np.allclose(out[5:], 0.0)

    def test_downsamples_large_clouds(self):
        out = fit_to_count(cloud(100), 16)
        assert out.shape == (16, 11)

    def test_strategies(self):
        points = cloud(100)
        for strategy in ("grid", "fps", "random"):
            out = fit_to_count(points, 20, rng=np.random.default_rng(0),
                               strategy=strategy)
            assert out.shape == (20, 11)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            fit_to_count(cloud(10), 5, strategy="bogus")

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            fit_to_count(cloud(10), 0)

    @given(st.integers(1, 200), st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_always_exact_count(self, n, count):
        out = fit_to_count(cloud(n), count)
        assert out.shape == (count, 11)

