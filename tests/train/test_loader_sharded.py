"""Batch iteration over a lazily-loaded ShardedSuiteDataset.

The streamed path must be a drop-in for the in-memory one: for a fixed
seed, a :class:`BatchLoader` over lazy cases yields the same batches
(same shuffle order, same tensors up to the documented CSV round-trip
tolerance) as over the equivalent in-memory suite.
"""

import numpy as np
import pytest

from repro.data.dataset import IRDropDataset, ShardedSuiteDataset
from repro.data.synthesis import SynthesisSettings, make_suite, stream_suite
from repro.train.loader import BatchLoader, CasePreprocessor

SUITE = dict(num_fake=3, num_real=2, num_hidden=1, seed=23,
             cases_per_template=2)
SETTINGS_KWARGS = dict(edge_um_range=(24.0, 28.0))


@pytest.fixture(scope="module")
def suites(tmp_path_factory):
    settings = SynthesisSettings(**SETTINGS_KWARGS)
    in_memory = make_suite(settings=settings, **SUITE)
    out_dir = str(tmp_path_factory.mktemp("sharded_loader"))
    stream_suite(out_dir, settings=settings, **SUITE)
    sharded = ShardedSuiteDataset(out_dir + "/manifest.json", cache_size=3)
    return in_memory, sharded


def _oversampled(cases):
    return IRDropDataset.with_oversampling(cases, fake_times=2, real_times=3,
                                           hidden_times=1)


class TestShardedBatchesMatchInMemory:
    def test_same_batches_for_fixed_seed(self, suites):
        in_memory, sharded = suites
        memory_ds = _oversampled(in_memory.all_cases())
        lazy_ds = _oversampled(list(sharded))
        assert len(memory_ds) == len(lazy_ds)
        assert memory_ds.kind_counts() == lazy_ds.kind_counts()

        preprocessor = CasePreprocessor(target_edge=16, num_points=32)
        preprocessor.fit(in_memory.training_cases)

        loader_kwargs = dict(preprocessor=preprocessor, batch_size=4,
                             augment=True, seed=99)
        memory_batches = list(BatchLoader(memory_ds, **loader_kwargs))
        lazy_batches = list(BatchLoader(lazy_ds, **loader_kwargs))

        assert len(memory_batches) == len(lazy_batches) == len(memory_ds) // 4 + 1
        for mem, lazy in zip(memory_batches, lazy_batches):
            assert len(mem) == len(lazy)
            # identical shuffle: the same case lands in the same slot
            assert ([p.case.name for p in mem.prepared]
                    == [p.case.name for p in lazy.prepared])
            # tensors agree up to the %.8g disk round trip (amplified a
            # little by normalisation and bilinear resampling)
            assert np.allclose(mem.features.data, lazy.features.data,
                               rtol=1e-5, atol=1e-6)
            assert np.allclose(mem.targets.data, lazy.targets.data,
                               rtol=1e-5, atol=1e-7)
            assert np.array_equal(mem.masks, lazy.masks)
            assert np.allclose(mem.points.data, lazy.points.data,
                               rtol=1e-4, atol=1e-6)

    def test_lazy_fit_matches_in_memory_fit(self, suites):
        """Streaming normalisation fit over lazy cases == in-memory fit."""
        in_memory, sharded = suites
        memory_prep = CasePreprocessor(target_edge=16).fit(
            in_memory.training_cases)
        lazy_prep = CasePreprocessor(target_edge=16).fit(
            sharded.training_cases)
        assert np.allclose(memory_prep.normalizer.shift,
                           lazy_prep.normalizer.shift, rtol=1e-6, atol=1e-9)
        assert np.allclose(memory_prep.normalizer.scale,
                           lazy_prep.normalizer.scale, rtol=1e-6, atol=1e-9)
        assert memory_prep.target_scaler.max_value == pytest.approx(
            lazy_prep.target_scaler.max_value, rel=1e-6)

    def test_oversampled_lazy_entries_share_identity(self, suites):
        _, sharded = suites
        dataset = sharded.with_oversampling(fake_times=2, real_times=2,
                                            hidden_times=1)
        assert len({id(case) for case in dataset}) == len(sharded)
        first_kind_counts = dataset.kind_counts()
        assert first_kind_counts["fake"] == 2 * sharded.kind_counts()["fake"]

    def test_memory_stays_bounded_by_lru(self, suites):
        _, sharded = suites
        assert sharded._cache.maxsize == 3
        for case in sharded:
            case.ir_map  # force loads well past the cache size
        assert len(sharded._cache._entries) <= 3
