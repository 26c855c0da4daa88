"""Tests for case bundles and the oversampling dataset."""

import numpy as np
import pytest

from repro.data.case import CaseBundle
from repro.data.dataset import IRDropDataset
from repro.data.synthesis import synthesize_case
from repro.features.stack import ALL_CHANNELS, CONTEST_CHANNELS


@pytest.fixture(scope="module")
def fake_case():
    return synthesize_case("fake", seed=10)


@pytest.fixture(scope="module")
def real_case():
    return synthesize_case("real", seed=20)


class TestCaseBundle:
    def test_kind_validated(self, fake_case):
        with pytest.raises(ValueError):
            CaseBundle(name="x", kind="bogus", netlist=fake_case.netlist,
                       feature_maps=fake_case.feature_maps,
                       ir_map=fake_case.ir_map)

    def test_shape_consistency_enforced(self, fake_case):
        bad_maps = dict(fake_case.feature_maps)
        bad_maps["current"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            CaseBundle(name="x", kind="fake", netlist=fake_case.netlist,
                       feature_maps=bad_maps, ir_map=fake_case.ir_map)

    def test_features_subset(self, fake_case):
        assert fake_case.features(CONTEST_CHANNELS).shape[0] == 3
        assert fake_case.features(ALL_CHANNELS).shape[0] == 6

    def test_point_cloud_cached(self, fake_case):
        assert fake_case.point_cloud() is fake_case.point_cloud()

    def test_hotspot_threshold(self, fake_case):
        assert np.isclose(fake_case.hotspot_threshold(),
                          0.9 * fake_case.ir_map.max())

    def test_ir_map_positive_and_bounded(self, fake_case):
        vdd = fake_case.metadata["vdd"]
        assert fake_case.ir_map.min() >= 0.0
        assert fake_case.ir_map.max() < vdd

    def test_worst_drop_matches_target(self, fake_case):
        frac = fake_case.metadata["target_worst_drop_frac"]
        vdd = fake_case.metadata["vdd"]
        # rasterisation smoothing shaves the nodal peak slightly
        assert fake_case.ir_map.max() == pytest.approx(frac * vdd, rel=0.25)


class TestIRDropDataset:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IRDropDataset([])

    def test_oversampling_multipliers(self, fake_case, real_case):
        ds = IRDropDataset.with_oversampling([fake_case, real_case],
                                             fake_times=10, real_times=20)
        counts = ds.kind_counts()
        assert counts == {"fake": 10, "real": 20}
        assert len(ds) == 30

    def test_paper_scheme_default(self, fake_case, real_case):
        ds = IRDropDataset.with_oversampling([fake_case, real_case])
        assert ds.kind_counts() == {"fake": 10, "real": 20}

    def test_oversampled_entries_share_identity(self, fake_case):
        ds = IRDropDataset.with_oversampling([fake_case], fake_times=3,
                                             real_times=1)
        assert ds[0] is ds[1] is ds[2]
        assert len({id(case) for case in ds}) == 1

    def test_invalid_multiplier(self, fake_case):
        with pytest.raises(ValueError):
            IRDropDataset.with_oversampling([fake_case], fake_times=0)

    def test_iteration(self, fake_case, real_case):
        ds = IRDropDataset([fake_case, real_case])
        assert [c.name for c in ds] == [fake_case.name, real_case.name]
