"""Parity tests for streamed, sharded suite synthesis.

Extends the PR-1 SeedSequence determinism guarantee to the streamed path:
a suite built with ``workers=1``, ``workers=4``, and as two merged
``shard=(i, 2)`` builds must yield bit-identical manifests and case file
contents — the scheduling of work across processes or machines must leave
no trace in the data.
"""

import filecmp
import os

import pytest

from repro.data.dataset import ShardedSuiteDataset
from repro.data.io import manifest_filename, merge_manifests, read_manifest
from repro.data.synthesis import SynthesisSettings, stream_suite

SUITE = dict(num_fake=3, num_real=2, num_hidden=1, seed=17,
             cases_per_template=2)


@pytest.fixture(scope="module")
def settings() -> SynthesisSettings:
    return SynthesisSettings(edge_um_range=(24.0, 28.0))


@pytest.fixture(scope="module")
def builds(tmp_path_factory, settings):
    root = tmp_path_factory.mktemp("stream_parity")
    serial = stream_suite(str(root / "serial"), settings=settings,
                          workers=1, **SUITE)
    parallel = stream_suite(str(root / "parallel"), settings=settings,
                            workers=4, **SUITE)
    shard0 = stream_suite(str(root / "shards" / "s0"), settings=settings,
                          workers=2, shard=(0, 2), **SUITE)
    shard1 = stream_suite(str(root / "shards" / "s1"), settings=settings,
                          workers=1, shard=(1, 2), **SUITE)
    return root, serial, parallel, shard0, shard1


def _case_files(case_dir):
    return sorted(entry for entry in os.listdir(case_dir)
                  if os.path.isfile(os.path.join(case_dir, entry)))


def _assert_case_dirs_identical(dir_a, dir_b):
    assert _case_files(dir_a) == _case_files(dir_b)
    for filename in _case_files(dir_a):
        assert filecmp.cmp(os.path.join(dir_a, filename),
                           os.path.join(dir_b, filename),
                           shallow=False), (dir_a, filename)


class TestWorkerParity:
    def test_manifest_bytes_identical(self, builds):
        root, serial, parallel, _, _ = builds
        with open(root / "serial" / manifest_filename(), "rb") as handle:
            serial_bytes = handle.read()
        with open(root / "parallel" / manifest_filename(), "rb") as handle:
            parallel_bytes = handle.read()
        assert serial_bytes == parallel_bytes

    def test_case_files_bit_identical(self, builds):
        root, serial, parallel, _, _ = builds
        assert [r.index for r in serial.refs] == list(range(6))
        for ref_a, ref_b in zip(serial.refs, parallel.refs):
            assert (ref_a.index, ref_a.name, ref_a.kind, ref_a.path) == \
                   (ref_b.index, ref_b.name, ref_b.kind, ref_b.path)
            _assert_case_dirs_identical(serial.case_dir(ref_a),
                                        parallel.case_dir(ref_b))


class TestShardParity:
    def test_shards_partition_the_suite(self, builds):
        _, serial, _, shard0, shard1 = builds
        indices = sorted([r.index for r in shard0.refs]
                         + [r.index for r in shard1.refs])
        assert indices == [r.index for r in serial.refs]
        assert not shard0.complete and not shard1.complete
        assert serial.complete

    def test_merged_manifest_matches_single_build(self, builds):
        root, serial, _, shard0, shard1 = builds
        merged = merge_manifests([shard0, shard1],
                                 out_path=str(root / "merged.json"))
        assert merged.complete
        assert [(r.index, r.name, r.kind) for r in merged.refs] == \
               [(r.index, r.name, r.kind) for r in serial.refs]
        # provenance survives the merge byte-for-byte
        assert merged.suite == serial.suite
        assert merged.settings == serial.settings

    def test_sharded_case_files_bit_identical(self, builds):
        root, serial, _, shard0, shard1 = builds
        merged = merge_manifests([shard0, shard1])
        by_index = {ref.index: (ref, merged) for ref in merged.refs}
        for ref in serial.refs:
            other_ref, manifest = by_index[ref.index]
            _assert_case_dirs_identical(serial.case_dir(ref),
                                        manifest.case_dir(other_ref))

    def test_merged_manifest_loads_as_dataset(self, builds):
        root, serial, _, shard0, shard1 = builds
        dataset = ShardedSuiteDataset([
            str(root / "shards" / "s0" / manifest_filename((0, 2))),
            str(root / "shards" / "s1" / manifest_filename((1, 2))),
        ])
        assert len(dataset) == 6
        assert [case.name for case in dataset] == \
               [ref.name for ref in serial.refs]

    def test_incomplete_shard_set_rejected(self, builds):
        root, *_ = builds
        path = str(root / "shards" / "s0" / manifest_filename((0, 2)))
        with pytest.raises(ValueError):
            ShardedSuiteDataset(path)
        partial = ShardedSuiteDataset(path, require_complete=False)
        assert 0 < len(partial) < 6

    def test_dataset_accepts_pathlike(self, builds):
        root, serial, _, _, _ = builds
        dataset = ShardedSuiteDataset(root / "serial" / manifest_filename())
        assert len(dataset) == len(serial.refs)

    def test_manifest_roundtrip(self, builds):
        root, serial, _, _, _ = builds
        reread = read_manifest(str(root / "serial" / manifest_filename()))
        assert reread.suite == serial.suite
        assert reread.refs == serial.refs
        assert reread.shard is None


class TestShardValidation:
    def test_bad_shard_rejected(self, tmp_path, settings):
        with pytest.raises(ValueError):
            stream_suite(str(tmp_path), settings=settings, shard=(2, 2),
                         num_fake=1, num_real=0, num_hidden=0, seed=1)
        with pytest.raises(ValueError):
            stream_suite(str(tmp_path), settings=settings, shard=(0, 0),
                         num_fake=1, num_real=0, num_hidden=0, seed=1)

    def test_overlapping_shards_refuse_to_merge(self, tmp_path, settings):
        kwargs = dict(num_fake=2, num_real=0, num_hidden=0, seed=5,
                      settings=settings)
        a = stream_suite(str(tmp_path / "a"), shard=(0, 2), **kwargs)
        b = stream_suite(str(tmp_path / "b"), shard=(0, 2), **kwargs)
        with pytest.raises(ValueError):
            merge_manifests([a, b])
