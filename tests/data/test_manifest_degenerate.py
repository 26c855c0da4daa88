"""Degenerate shard layouts round-trip cleanly.

A sharded build with more shards than cases leaves 0-case shard
manifests on disk, and single-machine runs often produce exactly one
shard of N.  These tests pin the 0-case and 1-shard merge contracts end
to end against a real streamed build.
"""

import pytest

from repro.data.dataset import ShardedSuiteDataset
from repro.data.io import (
    manifest_filename,
    merge_manifests,
    read_manifest,
    write_manifest,
)
from repro.data.synthesis import SynthesisSettings, stream_suite

SUITE = dict(num_fake=1, num_real=1, num_hidden=1, seed=11)
SHARDS = 4  # > total cases (3): the last shard is guaranteed empty


@pytest.fixture(scope="module")
def settings():
    return SynthesisSettings(edge_um_range=(24.0, 26.0))


@pytest.fixture(scope="module")
def sharded_build(tmp_path_factory, settings):
    """One directory holding every shard manifest of a 4-shard build of
    a 3-case suite, plus the serial reference build."""
    root = tmp_path_factory.mktemp("degenerate")
    serial = stream_suite(str(root / "serial"), settings=settings,
                          workers=1, **SUITE)
    shard_dir = root / "shards"
    shards = [stream_suite(str(shard_dir), settings=settings, workers=1,
                           shard=(index, SHARDS), **SUITE)
              for index in range(SHARDS)]
    return root, serial, shard_dir, shards


class TestZeroCaseShard:
    def test_empty_shard_written_and_read_back(self, sharded_build):
        root, _, shard_dir, shards = sharded_build
        assert [len(shard.refs) for shard in shards] == [1, 1, 1, 0]
        path = shard_dir / manifest_filename(shard=(SHARDS - 1, SHARDS))
        assert path.exists()
        empty = read_manifest(str(path))
        assert empty.refs == []
        assert empty.shard == (SHARDS - 1, SHARDS)
        assert empty.suite == shards[0].suite
        assert not empty.complete

    def test_empty_shard_reroundtrips_through_write(self, sharded_build,
                                                    tmp_path):
        _, _, shard_dir, shards = sharded_build
        out = tmp_path / "copy.json"
        write_manifest(shards[-1], str(out))
        again = read_manifest(str(out))
        assert again.refs == []
        assert again.suite == shards[-1].suite
        assert again.shard == shards[-1].shard

    def test_merge_with_empty_head_matches_serial(self, sharded_build,
                                                  tmp_path):
        """The empty shard carries provenance even as the *first* member
        of the merge — the order the hardening explicitly guarantees."""
        _, serial, _, shards = sharded_build
        reordered = [shards[-1]] + shards[:-1]
        merged = merge_manifests(reordered,
                                 out_path=str(tmp_path / "m.json"))
        assert [(r.index, r.name, r.kind) for r in merged.refs] == \
               [(r.index, r.name, r.kind) for r in serial.refs]
        assert merged.complete
        dataset = ShardedSuiteDataset(str(tmp_path / "m.json"))
        assert len(list(dataset.hidden_cases)) == SUITE["num_hidden"]


class TestSingleShardMerge:
    def test_one_shard_of_n_is_identity(self, sharded_build):
        _, _, _, shards = sharded_build
        merged = merge_manifests([shards[0]])
        assert [(r.index, r.name, r.kind, r.path) for r in merged.refs] \
            == [(r.index, r.name, r.kind, r.path) for r in shards[0].refs]
        assert merged.suite == shards[0].suite
        assert merged.shard is None  # the merge result is unsharded

    def test_already_merged_manifest_is_identity(self, sharded_build):
        _, serial, _, _ = sharded_build
        merged = merge_manifests([serial])
        assert [(r.index, r.path) for r in merged.refs] == \
               [(r.index, r.path) for r in serial.refs]

    def test_zero_manifests_refused(self):
        with pytest.raises(ValueError, match="zero manifests"):
            merge_manifests([])
