"""Corruption refusal of the disk-persistent FactorizationStore.

The store backs the model registry and the trained-weight checkpoints,
so a corrupt or mismatched entry must be refused (a miss), never handed
back as plausible arrays; rebuilding it overwrites the bad entry.
"""

import json
import os

import numpy as np

from repro.solver.store import STORE_FORMAT, FactorizationStore

IDENTITY = {"model": "IREDGe", "train": {"epochs": 2, "seed": 0}}


def _arrays():
    rng = np.random.default_rng(7)
    return {"state/conv.weight": rng.standard_normal((4, 3, 3, 3)),
            "state/conv.bias": rng.standard_normal(4),
            "train_seconds": np.asarray([1.25])}


def _saved_entry(root):
    """A store under ``root`` holding one entry; returns its directory."""
    store = FactorizationStore(str(root))
    assert store.save(IDENTITY, _arrays()) is True
    return store.entry_dir(IDENTITY)


def _edit_meta(entry, edit):
    meta_path = os.path.join(entry, "meta.json")
    with open(meta_path) as handle:
        meta = json.load(handle)
    edit(meta)
    with open(meta_path, "w") as handle:
        json.dump(meta, handle)


def _assert_arrays_identical(left, right):
    assert left.keys() == right.keys()
    for key, value in left.items():
        assert value.dtype == right[key].dtype, key
        assert np.array_equal(value, right[key]), key


class TestCorruptionRefusal:
    def test_truncated_payload_is_miss_and_rebuilt(self, tmp_path):
        entry = _saved_entry(tmp_path)
        with open(os.path.join(entry, "payload.npz"), "wb") as handle:
            handle.write(b"garbage")

        damaged = FactorizationStore(str(tmp_path))
        assert damaged.load(IDENTITY) is None
        assert damaged.stats() == {"hits": 0, "misses": 1, "corrupt": 1, "swept": 0}
        # the rebuild overwrote the entry: next lookup hits again
        assert damaged.save(IDENTITY, _arrays()) is True
        healed = FactorizationStore(str(tmp_path))
        _assert_arrays_identical(healed.load(IDENTITY), _arrays())
        assert healed.stats() == {"hits": 1, "misses": 0, "corrupt": 0, "swept": 0}

    def test_zip_magic_truncation_is_refused(self, tmp_path):
        """A payload truncated *after* the zip magic raises BadZipFile
        (not ValueError) inside np.load — it must still be a miss.  The
        digest is dropped (an entry written before digests were
        recorded), so the archive reader itself meets the bad bytes."""
        entry = _saved_entry(tmp_path)
        with open(os.path.join(entry, "payload.npz"), "wb") as handle:
            handle.write(b"PK\x03\x04truncated")
        _edit_meta(entry, lambda meta: meta.pop("payload_sha256"))
        reopened = FactorizationStore(str(tmp_path))
        assert reopened.load(IDENTITY) is None
        assert reopened.corrupt == 1

    def test_identity_mismatch_is_refused(self, tmp_path):
        entry = _saved_entry(tmp_path)

        def tamper(meta):
            meta["identity"]["train"]["seed"] = 999

        _edit_meta(entry, tamper)
        reopened = FactorizationStore(str(tmp_path))
        assert reopened.load(IDENTITY) is None
        assert reopened.corrupt == 1

    def test_wrong_format_is_refused(self, tmp_path):
        entry = _saved_entry(tmp_path)
        _edit_meta(entry, lambda meta: meta.update(format="something-else"))
        reopened = FactorizationStore(str(tmp_path))
        assert reopened.load(IDENTITY) is None
        assert reopened.corrupt == 1

    def test_missing_entry_is_plain_miss(self, tmp_path):
        store = FactorizationStore(str(tmp_path))
        assert store.load({"anything": 1}) is None
        assert store.stats() == {"hits": 0, "misses": 1, "corrupt": 0, "swept": 0}

    def test_format_constant_stamped(self, tmp_path):
        entry = _saved_entry(tmp_path)
        with open(os.path.join(entry, "meta.json")) as handle:
            meta = json.load(handle)
        assert meta["format"] == STORE_FORMAT
        assert meta["identity"] == IDENTITY
