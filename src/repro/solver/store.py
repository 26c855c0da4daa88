"""Content-addressed disk store of named numpy payloads.

The store maps a JSON *identity* to a dict of numpy arrays and makes the
write crash-safe and the read refuse anything it cannot trust.  It backs
the serving model registry (:mod:`repro.serve.registry`) and the
evaluation harness's trained-weight checkpoints
(:mod:`repro.eval.harness`); the chaos soak drives it under injected
faults.

* one directory per entry (``<root>/<key>/``), keyed by a hash of the
  entry's canonical JSON identity;
* the binary payload (``payload.npz``) is written first and
  ``meta.json`` — which records the full identity and the payload's
  sha256 — last, so a readable meta file is the completion marker;
* a hit requires the stored identity to equal the requested one
  byte-for-byte after JSON normalisation and the payload to match its
  recorded digest; anything else (missing files, truncated npz, tampered meta,
  hash collision, flipped bits) is *refused* and treated as a miss, so a
  corrupt entry is never handed to a caller — it is simply rebuilt and
  overwritten.

Array payloads round-trip bit-exactly through ``npz``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import zipfile
from typing import Dict, List, Optional

import numpy as np

from repro.faults.points import fault_point, maybe_corrupt_bytes

__all__ = ["FactorizationStore", "STORE_FORMAT", "STALE_STAGING_AGE_S"]

STORE_FORMAT = "lmm-ir-factorization-store-v1"

_META_FILE = "meta.json"
_PAYLOAD_FILE = "payload.npz"

STALE_STAGING_AGE_S = 3600.0
"""Staging dirs older than this are swept even if their owner pid is
alive (pid numbers recycle; a day-old staging dir from a recycled pid
must not survive forever)."""


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a staging dir's writer."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        return True
    except OSError:
        return False
    return True


def _canonical(identity: dict) -> str:
    """Deterministic JSON encoding (the hashing/equality normal form)."""
    return json.dumps(identity, sort_keys=True, separators=(",", ":"))


class FactorizationStore:
    """Content-addressed directory of numpy payloads.

    The store is deliberately generic: it maps a JSON identity to a dict
    of numpy arrays.  What goes into the payload is the caller's
    business — model state dicts for the registry and the checkpoints.

    Writes are crash- and race-safe: the payload lands in a
    process-private temporary directory that is renamed into place only
    after ``meta.json`` completes; losing a rename race to a concurrent
    worker just discards the duplicate.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(os.fspath(root))
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.swept = len(self.sweep_stale_staging())

    # ------------------------------------------------------------------
    def sweep_stale_staging(self,
                            max_age_s: float = STALE_STAGING_AGE_S
                            ) -> List[str]:
        """Remove orphaned ``<entry>.tmp.<pid>`` staging directories.

        :meth:`save` stages into a process-private directory and removes
        it in a ``finally`` — but a process killed mid-save (OOM, SIGKILL,
        the chaos harness) leaves its staging dir behind forever.  A dir
        is stale when its writer pid is no longer alive, or when it is
        older than ``max_age_s`` (pid-recycling guard).  Live writers'
        dirs are left alone, so concurrent builders are never raced.
        Returns the removed paths.
        """
        removed: List[str] = []
        try:
            names = os.listdir(self.root)
        except OSError:  # store not materialised yet
            return removed
        now = time.time()
        for name in names:
            base, sep, pid_text = name.rpartition(".tmp.")
            if not sep or not base or not pid_text.isdigit():
                continue
            path = os.path.join(self.root, name)
            if not os.path.isdir(path):
                continue
            try:
                age = now - os.path.getmtime(path)
            except OSError:
                age = 0.0
            if _pid_alive(int(pid_text)) and age <= max_age_s:
                continue  # an in-flight save owns this
            shutil.rmtree(path, ignore_errors=True)
            if not os.path.exists(path):
                removed.append(path)
        return removed

    @staticmethod
    def entry_key(identity: dict) -> str:
        """Directory name for an identity (hash of its canonical JSON)."""
        return hashlib.sha256(_canonical(identity).encode()).hexdigest()[:24]

    def entry_dir(self, identity: dict) -> str:
        return os.path.join(self.root, self.entry_key(identity))

    # ------------------------------------------------------------------
    def load(self, identity: dict) -> Optional[Dict[str, np.ndarray]]:
        """The stored arrays for ``identity``, or ``None`` on a miss.

        Unreadable, incomplete, or identity-mismatched entries are
        refused (counted in ``corrupt``) and reported as misses.
        """
        directory = self.entry_dir(identity)
        meta_path = os.path.join(directory, _META_FILE)
        try:
            fault_point("store.load.meta")
            with open(meta_path) as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            if os.path.isdir(directory):
                self.corrupt += 1
            return None
        if (meta.get("format") != STORE_FORMAT
                or _canonical(meta.get("identity", {})) != _canonical(identity)):
            self.misses += 1
            self.corrupt += 1
            return None
        payload_path = os.path.join(directory, _PAYLOAD_FILE)
        try:
            fault_point("store.load.payload")
            expected_digest = meta.get("payload_sha256")
            if expected_digest is not None:
                # integrity before parsing: a single flipped bit in the
                # archive (disk rot, injected corruption) is refused
                # here, never handed to a solver as plausible numbers
                with open(payload_path, "rb") as handle:
                    actual = hashlib.sha256(handle.read()).hexdigest()
                if actual != expected_digest:
                    self.misses += 1
                    self.corrupt += 1
                    return None
            with np.load(payload_path) as archive:
                arrays = {key: archive[key] for key in archive.files}
        except (OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile):  # truncated-but-zip-magic payloads
            self.misses += 1
            self.corrupt += 1
            return None
        self.hits += 1
        return arrays

    def save(self, identity: dict, arrays: Dict[str, np.ndarray]) -> bool:
        """Persist ``arrays`` under ``identity``; returns whether this
        process's write ended up on disk (``False`` = lost the rename
        race to a concurrent writer, which stored the same content).

        Only that final-rename race is swallowed: a store that cannot be
        written at all (read-only mount, full disk) raises, because
        silently degrading to rebuild-every-template-forever with empty
        stats would be undiagnosable.
        """
        directory = self.entry_dir(identity)
        staging = f"{directory}.tmp.{os.getpid()}"
        os.makedirs(staging, exist_ok=True)
        try:
            fault_point("store.save.write")
            payload_path = os.path.join(staging, _PAYLOAD_FILE)
            np.savez(payload_path, **arrays)
            with open(payload_path, "rb") as handle:
                payload_bytes = handle.read()
            # the digest covers the *intended* bytes; anything that
            # mutates the file afterwards (injected bit flips, disk rot)
            # makes load() refuse the entry
            digest = hashlib.sha256(payload_bytes).hexdigest()
            corrupted = maybe_corrupt_bytes("store.save.payload",
                                            payload_bytes)
            if corrupted is not payload_bytes:
                with open(payload_path, "wb") as handle:
                    handle.write(corrupted)
            meta = {"format": STORE_FORMAT, "identity": identity,
                    "payload_sha256": digest}
            # meta.json last: its presence marks a complete entry
            with open(os.path.join(staging, _META_FILE), "w") as handle:
                json.dump(meta, handle, indent=2, sort_keys=True)
            if os.path.isdir(directory):
                # overwrite (e.g. a corrupt entry being rebuilt); if the
                # old entry cannot be removed, that is an unwritable
                # store, not a race — raise rather than degrade silently
                shutil.rmtree(directory)
            fault_point("store.save.rename")
            try:
                os.rename(staging, directory)
            except OSError:
                # a concurrent worker renamed its entry in first
                return False
            return True
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt, "swept": self.swept}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FactorizationStore(root={self.root!r}, hits={self.hits}, "
                f"misses={self.misses}, corrupt={self.corrupt})")
