"""Checkpoint registry backing serving hot-swaps.

:class:`ModelRegistry` stores named model checkpoints on disk and hands
their state dicts to :meth:`PredictionService.swap`.  It is the one
library user of :class:`~repro.solver.store.FactorizationStore`: entries
are content-addressed by the hash of a JSON *identity* (format tag, name,
weight digest), payloads are npz archives written payload-first /
meta-last, and corrupt or tampered entries are refused rather than
served — so a half-written checkpoint can never be hot-swapped into a
live daemon.

A small ``registry.json`` index maps human names to entry identities and
tracks which checkpoint is *active* (what ``python -m repro.serve`` loads
at startup).  Publishing an existing name creates a new entry and
repoints the name — old entries stay on disk, addressable by their
identity, so a rollback is just re-publishing (or re-activating) the
previous weights.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

import numpy as np

from repro.faults.points import fault_point
from repro.nn.module import Module
from repro.serve.queue import ServeError
from repro.solver.store import FactorizationStore

__all__ = ["ModelRegistry", "SERVE_CHECKPOINT_FORMAT"]

SERVE_CHECKPOINT_FORMAT = "lmm-ir-serve-checkpoint-v1"

_INDEX_FILE = "registry.json"


def state_digest(state: Dict[str, np.ndarray]) -> str:
    """Content hash of a state dict (names, dtypes, shapes, bytes)."""
    digest = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:24]


class ModelRegistry:
    """Named, content-addressed checkpoint store for the serving daemon."""

    def __init__(self, root: str):
        self.root = os.path.abspath(os.fspath(root))
        self._store = FactorizationStore(self.root)

    # ------------------------------------------------------------------
    @property
    def _index_path(self) -> str:
        return os.path.join(self.root, _INDEX_FILE)

    def _read_index(self) -> dict:
        try:
            with open(self._index_path) as handle:
                index = json.load(handle)
        except FileNotFoundError:
            return {"format": SERVE_CHECKPOINT_FORMAT, "models": {},
                    "active": None}
        if index.get("format") != SERVE_CHECKPOINT_FORMAT:
            raise ServeError(
                f"{self._index_path} is not a serve registry "
                f"(format={index.get('format')!r})")
        return index

    def _write_index(self, index: dict) -> None:
        """Atomically replace the index: stage, then one ``os.replace``.

        Any crash (or injected fault) before the replace leaves the
        previous index untouched and readable; the staging file is
        cleaned up on failure so a crashed publish leaves no debris.
        """
        os.makedirs(self.root, exist_ok=True)
        staging = f"{self._index_path}.tmp.{os.getpid()}"
        try:
            fault_point("registry.index.write")
            with open(staging, "w") as handle:
                json.dump(index, handle, indent=2, sort_keys=True)
            fault_point("registry.index.rename")
            os.replace(staging, self._index_path)
        except BaseException:
            try:
                os.remove(staging)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def publish(self, name: str, source,
                activate: bool = False) -> dict:
        """Store a checkpoint under ``name``; ``source`` is a
        :class:`Module` or a state dict.  Returns the entry identity.

        The first published checkpoint becomes active automatically;
        later ones only with ``activate=True``.
        """
        state = (source.state_dict() if isinstance(source, Module)
                 else dict(source))
        if not state:
            raise ServeError(f"refusing to publish empty checkpoint {name!r}")
        identity = {
            "format": SERVE_CHECKPOINT_FORMAT,
            "name": str(name),
            "digest": state_digest(state),
        }
        self._store.save(identity, state)
        index = self._read_index()
        index["models"][str(name)] = identity
        if activate or index.get("active") is None:
            index["active"] = str(name)
        self._write_index(index)
        return identity

    def load_state(self, name: str) -> Dict[str, np.ndarray]:
        """State dict for ``name``; refuses corrupt/missing entries."""
        index = self._read_index()
        identity = index["models"].get(str(name))
        if identity is None:
            known = sorted(index["models"]) or ["<none>"]
            raise KeyError(
                f"no checkpoint named {name!r} in {self.root} "
                f"(known: {', '.join(known)})")
        state = self._store.load(identity)
        if state is None:
            raise ServeError(
                f"checkpoint {name!r} in {self.root} is missing or "
                f"corrupt (refusing to serve it); re-publish the weights")
        return state

    def activate(self, name: str) -> None:
        index = self._read_index()
        if str(name) not in index["models"]:
            raise KeyError(f"no checkpoint named {name!r} to activate")
        index["active"] = str(name)
        self._write_index(index)

    # ------------------------------------------------------------------
    @property
    def active(self) -> Optional[str]:
        return self._read_index().get("active")

    def names(self) -> List[str]:
        return sorted(self._read_index()["models"])

    def identity(self, name: str) -> dict:
        index = self._read_index()
        identity = index["models"].get(str(name))
        if identity is None:
            raise KeyError(f"no checkpoint named {name!r}")
        return dict(identity)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ModelRegistry(root={self.root!r}, "
                f"models={self.names()}, active={self.active!r})")
