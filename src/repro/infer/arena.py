"""Shape-keyed buffer arena for the grad-free inference engine.

Every intermediate an :class:`~repro.infer.engine.InferenceEngine` plan
produces lives in an arena buffer.  Internally the arena pools raw byte
chunks and hands out dtype/shape *views*, preferring the most recently
released chunk that fits (exact size first, then best fit).  That
mirrors what glibc's allocator does for the autograd path's temporaries
— consecutive convolutions write into the same cache-warm region — but
without ever touching the allocator in steady state: a plan acquires
what it needs step by step and releases each buffer at its last use, so
a second forward of the same shape reuses exactly the chunks the first
one released, allocating nothing.  :meth:`BufferArena.freeze` turns that
steady-state claim into a hard assertion: a frozen arena raises instead
of allocating.

An engine that shards a batch over lanes (see :mod:`repro.infer.lanes`)
gives each extra lane its own child arena, :meth:`BufferArena.lane`, so
no two threads share a pool.  The parent's ``freeze``, ``live``,
``pooled`` and allocation counters cover every lane.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["BufferArena", "ArenaFrozenError"]

#: a pooled chunk may serve a request down to 1/4 of its size; anything
#: smaller would waste too much of the chunk
_FIT_RATIO = 4


class ArenaFrozenError(RuntimeError):
    """Raised when a frozen arena would have to allocate a new buffer."""


class BufferArena:
    """Pool of reusable byte chunks served as shaped ndarray views."""

    def __init__(self):
        self._free: List[np.ndarray] = []   # release order (oldest first)
        self._live: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._frozen = False
        self._lanes: Dict[int, "BufferArena"] = {}
        self._allocations = 0
        self._allocated_bytes = 0

    # ------------------------------------------------------------------
    def acquire(self, shape: tuple, dtype,
                nbytes_hint: int = None) -> np.ndarray:
        """Return a buffer of the requested shape/dtype, reusing a pooled
        chunk when one fits and allocating otherwise.

        Without a hint the most recently released chunk that fits (exact
        size first, then best fit within ``_FIT_RATIO``) is reused — the
        cache-warm choice.  With ``nbytes_hint`` (a chunk size recorded
        from a previous run of the same plan) only chunks of exactly that
        size are reused, which makes replays deterministic: a schedule
        that ran once can always run again without allocating.
        """
        dtype = np.dtype(dtype)
        count = math.prod(shape) if shape else 1
        nbytes = max(count * dtype.itemsize, 1)
        chosen = None
        if nbytes_hint is not None:
            for position in range(len(self._free) - 1, -1, -1):
                if self._free[position].nbytes == nbytes_hint:
                    chosen = position
                    break
        else:
            for position in range(len(self._free) - 1, -1, -1):
                size = self._free[position].nbytes
                if size == nbytes:
                    chosen = position
                    break
                if (size > nbytes and size <= nbytes * _FIT_RATIO
                        and (chosen is None
                             or size < self._free[chosen].nbytes)):
                    chosen = position
        if chosen is not None:
            chunk = self._free.pop(chosen)
        else:
            if self._frozen:
                raise ArenaFrozenError(
                    f"frozen arena asked to allocate {shape} {dtype} — the "
                    "warm-up forward did not cover this buffer"
                )
            chunk = np.empty(max(nbytes_hint or 0, nbytes), dtype=np.uint8)
            self._allocations += 1
            self._allocated_bytes += chunk.nbytes
        view = chunk[:count * dtype.itemsize].view(dtype).reshape(shape)
        self._live[id(view)] = (chunk, view)
        return view

    def chunk_nbytes(self, array: np.ndarray) -> int:
        """Size of the pooled chunk backing a live view from :meth:`acquire`."""
        return self._live[id(array)][0].nbytes

    def release(self, array: np.ndarray) -> None:
        """Return a view handed out by :meth:`acquire` to the pool."""
        entry = self._live.pop(id(array), None)
        if entry is None:
            raise KeyError("release of a buffer this arena did not hand out")
        self._free.append(entry[0])

    # ------------------------------------------------------------------
    def lane(self, index: int) -> "BufferArena":
        """The arena lane ``index`` draws from: lane 0 is this arena, any
        other lane gets a child arena on first use (frozen if this one
        is), counted in this arena's totals."""
        if index == 0:
            return self
        child = self._lanes.get(index)
        if child is None:
            child = self.make_lane()
            child.freeze(self._frozen)
            self._lanes[index] = child
        return child

    def make_lane(self) -> "BufferArena":
        """A fresh arena for a new lane (tests override it with a fake)."""
        return BufferArena()

    def _all(self) -> List["BufferArena"]:
        return [self, *self._lanes.values()]

    def freeze(self, frozen: bool = True) -> None:
        """Forbid (or re-allow) new allocations, in every lane; reuse
        keeps working."""
        self._frozen = frozen
        for child in self._lanes.values():
            child.freeze(frozen)

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def lanes(self) -> int:
        """This arena plus the child lanes it has created."""
        return 1 + len(self._lanes)

    @property
    def allocations(self) -> int:
        """Chunks allocated so far, over every lane."""
        return sum(arena._allocations for arena in self._all())

    @property
    def allocated_bytes(self) -> int:
        return sum(arena._allocated_bytes for arena in self._all())

    @property
    def pooled(self) -> int:
        """Number of chunks currently sitting in the free pools."""
        return sum(len(arena._free) for arena in self._all())

    @property
    def live(self) -> int:
        """Number of views currently checked out, over every lane."""
        return sum(len(arena._live) for arena in self._all())

    def clear(self) -> None:
        """Drop all pooled chunks in every lane (counters are kept)."""
        for arena in self._all():
            arena._free.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BufferArena(allocations={self.allocations}, "
                f"bytes={self.allocated_bytes}, pooled={self.pooled})")
