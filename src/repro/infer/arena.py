"""Per-lane workspace slab for the grad-free inference engine.

Every intermediate an :class:`~repro.infer.engine.InferenceEngine` plan
produces lives at a fixed offset of one workspace, laid out at compile
time (see :func:`repro.infer.plan.compile_plan`).  The arena holds that
workspace: one 64-byte-aligned byte slab that grows to the largest
``workspace_nbytes`` of the plans run on it and never shrinks.  A run
checks the slab out once, takes the plan's views over it (bound on the
plan's first run on this slab, then cached) and checks it back in; a
second forward of a known shape therefore allocates nothing.
:meth:`BufferArena.freeze` turns that steady-state claim into a hard
assertion: a frozen arena raises instead of growing.

An engine that shards a batch over lanes (see :mod:`repro.infer.lanes`)
gives each extra lane its own child arena, :meth:`BufferArena.lane`, so
no two threads share a slab.  The parent's ``freeze``, ``live``,
``nbytes`` and allocation counters cover every lane.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional

import numpy as np

__all__ = ["BufferArena", "ArenaFrozenError", "ALIGN"]

#: byte alignment of the slab and of every buffer offset in a layout
ALIGN = 64


class ArenaFrozenError(RuntimeError):
    """Raised when a frozen arena would have to allocate a new buffer."""


class BufferArena:
    """One lane's grow-only workspace slab, plus the plan views over it."""

    def __init__(self):
        self._slab: Optional[np.ndarray] = None
        self._bound = weakref.WeakKeyDictionary()   # plan -> its binding
        self._in_use = threading.Lock()
        self._frozen = False
        self._lanes: Dict[int, "BufferArena"] = {}
        self._allocations = 0

    # ------------------------------------------------------------------
    def checkout(self, plan):
        """Check the slab out for one run of ``plan`` and return the
        plan's binding over it (:meth:`~repro.infer.plan.Plan.bind`).

        The slab grows to ``plan.workspace_nbytes`` when it is smaller,
        which drops every cached binding of the old slab; a frozen arena
        raises :class:`ArenaFrozenError` instead.  Pair every checkout
        with :meth:`checkin`.
        """
        if not self._in_use.acquire(blocking=False):
            raise RuntimeError(
                "arena lane is already checked out: a lane runs one plan "
                "at a time")
        try:
            return self._binding(plan)
        except BaseException:
            self._in_use.release()
            raise

    def _binding(self, plan):
        nbytes = plan.workspace_nbytes
        if self._slab is None or self._slab.nbytes < nbytes:
            if self._frozen:
                raise ArenaFrozenError(
                    f"frozen arena asked to grow to {nbytes} bytes — the "
                    "warm-up forward did not cover this plan")
            self._bound.clear()
            self._slab = None   # free the old slab before the new one
            raw = np.empty(nbytes + ALIGN, dtype=np.uint8)
            shift = -raw.ctypes.data % ALIGN
            self._slab = raw[shift:shift + nbytes]
            self._allocations += 1
        binding = self._bound.get(plan)
        if binding is None:
            binding = self._bound[plan] = plan.bind(self._slab)
        return binding

    def checkin(self) -> None:
        """Return the slab checked out by :meth:`checkout`."""
        self._in_use.release()

    # ------------------------------------------------------------------
    def lane(self, index: int) -> "BufferArena":
        """The arena lane ``index`` draws from: lane 0 is this arena, any
        other lane gets a child arena on first use (frozen if this one
        is), counted in this arena's totals."""
        if index == 0:
            return self
        child = self._lanes.get(index)
        if child is None:
            child = BufferArena()
            child.freeze(self._frozen)
            self._lanes[index] = child
        return child

    def _all(self) -> List["BufferArena"]:
        return [self, *self._lanes.values()]

    def freeze(self, frozen: bool = True) -> None:
        """Forbid (or re-allow) slab growth, in every lane; runs that fit
        the slab keep working."""
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
    def slab_nbytes(self) -> int:
        """Size of this lane's slab (0 before its first run)."""
        return 0 if self._slab is None else self._slab.nbytes

    @property
    def nbytes(self) -> int:
        """Bytes held in slabs, over every lane."""
        return sum(arena.slab_nbytes for arena in self._all())

    @property
    def allocations(self) -> int:
        """Slabs allocated so far (first use and every growth), over
        every lane."""
        return sum(arena._allocations for arena in self._all())

    @property
    def live(self) -> int:
        """Workspaces currently checked out, over every lane."""
        return sum(arena._in_use.locked() for arena in self._all())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BufferArena(lanes={self.lanes}, nbytes={self.nbytes}, "
                f"allocations={self.allocations})")
