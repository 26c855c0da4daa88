"""Graceful degradation, made explicit and observable.

The stack has always had fallbacks — the ``"auto"`` inference engine
drops to the autograd forward when a model cannot compile, the ``"auto"``
CG preconditioner picks incomplete-Cholesky when multigrid lacks
coordinates, the process worker pool respawns dead workers until a
ceiling.  What it lacked was *visibility*: a service running on its
fallbacks looked identical to a healthy one, just slower.  This module
gives every fallback one narrow waist:

* :class:`DegradationEvent` — who degraded, from what, to what, why;
* :class:`DegradationLog` — a thread-safe recorder with exact counters,
  so ``stats()`` surfaces (``PredictionService.stats()["degradations"]``,
  solver setup reports) can show exactly which rungs have been
  descended, and a bounded ring of the most recent events, so a
  long-lived daemon's ledger does not grow with every breaker trip.

The chains themselves live with the components that descend them (the
solver's is :data:`repro.solver.factorized.PRECOND_CHAIN`).  A run that
wants no fallback names its rung explicitly (``precond="mg"``), which
turns a setup failure into a loud error.

Components record against the module-level :func:`default_log` unless
handed their own — one process, one degradation ledger, matching how an
operator actually asks "is this box degraded?".
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

__all__ = ["DegradationEvent", "DegradationLog", "EVENT_WINDOW",
           "default_log", "record", "reset_default_log"]

#: events a ledger keeps for :meth:`DegradationLog.events`; older ones
#: drop off, while :meth:`DegradationLog.counts` stays exact
EVENT_WINDOW = 1024


@dataclass(frozen=True)
class DegradationEvent:
    """One descent down a fallback chain."""

    component: str        # "infer.engine", "solver.precond", "serve.pool"
    from_mode: str        # the rung that failed ("engine", "mg", ...)
    to_mode: str          # the rung now in use ("autograd", "ic", ...)
    reason: str           # why (exception text, ceiling hit, ...)
    at: float = field(default_factory=time.perf_counter)

    def to_dict(self) -> dict:
        return {"component": self.component, "from": self.from_mode,
                "to": self.to_mode, "reason": self.reason}


class DegradationLog:
    """Thread-safe ledger of degradation events.

    Counts are exact over the ledger's lifetime; only the last
    :data:`EVENT_WINDOW` events are kept.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._events: Deque[DegradationEvent] = deque(maxlen=EVENT_WINDOW)
        self._counts: Dict[str, int] = {}

    def record(self, component: str, from_mode: str, to_mode: str,
               reason: str) -> DegradationEvent:
        event = DegradationEvent(component=component, from_mode=from_mode,
                                 to_mode=to_mode, reason=str(reason))
        key = f"{component}: {from_mode}->{to_mode}"
        with self._lock:
            self._events.append(event)
            self._counts[key] = self._counts.get(key, 0) + 1
        return event

    def events(self, component: Optional[str] = None
               ) -> List[DegradationEvent]:
        """The most recent events (at most :data:`EVENT_WINDOW`), oldest
        first."""
        with self._lock:
            events = list(self._events)
        if component is not None:
            events = [e for e in events if e.component == component]
        return events

    def counts(self) -> Dict[str, int]:
        """``{"component: from->to": n}`` over every event ever recorded
        — the stats() payload."""
        with self._lock:
            return dict(self._counts)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._counts.clear()

    def __len__(self) -> int:
        """Events recorded since construction or :meth:`clear`."""
        with self._lock:
            return sum(self._counts.values())


_DEFAULT = DegradationLog()


def default_log() -> DegradationLog:
    """The process-wide ledger components record to by default."""
    return _DEFAULT


def record(component: str, from_mode: str, to_mode: str,
           reason: str) -> DegradationEvent:
    """Record onto the default ledger (the one-line call sites use)."""
    return _DEFAULT.record(component, from_mode, to_mode, reason)


def reset_default_log() -> None:
    """Clear the default ledger (test isolation)."""
    _DEFAULT.clear()
