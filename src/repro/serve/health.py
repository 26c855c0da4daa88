"""Worker heartbeats and the service health model.

Every serving worker — thread loops in-process, spawned workers over
their result queue — emits a *heartbeat* whenever its main loop proves
it is actually turning: on idle queue polls and after every completed
message.  Heartbeats are deliberately **not** emitted from a side
thread, because a side thread keeps beating while the compute path is
wedged — the whole point of the health model is that a hung forward
stops the beats.

:class:`HealthMonitor` aggregates the beats into a versioned
:class:`HealthSnapshot`: per-worker ``healthy`` / ``degraded`` /
``unhealthy`` plus a whole-service rollup, surfaced through
``PredictionService.health()`` and ``python -m repro.serve
--health-json``.  Every state transition is appended to a bounded
in-memory timeline (the CI health-timeline artifact) so a post-mortem
can see *when* a worker went quiet, not just that it did.

``beat`` routes through the ``serve.heartbeat`` fault point: an armed
chaos plan can swallow beats to forge a stall without touching the
worker, which is how the watchdog and the degraded-health paths are
exercised deterministically.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.faults.plan import InjectedFaultError
from repro.faults.points import fault_point

__all__ = [
    "WORKER_STATES", "SERVICE_STATES", "HEALTH_TIMELINE_FORMAT",
    "WorkerHealth", "HealthSnapshot", "HealthMonitor",
]

WORKER_STATES = ("healthy", "degraded", "unhealthy")
SERVICE_STATES = ("healthy", "degraded", "unhealthy")

#: Version tag of the timeline JSON artifact uploaded by CI.
HEALTH_TIMELINE_FORMAT = "lmm-ir-health-timeline-v1"

#: health transitions the timeline keeps; the oldest drop past this
TIMELINE_CAP = 512


@dataclass(frozen=True)
class WorkerHealth:
    """One worker's health as of a snapshot."""

    worker: str                 # e.g. "thread-0" / "process-3"
    state: str                  # one of WORKER_STATES
    last_beat_age_s: float      # seconds since the last accepted beat
    beats: int                  # accepted heartbeats, lifetime
    stalled: bool               # watchdog flagged an over-age batch
    note: str = ""              # last transition reason

    def to_dict(self) -> Dict[str, object]:
        return {
            "worker": self.worker,
            "state": self.state,
            "last_beat_age_s": self.last_beat_age_s,
            "beats": self.beats,
            "stalled": self.stalled,
            "note": self.note,
        }


@dataclass(frozen=True)
class HealthSnapshot:
    """Versioned point-in-time view of the whole service."""

    version: int                       # monotonic per monitor
    state: str                         # service rollup, SERVICE_STATES
    workers: Tuple[WorkerHealth, ...]  # live workers only
    breaker: Optional[str] = None      # breaker state, None = no breaker
    queue_depth: int = 0
    deaths: int = 0                    # workers removed (died/killed)
    suppressed_beats: int = 0          # beats eaten by serve.heartbeat
    detail: str = ""                   # why the rollup is what it is

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "state": self.state,
            "workers": [worker.to_dict() for worker in self.workers],
            "breaker": self.breaker,
            "queue_depth": self.queue_depth,
            "deaths": self.deaths,
            "suppressed_beats": self.suppressed_beats,
            "detail": self.detail,
        }


class _WorkerRecord:
    __slots__ = ("last_beat", "beats", "stalled", "dead", "note", "state")

    def __init__(self, now: float):
        self.last_beat = now    # registration counts as a beat (grace)
        self.beats = 0
        self.stalled = False
        self.dead = False
        self.note = "registered"
        self.state = "healthy"


class HealthMonitor:
    """Aggregates worker heartbeats into service health.

    ``stale_after_s`` is the beat-freshness budget: a live worker whose
    last accepted beat is older than this is ``degraded`` (quiet but not
    proven hung); a worker the watchdog marked stalled — or that died —
    is ``unhealthy``.  The service rollup is the worst of its parts plus
    the breaker: any open breaker or zero live workers is ``unhealthy``,
    any non-healthy worker or a half-open breaker is ``degraded``.
    """

    def __init__(self, stale_after_s: float = 1.0):
        if stale_after_s <= 0:
            raise ValueError(
                f"stale_after_s must be > 0, got {stale_after_s}")
        self.stale_after_s = float(stale_after_s)
        self._lock = threading.Lock()
        self._workers: Dict[str, _WorkerRecord] = {}
        self._version = 0
        self._deaths = 0
        self._suppressed = 0
        self._service_state = "healthy"
        self._timeline: Deque[Dict[str, object]] = deque(maxlen=TIMELINE_CAP)
        self._epoch = time.perf_counter()

    # -- worker lifecycle ----------------------------------------------
    def register(self, worker: str) -> None:
        now = time.perf_counter()
        with self._lock:
            self._workers[worker] = _WorkerRecord(now)
            self._transition_locked(worker, None, "healthy", "registered",
                                    now)

    def beat(self, worker: str) -> bool:
        """Accept one heartbeat; returns False when the chaos plan (the
        ``serve.heartbeat`` fault point) swallowed it."""
        try:
            fault_point("serve.heartbeat")
        except InjectedFaultError:
            with self._lock:
                self._suppressed += 1
            return False
        now = time.perf_counter()
        with self._lock:
            record = self._workers.get(worker)
            if record is None or record.dead:
                return False
            record.last_beat = now
            record.beats += 1
        return True

    def mark_stalled(self, worker: str, note: str = "") -> None:
        now = time.perf_counter()
        with self._lock:
            record = self._workers.get(worker)
            if record is None:
                return
            record.stalled = True
            record.note = note or "watchdog: batch over budget"
            self._transition_locked(worker, record.state, "unhealthy",
                                    record.note, now)
            record.state = "unhealthy"

    def mark_recovered(self, worker: str, note: str = "") -> None:
        now = time.perf_counter()
        with self._lock:
            record = self._workers.get(worker)
            if record is None:
                return
            record.stalled = False
            record.last_beat = now
            record.note = note or "recovered"
            self._transition_locked(worker, record.state, "healthy",
                                    record.note, now)
            record.state = "healthy"

    def remove(self, worker: str, note: str = "") -> None:
        """Forget a worker that died or was killed (its replacement
        registers under a fresh name)."""
        now = time.perf_counter()
        with self._lock:
            record = self._workers.pop(worker, None)
            if record is None:
                return
            self._deaths += 1
            self._transition_locked(worker, record.state, "removed",
                                    note or "worker gone", now)

    # -- observation ---------------------------------------------------
    def _state_of_locked(self, record: _WorkerRecord, now: float
                         ) -> Tuple[str, str]:
        if record.dead:
            return "unhealthy", record.note or "dead"
        if record.stalled:
            return "unhealthy", record.note or "stalled"
        age = now - record.last_beat
        if age > self.stale_after_s:
            return ("degraded",
                    f"no heartbeat for {age:.3f}s "
                    f"(budget {self.stale_after_s:g}s)")
        return "healthy", ""

    def snapshot(self, breaker: Optional[str] = None,
                 queue_depth: int = 0,
                 pool_failed: Optional[str] = None) -> HealthSnapshot:
        """Versioned health rollup; records worker-state transitions
        observed since the previous snapshot on the timeline."""
        now = time.perf_counter()
        with self._lock:
            self._version += 1
            workers: List[WorkerHealth] = []
            worst = "healthy"
            detail = ""
            for name in sorted(self._workers):
                record = self._workers[name]
                state, why = self._state_of_locked(record, now)
                if state != record.state:
                    self._transition_locked(name, record.state, state,
                                            why or record.note, now)
                    record.state = state
                workers.append(WorkerHealth(
                    worker=name, state=state,
                    last_beat_age_s=now - record.last_beat,
                    beats=record.beats, stalled=record.stalled,
                    note=why or record.note))
                if _worse(state, worst):
                    worst = state
                    detail = f"worker {name}: {why or record.note}"
            service, why = _rollup(worst, bool(workers), breaker,
                                   pool_failed)
            if why:
                detail = why
            elif service == "healthy":
                detail = ""
            # else: keep the worst worker's detail computed in the loop
            if service != self._service_state:
                self._transition_locked("service", self._service_state,
                                        service, detail, now)
                self._service_state = service
            return HealthSnapshot(
                version=self._version, state=service,
                workers=tuple(workers), breaker=breaker,
                queue_depth=int(queue_depth), deaths=self._deaths,
                suppressed_beats=self._suppressed, detail=detail)

    def summary(self, breaker: Optional[str] = None,
                pool_failed: Optional[str] = None) -> Dict[str, object]:
        """Light rollup for ``stats()`` — no version bump, no timeline
        writes.  The service state is computed from the *freshly*
        evaluated per-worker states (plus the breaker/pool inputs when
        given), never echoed from the last :meth:`snapshot`: that cache
        only moves when somebody polls ``health()``, and a summary that
        says "healthy" next to all-stalled worker counts is exactly the
        inconsistency this avoids."""
        now = time.perf_counter()
        with self._lock:
            by_state = {state: 0 for state in WORKER_STATES}
            worst = "healthy"
            for record in self._workers.values():
                state, _ = self._state_of_locked(record, now)
                by_state[state] += 1
                if _worse(state, worst):
                    worst = state
            service, _ = _rollup(worst, bool(self._workers), breaker,
                                 pool_failed)
            return {"state": service, "workers": by_state,
                    "deaths": self._deaths,
                    "suppressed_beats": self._suppressed}

    # -- timeline ------------------------------------------------------
    def _transition_locked(self, subject: str, from_state: Optional[str],
                           to_state: str, note: str, now: float) -> None:
        self._timeline.append({
            "subject": subject,
            "from": from_state,
            "to": to_state,
            "note": note,
            "t_s": now - self._epoch,
        })

    def timeline(self) -> List[Dict[str, object]]:
        with self._lock:
            return [dict(event) for event in self._timeline]

    def timeline_json(self) -> str:
        """The CI artifact: every observed transition, versioned."""
        return json.dumps({
            "format": HEALTH_TIMELINE_FORMAT,
            "stale_after_s": self.stale_after_s,
            "transitions": self.timeline(),
        }, indent=2, sort_keys=True)


def _worse(candidate: str, incumbent: str) -> bool:
    order = {state: rank for rank, state in enumerate(WORKER_STATES)}
    return order[candidate] > order[incumbent]


def _rollup(worst: str, have_workers: bool, breaker: Optional[str],
            pool_failed: Optional[str]) -> Tuple[str, str]:
    """Service state from the worst worker plus breaker/pool inputs —
    the one rollup rule shared by :meth:`HealthMonitor.snapshot` and
    :meth:`HealthMonitor.summary`.  An empty reason for a non-healthy
    state means "blame the worst worker" (the caller has its detail)."""
    if pool_failed:
        return "unhealthy", f"pool failed: {pool_failed}"
    if not have_workers:
        return "unhealthy", "no live workers"
    if breaker == "open":
        return "unhealthy", "circuit breaker open"
    if worst != "healthy":
        return ("degraded" if worst == "degraded" else "unhealthy"), ""
    if breaker == "half_open":
        return "degraded", "circuit breaker half-open"
    return "healthy", ""
