"""Admission control for the serving daemon: requests, tickets, and the
bounded :class:`RequestQueue`.

The queue is the service's *only* admission point, and its failure mode
is deliberate: a submit against a full queue raises
:class:`BackpressureError` — a loud, reasoned rejection the client can
retry against — never a silent drop or an unbounded buffer that converts
overload into latency collapse.  Every accepted request carries a
:class:`PredictionTicket`, the caller's future for the eventual
:class:`ServeResult`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional

import numpy as np

from repro.data.case import CaseBundle
from repro.faults.deadline import Deadline, DeadlineExceededError

__all__ = [
    "ServeError", "BackpressureError", "ServiceClosedError",
    "WorkerDiedError", "WorkerStalledError", "PredictionFailedError",
    "TicketStateError", "DeadlineExceededError",
    "ServeResult", "PredictionTicket", "PredictionRequest", "RequestQueue",
]


class ServeError(RuntimeError):
    """Base class of every serving-layer failure."""


class BackpressureError(ServeError):
    """The admission queue is at capacity; the request was rejected.

    Carries the queue state so clients (and tests) can assert the
    rejection was reasoned, not accidental.
    """

    def __init__(self, depth: int, capacity: int):
        self.depth = int(depth)
        self.capacity = int(capacity)
        super().__init__(
            f"request rejected: queue at capacity ({depth}/{capacity} "
            f"requests waiting); retry later, raise REPRO_SERVE_QUEUE, or "
            f"add workers")


class ServiceClosedError(ServeError):
    """The service is stopped (or stopping) and accepts no new work."""


class WorkerDiedError(ServeError):
    """A worker died while holding this request and retries ran out."""


class WorkerStalledError(ServeError):
    """A worker hung past the watchdog budget while holding this request.

    Process workers are force-killed and the batch re-dispatched; this
    error surfaces only once retries run out too.  Thread workers cannot
    be killed, so their stalled batch fails immediately with this error
    while the wedged thread is flagged unhealthy on the health model.
    """


class PredictionFailedError(ServeError):
    """The worker's predictor raised while serving this request."""


class TicketStateError(ServeError):
    """A ticket was fulfilled or failed twice.

    Double resolution is always a service bug (two paths both believing
    they own the request's outcome), so it is refused loudly instead of
    silently overwriting whichever result arrived first.
    """


@dataclass(frozen=True)
class ServeResult:
    """One served prediction plus its accounting."""

    prediction: np.ndarray
    tat_seconds: float          # model turn-around time (Definition 3)
    latency_seconds: float      # submit -> completion, queueing included
    queue_seconds: float        # submit -> dispatch to a worker
    batch_size: int             # requests coalesced into the forward
    worker: str                 # serving worker id, e.g. "thread-0"
    attempts: int               # 1 + worker-death re-dispatches


class PredictionTicket:
    """Caller-side future for one submitted request.

    The producer side is a strict one-shot state machine: exactly one of
    :meth:`fulfill` / :meth:`fail` may run, exactly once.  A second
    resolution raises :class:`TicketStateError` — the shutdown sweepers
    check :meth:`done` first, so any double resolution that reaches here
    is a bug worth crashing on.
    """

    def __init__(self, request_id: int, case_name: str):
        self.request_id = request_id
        self.case_name = case_name
        self._event = threading.Event()
        self._result: Optional[ServeResult] = None
        self._error: Optional[BaseException] = None
        self._resolve_lock = threading.Lock()
        # Set by the service at submit time so a timeout message can
        # describe the service state without the ticket holding a
        # reference cycle to it.
        self._context: Optional[Callable[[], str]] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        """Block for the result; re-raises the serving failure if any."""
        if not self._event.wait(timeout):
            detail = ""
            if self._context is not None:
                try:
                    detail = f"; {self._context()}"
                except Exception:  # pragma: no cover - diagnostics only
                    detail = ""
            raise TimeoutError(
                f"request {self.request_id} ({self.case_name!r}) not "
                f"served within {timeout}s{detail}")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    # -- producer side (service internals) -----------------------------
    def fulfill(self, result: ServeResult) -> None:
        with self._resolve_lock:
            self._check_unresolved("fulfill")
            self._result = result
            self._event.set()

    def fail(self, error: BaseException) -> None:
        with self._resolve_lock:
            self._check_unresolved("fail")
            self._error = error
            self._event.set()

    def _check_unresolved(self, verb: str) -> None:
        if self._event.is_set():
            prior = ("failed with "
                     f"{type(self._error).__name__}: {self._error}"
                     if self._error is not None else "fulfilled")
            raise TicketStateError(
                f"cannot {verb} request {self.request_id} "
                f"({self.case_name!r}): ticket already {prior}")


@dataclass
class PredictionRequest:
    """One queued case plus its lifecycle timestamps (perf_counter)."""

    id: int
    case: CaseBundle
    ticket: PredictionTicket
    submitted: float = field(default_factory=time.perf_counter)
    dispatched: Optional[float] = None
    attempts: int = 0
    deadline: Optional[Deadline] = None


class RequestQueue:
    """Bounded, thread-safe FIFO with reject-on-full admission.

    ``submit`` never blocks: admission control is the *client's* signal,
    so a full queue answers immediately with :class:`BackpressureError`
    instead of stalling the caller into an invisible second queue.
    ``pop`` blocks up to a timeout (the scheduler's batching window).
    After :meth:`close`, submits are refused and pops drain what remains.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.rejected = 0
        self._items: Deque[PredictionRequest] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def submit(self, request: PredictionRequest) -> None:
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "service is stopped; request rejected")
            if len(self._items) >= self.capacity:
                self.rejected += 1
                raise BackpressureError(len(self._items), self.capacity)
            self._items.append(request)
            self._not_empty.notify()

    def pop(self, timeout: Optional[float] = None
            ) -> Optional[PredictionRequest]:
        """Next request, or ``None`` on timeout / closed-and-empty."""
        deadline = (None if timeout is None
                    else time.perf_counter() + timeout)
        with self._lock:
            while not self._items:
                if self._closed:
                    return None
                remaining = (None if deadline is None
                             else deadline - time.perf_counter())
                if remaining is not None and remaining <= 0:
                    return None
                self._not_empty.wait(remaining)
            return self._items.popleft()

    def close(self) -> None:
        """Refuse new submits; queued requests stay poppable (drain)."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def drain_pending(self) -> Deque[PredictionRequest]:
        """Remove and return everything still queued (for shutdown
        without drain: the service fails these tickets loudly)."""
        with self._lock:
            items, self._items = self._items, deque()
            return items
