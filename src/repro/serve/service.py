"""The long-lived prediction service: admission, micro-batching and
dispatch.

:class:`PredictionService` glues the serving layers together::

    submit() -> RequestQueue -> scheduler thread -> worker pool
      (admission)   (bounded)    (micro-batches)     (predict_many)

The scheduler generalises ``IRPredictor.predict_many``'s same-shape
grouping to a *continuous* stream: it pops the next request and, when a
worker is idle with nothing pending, dispatches it at once together with
whatever has already queued behind it.  While every worker is busy it
waits up to ``batch_window_s`` (the latency budget) for companions, then
also takes whatever else has queued; either way a micro-batch holds at
most ``max_batch`` cases.  Workers route the batch
through ``predict_many``, which re-groups by prepared shape internally,
so a coalesced batch is bit-identical (in either engine dtype) to serial
``predict_case`` calls — the parity property the serving benchmark gates
on.

Overload is loud by construction: admission is the bounded
:class:`~repro.serve.queue.RequestQueue` (reject-with-reason), worker
death surfaces as :class:`~repro.serve.queue.WorkerDiedError` after
bounded retries, and shutdown fails undrained tickets with
:class:`~repro.serve.queue.ServiceClosedError` — a submitted request
always resolves, one way or the other.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Deque, List, Optional

from repro.core.pipeline import IRPredictor
from repro.data.case import CaseBundle
from repro.faults.deadline import Deadline, DeadlineExceededError
from repro.faults.degrade import default_log
from repro.faults.points import fault_point
from repro.metrics.timing import latency_summary
from repro.serve.breaker import CircuitBreaker, CircuitOpenError
from repro.serve.config import ServeConfig
from repro.serve.guard import (
    AuditRecord,
    IntegrityError,
    OnlineAuditor,
    OutputGuard,
)
from repro.serve.health import HealthMonitor, HealthSnapshot
from repro.serve.queue import (
    BackpressureError,
    PredictionRequest,
    PredictionTicket,
    RequestQueue,
    ServeResult,
    ServiceClosedError,
    TicketStateError,
)
from repro.serve.worker import PredictorSpec, WorkerPool

__all__ = ["PredictionService"]

#: Bounded sample windows for the latency/TAT percentile summaries — a
#: long-lived daemon must not grow its stats without bound, and 4096
#: recent samples are plenty for p99.
STATS_WINDOW = 4096

#: Failures that must never count against the circuit breaker: they are
#: admission/lifecycle outcomes (shed, closed, expired, rejected), not
#: evidence the serving path is broken — counting them would let an
#: open breaker keep itself open on its own sheds.
_BREAKER_EXEMPT = (ServiceClosedError, BackpressureError, CircuitOpenError,
                   TicketStateError, DeadlineExceededError)


class PredictionService:
    """Always-on IR-drop prediction daemon around one model.

    Built from a :class:`~repro.serve.worker.PredictorSpec` (or an
    existing :class:`~repro.core.pipeline.IRPredictor` via
    :meth:`from_predictor`); ``config`` picks worker kind/count, queue
    bound, and the micro-batch latency budget.  Use as a context manager
    or call :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(self, spec: PredictorSpec,
                 config: Optional[ServeConfig] = None):
        self.config = config if config is not None else ServeConfig()
        self.spec = spec
        self.queue = RequestQueue(self.config.queue_capacity)
        self.health_monitor = HealthMonitor(
            stale_after_s=self.config.stale_after_s)
        self.guard = OutputGuard()
        self.breaker: Optional[CircuitBreaker] = None
        if self.config.breaker_enabled:
            self.breaker = CircuitBreaker(
                window=self.config.breaker_window,
                min_requests=self.config.breaker_min_requests,
                cooldown_s=self.config.breaker_cooldown_s)
        self.auditor: Optional[OnlineAuditor] = None
        if self.config.audit_every:
            self.auditor = OnlineAuditor(
                every=self.config.audit_every,
                on_divergence=self._on_divergence)
        self.pool = WorkerPool(spec, self.config, on_result=self._record,
                               on_failure=self._on_failure, guard=self.guard,
                               health=self.health_monitor)
        self._ids = itertools.count()
        self._scheduler: Optional[threading.Thread] = None
        self._started = False
        self._stopped = False
        self._stats_lock = threading.Lock()
        self._tickets: Deque[PredictionTicket] = deque()
        self._served = 0
        self._expired = 0
        self._failed = 0
        self._shed = 0
        self._integrity_refused = 0
        self._latencies: Deque[float] = deque(maxlen=STATS_WINDOW)
        self._tats: Deque[float] = deque(maxlen=STATS_WINDOW)
        self._queue_waits: Deque[float] = deque(maxlen=STATS_WINDOW)
        self._batch_sizes: Deque[int] = deque(maxlen=STATS_WINDOW)

    @classmethod
    def from_predictor(cls, predictor: IRPredictor,
                       config: Optional[ServeConfig] = None,
                       ) -> "PredictionService":
        return cls(PredictorSpec.from_predictor(predictor), config)

    # ------------------------------------------------------------------
    def start(self) -> "PredictionService":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        if self.auditor is not None:
            self.auditor.start()
        self.pool.start()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="repro-serve-scheduler",
            daemon=True)
        self._scheduler.start()
        return self

    def __enter__(self) -> "PredictionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def submit(self, case: CaseBundle,
               deadline_s: Optional[float] = None) -> PredictionTicket:
        """Admit one case; returns its ticket or raises loudly
        (:class:`BackpressureError` / :class:`ServiceClosedError` /
        :class:`CircuitOpenError` when the breaker is shedding).

        ``deadline_s`` (falling back to ``config.deadline_s``) starts the
        request's deadline clock at admission: a request still queued when
        its deadline passes is failed fast with
        :class:`DeadlineExceededError` instead of occupying a micro-batch
        slot.

        Submitting before :meth:`start` is allowed — admission is the
        queue's business, not the scheduler's — so callers (and the
        deterministic backpressure tests) can pre-fill the bounded queue;
        dispatch begins when the service starts."""
        if self._stopped:
            raise ServiceClosedError("service is stopped")
        if self.breaker is not None:
            try:
                self.breaker.allow()
            except CircuitOpenError:
                with self._stats_lock:
                    self._shed += 1
                raise
        ticket = PredictionTicket(next(self._ids), case.name)
        ticket._context = self._ticket_context
        budget = deadline_s if deadline_s is not None \
            else self.config.deadline_s
        request = PredictionRequest(
            id=ticket.request_id, case=case, ticket=ticket,
            deadline=Deadline.after(budget) if budget is not None else None)
        try:
            self.queue.submit(request)
        except BaseException:
            # admission was granted (possibly consuming a half-open
            # probe slot) but the request never entered the queue, so no
            # outcome will ever reach the breaker — give the slot back
            # or half-open wedges with every probe "in flight" forever
            if self.breaker is not None:
                self.breaker.release()
            raise
        with self._stats_lock:
            # keep the drain list from growing without bound on a
            # long-lived daemon: completed heads are no longer awaited
            while self._tickets and self._tickets[0].done():
                self._tickets.popleft()
            self._tickets.append(ticket)
        return ticket

    def predict(self, case: CaseBundle,
                timeout: Optional[float] = 60.0) -> ServeResult:
        """Synchronous convenience: submit and wait for the result."""
        return self.submit(case).result(timeout)

    # ------------------------------------------------------------------
    def _expire_if_late(self, request: PredictionRequest) -> bool:
        """Fail a queued request whose deadline already passed; returns
        True when the request was expired (and must not be batched)."""
        if request.deadline is None or not request.deadline.expired():
            return False
        waited = time.perf_counter() - request.submitted
        request.ticket.fail(DeadlineExceededError(
            f"request {request.id} ({request.case.name!r}) expired after "
            f"{waited:.3f}s in queue; deadline passed before dispatch"))
        with self._stats_lock:
            self._expired += 1
        if self.breaker is not None:
            self.breaker.release()  # expiry is exempt: no outcome lands
        return True

    def _scheduler_loop(self) -> None:
        while True:
            head = self.queue.pop(timeout=0.05)
            if head is None:
                if self.queue.closed and not len(self.queue):
                    return
                continue
            if self._expire_if_late(head):
                continue
            batch = [head]
            # an idle pool gets what has already arrived at once; a busy
            # one could not start the batch yet, so it waits out the
            # window for companions, then takes what else has arrived
            window = (0.0 if self.pool.dispatches_at_once()
                      else self.config.batch_window_s)
            deadline = time.perf_counter() + window
            while len(batch) < self.config.max_batch:
                companion = self.queue.pop(
                    timeout=max(0.0, deadline - time.perf_counter()))
                if companion is None:
                    break
                if self._expire_if_late(companion):
                    continue
                batch.append(companion)
            now = time.perf_counter()
            for request in batch:
                request.dispatched = now
            try:
                fault_point("serve.dispatch")
                self.pool.submit(batch)
            except BaseException as error:
                for request in batch:
                    if not request.ticket.done():
                        request.ticket.fail(error)
                        self._on_failure(error)

    def _record(self, request: PredictionRequest,
                result: ServeResult) -> None:
        """Per-fulfilment bookkeeping (runs on worker/monitor threads)."""
        with self._stats_lock:
            self._served += 1
            self._latencies.append(result.latency_seconds)
            self._tats.append(result.tat_seconds)
            self._queue_waits.append(result.queue_seconds)
            self._batch_sizes.append(result.batch_size)
        if self.breaker is not None:
            self.breaker.record_success()
        if self.auditor is not None:
            self.auditor.observe(request.case, result.prediction)

    def _on_failure(self, error: BaseException) -> None:
        """Per-failed-resolution bookkeeping; feeds the breaker window.

        Lifecycle outcomes (shed/closed/expired) are exempt — only
        failures that say the *serving path* is broken (worker deaths,
        stalls, prediction failures, integrity refusals, injected
        faults) may trip the breaker.
        """
        with self._stats_lock:
            self._failed += 1
            if isinstance(error, IntegrityError):
                self._integrity_refused += 1
        if self.breaker is not None:
            if isinstance(error, _BREAKER_EXEMPT):
                # lifecycle outcome: no breaker evidence either way, but
                # the admission slot it consumed (possibly a half-open
                # probe) must be returned so a future probe can resolve
                self.breaker.release()
            else:
                self.breaker.record_failure(error)

    def _on_divergence(self, record: AuditRecord) -> None:
        """Online audit found a served map off the golden solver: the
        model itself is suspect, so stop fulfilling future requests."""
        if self.breaker is not None:
            self.breaker.trip(
                f"online audit: served map for {record.case_name!r} off "
                f"golden by {record.divergence_v:.3e} V "
                f"(> {record.threshold_v:g} V)")

    # ------------------------------------------------------------------
    def _ticket_context(self) -> str:
        """One-line service snapshot appended to ticket timeout errors."""
        return (f"queue_depth={len(self.queue)}, "
                f"workers={self.pool.worker_count}, "
                f"served={self._served}")

    def health(self) -> HealthSnapshot:
        """Versioned health rollup: per-worker heartbeat freshness plus
        the breaker and pool state (see :mod:`repro.serve.health`)."""
        return self.health_monitor.snapshot(
            breaker=None if self.breaker is None else self.breaker.state,
            queue_depth=len(self.queue),
            pool_failed=self.pool.failed)

    def stats(self) -> dict:
        """Serving counters plus latency/TAT percentile summaries.

        The whole numeric state — counters *and* the percentile sample
        windows — is snapshotted under the record lock in one critical
        section, so a concurrent ``_record`` can never leave the report
        internally inconsistent (served count from one instant, latency
        samples from another).  Summarisation runs on the copies.
        """
        with self._stats_lock:
            served = self._served
            expired = self._expired
            failed = self._failed
            shed = self._shed
            integrity_refused = self._integrity_refused
            latencies = list(self._latencies)
            tats = list(self._tats)
            queue_waits = list(self._queue_waits)
            batch_sizes = list(self._batch_sizes)
        report = {
            "served": served,
            "rejected": self.queue.rejected,
            "deadline_expired": expired,
            "failed": failed,
            "shed": shed,
            "integrity_refused": integrity_refused,
            "queue_depth": len(self.queue),
            "workers": self.pool.worker_count,
            "worker_kind": self.config.worker_kind,
            "degradations": default_log().counts(),
            # the summary's service state is computed fresh from the
            # per-worker records plus the live breaker/pool inputs —
            # never echoed from the last health() poll, which may be
            # arbitrarily stale (or never have happened)
            "health": self.health_monitor.summary(
                breaker=None if self.breaker is None else self.breaker.state,
                pool_failed=self.pool.failed),
            "guard": self.guard.stats(),
        }
        if self.breaker is not None:
            report["breaker"] = self.breaker.stats()
        if self.auditor is not None:
            report["audit"] = self.auditor.stats()
        if latencies:
            report["latency"] = latency_summary(latencies)
            report["tat"] = latency_summary(tats)
            report["queue_wait"] = latency_summary(queue_waits)
            report["batch_size_mean"] = (
                sum(batch_sizes) / len(batch_sizes))
        return report

    # ------------------------------------------------------------------
    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Shut down; with ``drain`` (default) every admitted request is
        served first, otherwise queued tickets fail loudly.

        Either way the contract is total: every admitted ticket resolves
        exactly once — fulfilled, or failed with a typed error — before
        this returns.  The final sweep covers the corner where the drain
        deadline expires with requests still queued (the scheduler join
        timed out): those tickets are failed here instead of leaking.
        """
        if self._stopped:
            return
        self._stopped = True
        self.queue.close()
        if not self._started:
            # nothing will ever serve what was pre-submitted: fail loudly
            for request in self.queue.drain_pending():
                self._fail_closed(request,
                                  "service stopped before it was started")
            return
        if not drain:
            for request in self.queue.drain_pending():
                self._fail_closed(
                    request, "service stopped without draining the queue")
        if self._scheduler is not None:
            self._scheduler.join(timeout)
            self._scheduler = None
        if drain:
            deadline = time.perf_counter() + timeout
            with self._stats_lock:
                tickets = list(self._tickets)
            for ticket in tickets:
                remaining = max(0.0, deadline - time.perf_counter())
                if not ticket._event.wait(remaining):
                    break  # pool.stop() fails whatever is still in flight
        self.pool.stop()
        if self.auditor is not None:
            self.auditor.stop()
        # final sweep: anything still queued (drain deadline expired
        # before the scheduler emptied the queue) must not leak
        for request in self.queue.drain_pending():
            if not request.ticket.done():
                self._fail_closed(
                    request,
                    "service stopped before the request was scheduled")

    def _fail_closed(self, request: PredictionRequest,
                     message: str) -> None:
        """Fail an admitted-but-never-served request at shutdown and
        return its breaker admission slot (shutdown is exempt — no
        outcome will ever be recorded for the request)."""
        request.ticket.fail(ServiceClosedError(message))
        if self.breaker is not None:
            self.breaker.release()
