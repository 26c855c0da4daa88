"""Serving workers: one supervisor over two transports.

A worker is one :class:`~repro.core.pipeline.IRPredictor` built from a
picklable :class:`PredictorSpec` — its own compiled-plan cache, its own
:class:`~repro.infer.arena.BufferArena` workspace slabs, its own
:class:`~repro.train.loader.PreparedCaseCache` — so workers never share
mutable hot-path state.

:class:`WorkerPool` is the one supervisor: dispatch, the hung-worker
watchdog, death handling (retries, backoff re-dispatch, the respawn
budget), the ``failed`` state, stop-time totality, and every
degradation-ledger and health call.  Under it, a private
transport keeps only mechanism:

* **thread** (the default) — in-process threads sharing the spec's
  model.  A thread cannot be killed, so a stalled batch is failed with
  :class:`~repro.serve.queue.WorkerStalledError` and the thread flagged
  until its forward returns.  A thread that exits reaps itself on its
  way out, so a death is handled without a supervisor thread.  On the
  single-core reference box process fan-out buys nothing;
  micro-batching is the throughput lever.
* **process** — OS processes started with ``spawn`` (the start method
  that never forks the threaded parent), each with a private model copy.  A stalled
  worker is SIGKILLed; a dead worker's batch is re-dispatched up to
  ``retries`` times, then failed with
  :class:`~repro.serve.queue.WorkerDiedError`.

Weights are whatever ``spec.model`` holds when the pool starts; a
respawned worker is built from the same spec.
"""

from __future__ import annotations

import itertools
import queue as _stdlib_queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.pipeline import IRPredictor
from repro.faults.backoff import BackoffPolicy
from repro.faults.degrade import record as record_degradation
from repro.faults.points import fault_point, maybe_corrupt
from repro.nn.module import Module
from repro.serve.config import ServeConfig
from repro.serve.guard import IntegrityError, OutputGuard, prediction_digest
from repro.serve.health import HealthMonitor
from repro.serve.queue import (
    PredictionFailedError,
    PredictionRequest,
    ServeError,
    ServeResult,
    ServiceClosedError,
    WorkerDiedError,
    WorkerStalledError,
)
from repro.train.loader import CasePreprocessor

__all__ = ["PredictorSpec", "WorkerPool"]

#: worker respawns before the pool declares itself failed
MAX_RESPAWNS = 8

ResultCallback = Callable[[PredictionRequest, ServeResult], None]
FailureCallback = Callable[[BaseException], None]


@dataclass
class PredictorSpec:
    """Picklable recipe for building a worker-local predictor.

    Thread workers call :meth:`build` in-process (sharing ``model``);
    process workers receive the spec over the spawn pickle and build a
    private copy.  ``kwargs`` are forwarded to
    :class:`~repro.core.pipeline.IRPredictor` (``engine``,
    ``infer_dtype``, ``prep_cache``, ``tta_samples`` ...); the prep cache
    must be given as a *size*, never a live cache object, so workers
    cannot share one.
    """

    model: Module
    preprocessor: CasePreprocessor
    name: str = "model"
    kwargs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cache = self.kwargs.get("prep_cache")
        if cache is not None and not isinstance(cache, (bool, int)):
            raise ValueError(
                "PredictorSpec prep_cache must be a size (int/bool), not a "
                "shared cache instance — each worker owns its own cache")

    def build(self, group_size: Optional[int] = None) -> IRPredictor:
        kwargs = dict(self.kwargs)
        kwargs.setdefault("prep_cache", 64)
        if group_size is not None:
            # one micro-batch should be one forward: the scheduler's
            # max_batch, not the predictor default, bounds group size
            kwargs["group_size"] = max(
                int(kwargs.get("group_size", 0) or 0), int(group_size))
        return IRPredictor(self.model, self.preprocessor, name=self.name,
                           **kwargs)

    @classmethod
    def from_predictor(cls, predictor: IRPredictor) -> "PredictorSpec":
        """Spec reproducing an existing predictor's configuration."""
        cache = predictor.prep_cache
        return cls(
            model=predictor.model,
            preprocessor=predictor.preprocessor,
            name=predictor.name,
            kwargs={
                "tta_samples": predictor.tta_samples,
                "tta_sigma": predictor.tta_sigma,
                "tta_seed": predictor.tta_seed,
                "batched": predictor.batched,
                "group_size": predictor.group_size,
                "engine": predictor.engine_mode,
                "infer_dtype": predictor.infer_dtype,
                "prep_cache": None if cache is None else cache.maxsize,
            },
        )


def _batch_entries(predictor: IRPredictor, cases) -> list:
    """Run one micro-batch; on failure, isolate the guilty case(s).

    Returns one tagged entry per case — ``("ok", prediction, tat,
    digest)`` or ``("fail", message)``.  The digest is the prediction's
    content checksum taken *here*, next to the forward, so the integrity
    guard at fulfilment can prove the bytes survived the trip back (IPC
    pickling for process workers, the ``serve.guard`` corruption point
    in chaos runs).  The fast path is a single ``predict_many``; if that
    raises, each case is retried alone so one malformed request cannot
    poison the innocent requests coalesced with it.
    """
    try:
        # inside the try on purpose: an injected fault here degrades to
        # the per-case isolation path below instead of killing the
        # worker loop
        fault_point("serve.predict")
        return [("ok", prediction, float(tat), prediction_digest(prediction))
                for prediction, tat in predictor.predict_many(cases)]
    except Exception:
        entries = []
        for case in cases:
            try:
                prediction, tat = predictor.predict_case(case)
                entries.append(("ok", prediction, float(tat),
                                prediction_digest(prediction)))
            except Exception as error:
                entries.append(
                    ("fail", f"{type(error).__name__}: {error}"))
        return entries


def _fail_batch(batch: List[PredictionRequest], error: BaseException,
                on_failure: Optional[FailureCallback] = None) -> None:
    """Fail every still-unresolved ticket in a batch.

    Shutdown and reaping can race a normal resolution (e.g. a batch
    completes while ``stop`` sweeps it); already-done tickets keep their
    first outcome rather than tripping :class:`TicketStateError`.
    """
    for request in batch:
        if not request.ticket.done():
            request.ticket.fail(error)
            if on_failure is not None:
                on_failure(error)


# ----------------------------------------------------------------------
# Worker side: one loop for threads and processes
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, spec: PredictorSpec, group_size: int,
                 inbox, outbox, heartbeat_s: float) -> None:
    """Build the worker's private predictor, then serve its inbox.

    Protocol (supervisor -> worker): ``("predict", batch_id, cases)``,
    ``("sleep", seconds)`` (chaos/testing hook: occupies the worker so
    liveness and watchdog handling can be exercised deterministically),
    ``("stop",)``.
    Worker -> supervisor: ``("ready", wid)``, ``("beat", wid)``
    heartbeats emitted by the idle poll (a hung compute stops them —
    that is the liveness signal, so no side thread may fake them),
    ``("done", wid, batch_id, entries)`` with one tagged entry per case
    (see :func:`_batch_entries`), ``("error", wid, batch_id, text)``.
    """
    predictor = spec.build(group_size=group_size)
    outbox.put(("ready", worker_id))
    while True:
        try:
            message = inbox.get(timeout=heartbeat_s)
        except _stdlib_queue.Empty:
            outbox.put(("beat", worker_id))
            continue
        kind = message[0]
        if kind == "stop":
            return
        if kind == "sleep":
            time.sleep(float(message[1]))
            continue
        _, batch_id, cases = message
        try:
            entries = _batch_entries(predictor, cases)
            outbox.put(("done", worker_id, batch_id, entries))
        except Exception as error:  # catastrophic (pickling, queue ...)
            outbox.put(("error", worker_id, batch_id,
                        f"{type(error).__name__}: {error}"))


def _discard_queue(q) -> None:
    """Release a worker queue whose reader is gone.

    A killed worker leaves its multiprocessing task queue with a
    parent-side feeder thread blocked mid-``send`` (the parent holds a
    read end, so the pipe never breaks); ``cancel_join_thread`` keeps
    interpreter exit from joining that stuck feeder forever.  The
    thread transport's plain queues need no release.
    """
    try:
        q.cancel_join_thread()
        q.close()
    except (AttributeError, OSError, ValueError):  # plain or torn down
        pass


@dataclass
class _Worker:
    """Supervisor-side handle on one worker thread or process."""

    id: int
    name: str
    inbox: object   # FIFO of protocol messages
    runner: object  # threading.Thread or multiprocessing Process
    ready: threading.Event = field(default_factory=threading.Event)


# ----------------------------------------------------------------------
# Transports: mechanism only, no policy
# ----------------------------------------------------------------------
class _ThreadTransport:
    """In-process worker threads sharing the spec's model object.

    Messages reach the supervisor inline, on the worker thread, so a
    batch resolves without a thread hop.  Threads cannot be killed.
    """

    kind = "thread"
    out_of_process = False
    queue_type = _stdlib_queue.Queue

    def __init__(self, pool: "WorkerPool"):
        self.pool = pool
        self.outbox = SimpleNamespace(put=pool._handle)

    def runner(self, target, args, **kwargs) -> threading.Thread:
        """A worker thread that reports its own exit, returned or raised,
        so no background thread has to poll for it."""
        def run() -> None:
            try:
                target(*args)
            finally:
                # the thread is still alive here: name the exiting worker
                self.pool._reap_dead(exited=args[0])
        return threading.Thread(target=run, **kwargs)

    def pump(self, timeout: float) -> None:
        self.pool._halt.wait(timeout)  # messages arrive inline


class _ProcessTransport:
    """Spawned worker processes, each with a private model copy."""

    kind = "process"
    # results arrive only through the pump; a stalled worker is killed
    out_of_process = True

    def __init__(self, pool: "WorkerPool"):
        import multiprocessing

        self.pool = pool
        context = multiprocessing.get_context("spawn")
        self.queue_type = context.Queue
        self.runner = context.Process
        self.outbox = context.Queue()

    def pump(self, timeout: float) -> None:
        """Route every result message that arrives within ``timeout``."""
        try:
            message = self.outbox.get(timeout=timeout)
            while True:
                self.pool._handle(message)
                message = self.outbox.get_nowait()
        except _stdlib_queue.Empty:
            pass


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
class WorkerPool:
    """Supervise ``config.workers`` workers of ``config.worker_kind``.

    At most one batch is outstanding per worker, and at most one more
    per live worker waits in the pending deque; beyond that
    :meth:`submit` blocks, which is the scheduler's backpressure and
    what lets micro-batches form behind a busy worker.
    """

    def __init__(self, spec: PredictorSpec, config: ServeConfig,
                 on_result: Optional[ResultCallback] = None,
                 on_failure: Optional[FailureCallback] = None,
                 guard: Optional[OutputGuard] = None,
                 health: Optional[HealthMonitor] = None):
        self.spec = spec
        self.config = config
        self.on_result = on_result
        self.on_failure = on_failure
        self.guard = guard
        self.health = health
        #: why the pool gave up (respawn budget exhausted), else None
        self.failed: Optional[str] = None
        self._lock = threading.Condition()
        self._workers: Dict[int, _Worker] = {}
        self._idle: List[int] = []
        # (ready_at, batch): re-dispatches after a worker death wait out
        # a jittered exponential backoff; first-time submits are ready
        # immediately (ready_at=0)
        self._pending: Deque[Tuple[float, List[PredictionRequest]]] = deque()
        # worker id -> (batch_id, batch, dispatch perf_counter): the
        # timestamp is what the watchdog ages against
        self._outstanding: Dict[
            int, Tuple[int, List[PredictionRequest], float]] = {}
        # worker id -> when the watchdog flagged it
        self._stalled: Dict[int, float] = {}
        self._backoff = BackoffPolicy(base_s=config.backoff_base_s,
                                      cap_s=config.backoff_cap_s)
        self._worker_ids = itertools.count()
        self._batch_ids = itertools.count()
        self._respawns = 0
        self._stopping = False
        self._halt = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        transport = (_ThreadTransport if config.worker_kind == "thread"
                     else _ProcessTransport)
        self._transport = transport(self)

    @property
    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def dispatches_at_once(self) -> bool:
        """True when a batch submitted now would start on a worker at
        once: one is idle and no batch waits ahead of it."""
        with self._lock:
            return bool(self._idle) and not self._pending

    # ------------------------------------------------------------------
    def start(self, ready_timeout: float = 120.0) -> None:
        with self._lock:
            workers = [self._spawn_locked()
                       for _ in range(self.config.workers)]
        if self._transport.out_of_process or self.config.watchdog_s:
            # inline thread results leave an unwatched thread pool no
            # background work, and an idle extra thread costs resident
            # memory (one more malloc arena; measured on serve_recurring)
            self._supervisor = threading.Thread(
                target=self._supervise, name="repro-serve-supervisor",
                daemon=True)
            self._supervisor.start()
        deadline = time.perf_counter() + ready_timeout
        for worker in workers:
            while not worker.ready.wait(0.05):
                if (not worker.runner.is_alive()
                        or time.perf_counter() > deadline):
                    raise ServeError(
                        f"worker {worker.name} died or did not become "
                        f"ready within {ready_timeout}s")

    def _spawn_locked(self) -> _Worker:
        transport, config = self._transport, self.config
        worker_id = next(self._worker_ids)
        name = self._name(worker_id)
        inbox = transport.queue_type()
        runner = transport.runner(
            target=_worker_main, name=f"repro-serve-{name}", daemon=True,
            args=(worker_id, self.spec, config.max_batch, inbox,
                  transport.outbox, config.heartbeat_s))
        runner.start()
        worker = self._workers[worker_id] = _Worker(worker_id, name, inbox,
                                                    runner)
        if self.health is not None:
            self.health.register(name)
        return worker

    def _name(self, worker_id: int) -> str:
        return f"{self._transport.kind}-{worker_id}"

    # ------------------------------------------------------------------
    def submit(self, batch: List[PredictionRequest]) -> None:
        """Queue a micro-batch for the next idle worker (blocks while
        every live worker already has one batch pending)."""
        with self._lock:
            while True:
                if self.failed is not None:
                    raise ServeError(f"worker pool failed: {self.failed}")
                if self._stopping:
                    raise ServiceClosedError("worker pool is stopping")
                if len(self._pending) < max(1, len(self._workers)):
                    break
                self._lock.wait(0.1)
            self._pending.append((0.0, batch))
            self._dispatch_locked()

    def _dispatch_locked(self) -> None:
        now = time.perf_counter()
        index = 0
        while self._idle and index < len(self._pending):
            ready_at, batch = self._pending[index]
            if ready_at > now:
                index += 1  # backoff not elapsed; try the next batch
                continue
            worker = self._workers.get(self._idle.pop(0))
            if worker is None or not worker.runner.is_alive():
                continue  # the reaper will handle it; batch stays pending
            del self._pending[index]
            batch_id = next(self._batch_ids)
            self._outstanding[worker.id] = (batch_id, batch,
                                            time.perf_counter())
            worker.inbox.put(("predict", batch_id,
                              [request.case for request in batch]))

    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        budget = self.config.watchdog_s
        interval = (0.05 if budget is None
                    else max(min(budget / 4.0, 0.05), 0.005))
        while not self._halt.is_set():
            self._transport.pump(interval)
            if self._stopping:
                continue  # stop() owns the teardown; just route results
            self._watchdog_sweep()
            self._reap_dead()
            with self._lock:
                self._dispatch_locked()  # retries whose backoff elapsed

    def _handle(self, message) -> None:
        """Route one worker message (on the supervisor thread for
        processes, inline on the worker thread for threads)."""
        kind, worker_id = message[0], message[1]
        name = self._name(worker_id)
        if kind in ("beat", "ready"):
            if kind == "ready":
                # only a built worker goes idle: dispatching to one still
                # building its model would start the batch's watchdog
                # clock on init time and get a respawn killed in turn
                with self._lock:
                    worker = self._workers.get(worker_id)
                    if worker is not None:
                        worker.ready.set()
                        self._idle.append(worker_id)
                        self._dispatch_locked()
            elif self._pending:
                # an idle worker's beat hands out retries whose backoff
                # has elapsed: no supervisor does on an unwatched thread
                # pool
                with self._lock:
                    self._dispatch_locked()
            if self.health is not None:
                self.health.beat(name)
            return
        with self._lock:
            entry = self._outstanding.get(worker_id)
            if entry is None or entry[0] != message[2]:
                return  # stale: reaped, or swept by stop()
            del self._outstanding[worker_id]
            # a killed worker's stall ends when it is reaped; a thread's
            # ends here, when its wedged forward finally returns
            stalled_at = (None if self._transport.out_of_process
                          else self._stalled.pop(worker_id, None))
            if worker_id in self._workers:
                self._idle.append(worker_id)
            self._dispatch_locked()
            self._lock.notify_all()
        batch = entry[1]
        if stalled_at is not None:
            # the watchdog already failed these tickets, so resolution
            # below is a no-op and the thread rejoins service
            record_degradation(
                "serve.watchdog", name, "recovered",
                f"stalled batch completed after "
                f"{time.perf_counter() - stalled_at:.3f}s; "
                f"thread back in service")
            if self.health is not None:
                self.health.mark_recovered(name)
        if self.health is not None:
            # a completed batch is the strongest liveness proof
            self.health.beat(name)
        if kind == "done":
            self._resolve(batch, message[3], name)
        else:
            _fail_batch(batch, PredictionFailedError(
                f"worker {name} failed: {message[3]}"), self.on_failure)

    def _resolve(self, batch: List[PredictionRequest], entries: list,
                 worker: str) -> None:
        """Fulfil (or fail) each request from its worker entry, re-verifying
        every prediction through the integrity guard first."""
        completed = time.perf_counter()
        for request, entry in zip(batch, entries):
            if request.ticket.done():
                continue  # a shutdown sweep beat this resolution to it
            if entry[0] == "fail":
                error: BaseException = PredictionFailedError(
                    f"worker {worker} failed on {request.case!r}: {entry[1]}")
                _fail_batch([request], error, self.on_failure)
                continue
            _, prediction, tat, digest = entry
            # the chaos corruption point sits on the fulfilment path, between
            # the worker's checksum and the guard's re-verification — exactly
            # where real transport corruption would land
            prediction = maybe_corrupt("serve.guard", prediction)
            if self.guard is not None:
                try:
                    self.guard.check(
                        prediction,
                        case_shape=getattr(request.case, "shape", None),
                        digest=digest,
                        context=f"request {request.id} "
                                f"({request.case.name!r}) via {worker}")
                except IntegrityError as error:
                    _fail_batch([request], error, self.on_failure)
                    continue
            dispatched = (request.dispatched if request.dispatched is not None
                          else request.submitted)
            result = ServeResult(
                prediction=prediction,
                tat_seconds=float(tat),
                latency_seconds=completed - request.submitted,
                queue_seconds=dispatched - request.submitted,
                batch_size=len(batch),
                worker=worker,
                attempts=request.attempts + 1,
            )
            request.ticket.fulfill(result)
            if self.on_result is not None:
                self.on_result(request, result)

    def _watchdog_sweep(self) -> None:
        """Act on batches outstanding past ``config.watchdog_s``: fail
        them in place on a thread, SIGKILL the process otherwise (the
        reaper then routes the batch through backoff/re-dispatch)."""
        budget = self.config.watchdog_s
        if budget is None:
            return
        now = time.perf_counter()
        with self._lock:
            victims = []
            for worker_id, (_, batch, started) in self._outstanding.items():
                age = now - started
                if worker_id not in self._stalled and age > budget:
                    self._stalled[worker_id] = now
                    victims.append((self._workers[worker_id], batch, age))
        for worker, batch, age in victims:
            over = f"batch outstanding {age:.3f}s > watchdog {budget:g}s"
            if self._transport.out_of_process:
                record_degradation("serve.watchdog", worker.name, "killed",
                                   f"{over}; force-killing the hung worker")
                if self.health is not None:
                    self.health.mark_stalled(worker.name,
                                             note=f"{over}; killed")
                worker.runner.kill()
                continue
            record_degradation("serve.watchdog", worker.name, "stalled",
                               f"{over}; thread flagged, batch failed")
            if self.health is not None:
                self.health.mark_stalled(worker.name, note=over)
            _fail_batch(batch, WorkerStalledError(
                f"worker {worker.name} stalled: batch outstanding "
                f"{age:.3f}s exceeds the {budget:g}s watchdog budget "
                f"(thread workers cannot be killed; the batch is "
                f"failed and the thread flagged unhealthy)"),
                self.on_failure)

    def _reap_dead(self, exited: Optional[int] = None) -> None:
        """Retry or fail a dead worker's batch, then respawn it within
        the :data:`MAX_RESPAWNS` budget (past it, the pool fails).

        ``exited`` names a thread worker reporting its own exit: it is
        dead though its thread is still running this call.
        """
        config = self.config
        to_fail: List[Tuple[List[PredictionRequest], BaseException]] = []
        with self._lock:
            if self._stopping:
                return  # a worker exiting on stop() is not a death
            dead = [worker for worker in self._workers.values()
                    if worker.id == exited or not worker.runner.is_alive()]
            if not dead:
                return
            for worker in dead:
                del self._workers[worker.id]  # dispatch drops its idle id
                _discard_queue(worker.inbox)
                stalled = self._stalled.pop(worker.id, None) is not None
                exitcode = getattr(worker.runner, "exitcode", None)
                if self.health is not None:
                    self.health.remove(
                        worker.name,
                        note=("killed by watchdog" if stalled
                              else f"died (exitcode {exitcode})"))
                entry = self._outstanding.pop(worker.id, None)
                if entry is not None:
                    batch = entry[1]
                    for request in batch:
                        request.attempts += 1
                    attempts = batch[0].attempts
                    if attempts > config.retries:
                        death = (WorkerStalledError if stalled
                                 else WorkerDiedError)
                        how = (f"hung past the {config.watchdog_s:g}s "
                               f"watchdog, was force-killed," if stalled
                               else f"died (exitcode {exitcode})")
                        to_fail.append((batch, death(
                            f"worker {worker.name} {how} and retries are "
                            f"exhausted (attempts={attempts}, "
                            f"retries={config.retries})")))
                    else:
                        # retry first, but only after a jittered backoff
                        # keyed on the request id (deterministic per
                        # request, decorrelated across requests)
                        delay = self._backoff.delay(attempts,
                                                    key=batch[0].id)
                        self._pending.appendleft(
                            (time.perf_counter() + delay, batch))
                if self._respawns >= MAX_RESPAWNS:
                    self.failed = (f"{self._respawns} worker respawns "
                                   f"exhausted (crash-looping spec?)")
                    record_degradation("serve.pool", "respawn", "failed",
                                       self.failed)
                else:
                    self._respawns += 1
                    cause = ("watchdog-killed" if stalled
                             else f"exitcode {exitcode}")
                    record_degradation(
                        "serve.pool", worker.name, "respawn",
                        f"{cause}; respawn {self._respawns}/"
                        f"{MAX_RESPAWNS}")
                    self._spawn_locked()
            if self.failed is not None:
                while self._pending:
                    to_fail.append((self._pending.popleft()[1],
                                    ServeError(self.failed)))
            self._dispatch_locked()
            self._lock.notify_all()
        for batch, error in to_fail:
            _fail_batch(batch, error, self.on_failure)

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 5.0) -> None:
        """Stop the pool; every batch it still holds resolves.

        Undispatched batches fail at once.  Workers then get until the
        ``timeout`` deadline to finish what they hold; a batch still
        held after it (a wedged thread cannot be killed; a wedged
        process is terminated) fails with
        :class:`~repro.serve.queue.ServiceClosedError`.  A wedged
        forward that returns later resolves against already-done
        tickets — a no-op.
        """
        with self._lock:
            self._stopping = True
            workers = list(self._workers.values())
            orphans = [batch for _, batch in self._pending]
            self._pending.clear()
            self._lock.notify_all()
        for batch in orphans:
            _fail_batch(batch, ServiceClosedError(
                "service stopped before the batch reached a worker"))
        deadline = time.perf_counter() + timeout
        for worker in workers:
            worker.inbox.put(("stop",))
        for worker in workers:
            worker.runner.join(max(0.0, deadline - time.perf_counter()))
            if self._transport.out_of_process and worker.runner.is_alive():
                worker.runner.kill()
                worker.runner.join(1.0)
            _discard_queue(worker.inbox)
        with self._lock:  # let the last results be routed
            self._lock.wait_for(lambda: not self._outstanding,
                                max(0.0, deadline - time.perf_counter()))
        self._halt.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout)
            self._supervisor = None
        _discard_queue(self._transport.outbox)
        for worker in workers:
            if worker.runner.is_alive():  # a thread cannot be killed
                record_degradation(
                    "serve.pool", worker.runner.name, "wedged",
                    f"{worker.name} still alive {timeout:g}s after stop; "
                    f"failing its in-flight tickets")
        with self._lock:
            held = [(self._name(worker_id), batch)
                    for worker_id, (_, batch, _) in self._outstanding.items()]
            self._outstanding.clear()
            self._stalled.clear()
            self._workers.clear()
            self._idle.clear()
        for name, batch in held:
            _fail_batch(batch, ServiceClosedError(
                f"service stopped while {name} held the batch and the "
                f"worker did not finish within the {timeout:g}s stop "
                f"deadline"))
