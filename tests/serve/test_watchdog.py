"""Hung-worker watchdog contracts, thread and process flavours.

Thread workers cannot be force-killed, so their watchdog is *detect +
fail loudly*: the over-budget batch fails with
:class:`WorkerStalledError`, the thread is flagged unhealthy, and — if
the wedged forward eventually returns — the recovery is recorded and
the thread rejoins service.  Process workers *are* force-killed
(SIGKILL) and the orphaned batch rides the normal PR 8
backoff/re-dispatch/respawn path, so batch-mates recover bit-identically
on the replacement worker.

Stalls are forged deterministically: a ``serve.predict`` delay rule
wedges a thread forward, and the ``("sleep", s)`` worker-protocol chaos
hook occupies a process worker.  The forged *heartbeat* stall (a
``serve.heartbeat`` error rule eating beats) exercises the degraded
health rollup without hanging anything.
"""

import time

import numpy as np
import pytest

from repro.faults.degrade import default_log, reset_default_log
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.points import inject
from repro.serve.config import ServeConfig
from repro.serve.queue import ServeError, WorkerStalledError
from repro.serve import worker as worker_module
from repro.serve.service import PredictionService


@pytest.fixture(autouse=True)
def _clean_ledger():
    reset_default_log()
    yield
    reset_default_log()


def _wait_for(predicate, timeout_s=30.0):
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def test_thread_stall_fails_typed_then_recovers(serve_spec, serve_cases):
    config = ServeConfig(workers=1, queue_capacity=16, max_batch=4,
                         batch_window_s=0.0, watchdog_s=0.15,
                         heartbeat_s=0.02, stale_after_s=30.0,
                         breaker_enabled=False)
    plan = FaultPlan(seed=3, rules=[
        FaultRule(point="serve.predict", action="delay", seconds=0.8,
                  at=(1,), note="wedge the first forward")])
    with inject(plan):
        with PredictionService(serve_spec, config) as service:
            ticket = service.submit(serve_cases[0])
            with pytest.raises(WorkerStalledError) as excinfo:
                ticket.result(30.0)
            assert "watchdog" in str(excinfo.value)
            assert "cannot be killed" in str(excinfo.value)
            # the thread is still wedged: flagged unhealthy, not replaced
            snap = service.health()
            assert snap.state == "unhealthy"
            assert snap.workers[0].stalled
            # the delayed forward returns -> recovery is recorded and the
            # thread rejoins service (its late result is a no-op)
            assert _wait_for(lambda: any(
                event.to_mode == "recovered"
                for event in default_log().events("serve.watchdog")))
            assert _wait_for(
                lambda: service.health().state == "healthy")
            follow_up = service.predict(serve_cases[1], timeout=60.0)
    direct, _ = serve_spec.build().predict_case(serve_cases[1])
    assert np.array_equal(follow_up.prediction, direct)
    stalls = [event for event in default_log().events("serve.watchdog")
              if event.to_mode == "stalled"]
    assert len(stalls) == 1
    assert stalls[0].from_mode == "thread-0"


def _kind_config(worker_kind, **overrides):
    base = dict(workers=1, worker_kind=worker_kind, queue_capacity=16,
                max_batch=4, batch_window_s=0.0,
                heartbeat_s=0.02, stale_after_s=30.0, breaker_enabled=False)
    base.update(overrides)
    return ServeConfig(**base)


def _occupy_sole_worker(service, sleep_s=60.0):
    worker = next(iter(service.pool._workers.values()))
    worker.inbox.put(("sleep", sleep_s))
    return worker


def _wait_dispatched(pool, timeout_s=30.0):
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        with pool._lock:
            if pool._outstanding:
                return
        time.sleep(0.01)
    raise AssertionError("batch never dispatched")  # pragma: no cover


def test_process_watchdog_kills_and_redispatches(serve_spec, serve_cases):
    """The sole worker hangs (sleep hook) with a batch dispatched behind
    the hang: the watchdog SIGKILLs it within budget and the batch
    recovers bit-identically on the respawned worker (attempts == 2)."""
    config = ServeConfig(workers=1, worker_kind="process",
                         queue_capacity=16, max_batch=4, batch_window_s=0.0,
                         retries=1, watchdog_s=0.8, heartbeat_s=0.05,
                         stale_after_s=30.0, breaker_enabled=False,
                         backoff_base_s=0.02, backoff_cap_s=0.1)
    with PredictionService(serve_spec, config) as service:
        hung = _occupy_sole_worker(service)
        ticket = service.submit(serve_cases[0])
        _wait_dispatched(service.pool)
        result = ticket.result(timeout=180.0)
        assert result.attempts == 2          # one kill, one success
        assert result.worker != hung.name    # served by the replacement
        snap = service.health()
        assert snap.deaths == 1
    direct, _ = serve_spec.build().predict_case(serve_cases[0])
    assert np.array_equal(result.prediction, direct)
    kills = [event for event in default_log().events("serve.watchdog")
             if event.to_mode == "killed"]
    assert len(kills) == 1
    assert kills[0].from_mode == hung.name
    respawns = default_log().events("serve.pool")
    assert any("watchdog-killed" in event.reason for event in respawns)


def test_process_watchdog_without_retries_fails_typed(serve_spec,
                                                      serve_cases):
    config = ServeConfig(workers=1, worker_kind="process",
                         queue_capacity=16, max_batch=4, batch_window_s=0.0,
                         retries=0, watchdog_s=0.8, heartbeat_s=0.05,
                         stale_after_s=30.0, breaker_enabled=False)
    with PredictionService(serve_spec, config) as service:
        _occupy_sole_worker(service)
        ticket = service.submit(serve_cases[0])
        _wait_dispatched(service.pool)
        with pytest.raises(WorkerStalledError) as excinfo:
            ticket.result(timeout=180.0)
        message = str(excinfo.value)
        assert "hung past" in message
        assert "force-killed" in message
        assert "retries" in message
        # the pool respawned a replacement: the service still serves
        follow_up = service.predict(serve_cases[1], timeout=180.0)
    direct, _ = serve_spec.build().predict_case(serve_cases[1])
    assert np.array_equal(follow_up.prediction, direct)


def test_forged_heartbeat_stall_degrades_then_recovers(serve_spec):
    """Eating heartbeats (the ``serve.heartbeat`` error rule) must read
    as *degraded* — quiet, not proven hung — and clear on its own once
    beats resume."""
    config = ServeConfig(workers=1, queue_capacity=4, heartbeat_s=0.02,
                         stale_after_s=0.1, breaker_enabled=False)
    with PredictionService(serve_spec, config) as service:
        assert _wait_for(lambda: service.health().state == "healthy")
        plan = FaultPlan(seed=5, rules=[
            FaultRule(point="serve.heartbeat", action="error",
                      probability=1.0, note="forge a stall")])
        with inject(plan):
            assert _wait_for(
                lambda: service.health().state == "degraded", timeout_s=10.0)
            snap = service.health()
            assert snap.suppressed_beats > 0
            assert snap.workers[0].state == "degraded"
            assert not snap.workers[0].stalled  # quiet, not proven hung
        # plan disarmed: beats resume and health self-clears
        assert _wait_for(lambda: service.health().state == "healthy",
                         timeout_s=10.0)


def _die_twice(service, serve_spec, serve_cases, kill):
    """Kill the sole thread worker of a default-config service twice with
    ``MAX_RESPAWNS`` at 1, submitting a case after each death: the first
    is served by the respawn, the second fails typed once the budget is
    spent — each within 1 s, where an unreaped death would hang."""
    pool = service.pool
    assert pool._supervisor is None  # no watchdog: nothing polls for deaths
    kill(pool)
    served = service.submit(serve_cases[0]).result(1.0)
    assert served.worker == "thread-1"
    assert pool.failed is None
    kill(pool)
    with pytest.raises(ServeError, match="respawns exhausted"):
        service.submit(serve_cases[1]).result(1.0)
    assert service.health().state == "unhealthy"
    direct, _ = serve_spec.build().predict_case(serve_cases[0])
    assert np.array_equal(served.prediction, direct)


def test_respawn_budget_exhaustion_fails_the_pool(serve_spec, serve_cases,
                                                  monkeypatch):
    """A thread worker whose loop returns (``("stop",)`` on its inbox) is
    reaped on the default config; one death past ``MAX_RESPAWNS`` fails
    the pool, and the ledger records ``serve.pool: respawn->failed``."""
    monkeypatch.setattr(worker_module, "MAX_RESPAWNS", 1)

    def stop_the_worker(pool):
        (worker,) = pool._workers.values()
        worker.inbox.put(("stop",))
        # the next submit follows the reap; a death with a batch in
        # flight is the handler-fault test's
        assert _wait_for(lambda: worker.id not in pool._workers, 1.0)

    with PredictionService(serve_spec, ServeConfig(workers=1)) as service:
        _die_twice(service, serve_spec, serve_cases, stop_the_worker)
    counts = default_log().counts()
    assert counts.get("serve.pool: thread-0->respawn") == 1
    assert counts.get("serve.pool: respawn->failed") == 1


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_handler_fault_kills_and_reaps_a_thread_worker(serve_spec,
                                                       serve_cases,
                                                       monkeypatch):
    """An exception from the pool's message handler on both a batch's
    result and its error report escapes the worker loop and ends the
    thread: the orphaned batch is retried on the respawn."""
    monkeypatch.setattr(worker_module, "MAX_RESPAWNS", 1)
    handle = worker_module.WorkerPool._handle
    fail_next = []  # message kinds whose next delivery raises

    def flaky_handle(pool, message):
        if message[0] in fail_next:
            fail_next.remove(message[0])
            raise RuntimeError(f"{message[0]} handler fault")
        handle(pool, message)

    monkeypatch.setattr(worker_module.WorkerPool, "_handle", flaky_handle)
    with PredictionService(serve_spec, ServeConfig(workers=1)) as service:
        _die_twice(service, serve_spec, serve_cases,
                   lambda pool: fail_next.extend(["done", "error"]))
