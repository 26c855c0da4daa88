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
hook occupies a process worker.  The same two wedges pin down hot-swap
semantics: a swap pauses dispatch, so nothing ages against the watchdog
while it runs, and it raises :class:`ServeError` when its ``timeout``
passes.  The forged *heartbeat* stall (a
``serve.heartbeat`` error rule eating beats) exercises the degraded
health rollup without hanging anything.
"""

import threading
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
from tests.serve.conftest import perturbed_state


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


@pytest.mark.parametrize("worker_kind", ["thread", "process"])
def test_swap_wait_does_not_count_toward_watchdog(serve_spec, serve_cases,
                                                  worker_kind, monkeypatch):
    """A batch submitted during a slow hot-swap must not age against the
    watchdog budget: dispatch pauses for the swap, so the stall clock
    only starts once the forward can run on the new weights, and a slow
    swap never gets innocent batches failed or healthy workers flagged."""
    # the budget leaves room for the first forward's plan compile
    config = _kind_config(worker_kind, watchdog_s=0.5)
    slow_s = 3 * config.watchdog_s
    state = perturbed_state(serve_spec.model)
    with PredictionService(serve_spec, config) as service:
        if worker_kind == "thread":
            load = serve_spec.model.load_state_dict

            def slow_load(new_state):
                time.sleep(slow_s)
                return load(new_state)

            monkeypatch.setattr(serve_spec.model, "load_state_dict",
                                slow_load)
        else:
            # the child loads its own model copy: the sleep hook queued
            # ahead of the swap message makes that swap just as slow
            _occupy_sole_worker(service, sleep_s=slow_s)
        swapper = threading.Thread(target=service.swap, args=(state,))
        swapper.start()
        assert _wait_for(lambda: service.pool._swapping)
        ticket = service.submit(serve_cases[0])
        swapper.join(30.0)
        assert not swapper.is_alive()
        result = ticket.result(30.0)            # served once the swap ends
    assert result.model_version == 1
    assert [event for event in default_log().events("serve.watchdog")
            if event.to_mode in ("stalled", "killed")] == []


@pytest.mark.parametrize("worker_kind", ["thread", "process"])
def test_swap_timeout_raises_behind_wedged_forward(serve_spec, serve_cases,
                                                   worker_kind):
    """A swap that cannot finish within its ``timeout`` raises
    :class:`ServeError` on time — on both transports — instead of
    blocking for as long as a wedged forward holds its batch."""
    config = _kind_config(worker_kind)
    plan = FaultPlan(seed=7, rules=[
        FaultRule(point="serve.predict", action="delay", seconds=3.0,
                  at=(1,), note="wedge the first forward")])
    with inject(plan):
        with PredictionService(serve_spec, config) as service:
            if worker_kind == "process":
                _occupy_sole_worker(service, sleep_s=3.0)
            ticket = service.submit(serve_cases[0])
            _wait_dispatched(service.pool)
            started = time.perf_counter()
            with pytest.raises(ServeError, match="timed out"):
                service.swap(perturbed_state(serve_spec.model), timeout=0.3)
            assert time.perf_counter() - started < 1.0
            result = ticket.result(60.0)
    assert result.model_version == 0            # the old weights served


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


def test_respawn_budget_exhaustion_fails_the_pool(serve_spec, serve_cases,
                                                  monkeypatch):
    """One death past ``MAX_RESPAWNS`` fails the pool: the batch the dead
    worker left behind fails with ``ServeError``, health reads
    unhealthy, and the ledger records ``serve.pool: respawn->failed``."""
    monkeypatch.setattr(worker_module, "MAX_RESPAWNS", 1)
    # a watchdog budget starts the supervisor, which reaps thread deaths
    config = _kind_config("thread", watchdog_s=30.0)
    with PredictionService(serve_spec, config) as service:
        pool = service.pool

        def kill_the_worker():
            (worker,) = pool._workers.values()
            # the worker loop returns as on stop(): a death to the reaper
            worker.inbox.put(("stop",))

        kill_the_worker()
        assert _wait_for(lambda: pool._respawns == 1 and pool._workers,
                         10.0)
        assert pool.failed is None
        kill_the_worker()
        ticket = service.submit(serve_cases[0])
        with pytest.raises(ServeError, match="respawns exhausted"):
            ticket.result(10.0)
        assert pool.failed is not None
        assert service.health().state == "unhealthy"
    counts = default_log().counts()
    assert counts.get("serve.pool: thread-0->respawn") == 1
    assert counts.get("serve.pool: respawn->failed") == 1
