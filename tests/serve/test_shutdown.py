"""Shutdown totality: every admitted ticket resolves exactly once.

``stop(drain=False)`` races the scheduler's in-flight dispatch on
purpose — the contract is that no ticket leaks (everything is fulfilled
or typed-failed), no resolution happens twice, and the scheduler thread
provably exits.  The signal tests install the real SIGTERM/SIGINT
handlers from ``python -m repro.serve`` and raise the signal at
ourselves: the handler is lock-free (it only raises
:class:`GracefulShutdown` on the interrupted thread — calling ``stop()``
from the handler would deadlock against locks the interrupted frame
holds), and the drain that follows on the clean stack resolves 100% of
admitted tickets and exits 0.
"""

import signal
import time

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.points import inject
from repro.serve.__main__ import GracefulShutdown, install_signal_handlers
from repro.serve.config import ServeConfig
from repro.serve.queue import (
    BackpressureError,
    PredictionRequest,
    PredictionTicket,
    ServiceClosedError,
)
from repro.serve.service import PredictionService
from repro.serve.worker import WorkerPool


def test_stop_without_drain_races_dispatch_without_leaks(serve_spec,
                                                         serve_cases):
    """Fire stop(drain=False) while the scheduler is mid-stream: every
    admitted ticket must resolve exactly once — served, or failed with
    a typed ServiceClosedError — and the scheduler thread must exit."""
    config = ServeConfig(workers=2, queue_capacity=64, max_batch=2,
                         batch_window_s=0.001, breaker_enabled=False)
    for attempt in range(3):  # three races at different phases
        service = PredictionService(serve_spec, config).start()
        tickets = []
        for index in range(24):
            try:
                tickets.append(
                    service.submit(serve_cases[index % len(serve_cases)]))
            except BackpressureError:  # pragma: no cover - capacity 64
                pass
        scheduler = service._scheduler
        assert scheduler is not None and scheduler.is_alive()
        service.stop(drain=False, timeout=60.0)
        assert not scheduler.is_alive()  # provably exited, not leaked
        served = failed = 0
        for ticket in tickets:
            assert ticket.done()  # no leaks: everything resolved
            try:
                result = ticket.result(0.0)
                served += 1
            except ServiceClosedError:
                failed += 1
            # a second read returns the same outcome (exactly-once
            # resolution: the ticket state machine rejects double
            # fulfilment, so a consistent re-read proves no race won
            # twice)
            try:
                again = ticket.result(0.0)
                assert np.array_equal(again.prediction, result.prediction)
            except ServiceClosedError:
                pass
        assert served + failed == len(tickets)
        # double-stop is a no-op, never a second resolution sweep
        service.stop(drain=False)


def test_stop_with_drain_serves_everything_admitted(serve_spec, serve_cases):
    config = ServeConfig(workers=1, queue_capacity=32, max_batch=4,
                         batch_window_s=0.001, breaker_enabled=False)
    service = PredictionService(serve_spec, config).start()
    tickets = [service.submit(case) for case in serve_cases * 3]
    service.stop(drain=True, timeout=120.0)
    results = [ticket.result(0.0) for ticket in tickets]  # all fulfilled
    direct = serve_spec.build()
    references = {case.name: direct.predict_case(case)[0]
                  for case in serve_cases}
    for case, result in zip(serve_cases * 3, results):
        assert np.array_equal(result.prediction, references[case.name])


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_signal_handler_drains_and_exits_zero(serve_spec, serve_cases,
                                              signum, capsys):
    """The handler raises GracefulShutdown (SystemExit, code 0) on the
    interrupted thread; the clean-stack control flow that catches it —
    here the test, in production ``main()`` — runs the drain and
    resolves 100% of admitted tickets."""
    config = ServeConfig(workers=1, queue_capacity=32, max_batch=4,
                         batch_window_s=0.001, breaker_enabled=False)
    service = PredictionService(serve_spec, config).start()
    previous = install_signal_handlers(service)
    try:
        tickets = [service.submit(case) for case in serve_cases]
        with pytest.raises(SystemExit) as excinfo:
            signal.raise_signal(signum)
        assert excinfo.value.code == 0
        assert isinstance(excinfo.value, GracefulShutdown)
        assert excinfo.value.signame == signal.Signals(signum).name
        # the production control flow: drain on the clean stack
        service.stop(drain=True, timeout=120.0)
        # 100% of admitted tickets resolved — all served, none leaked
        results = [ticket.result(0.0) for ticket in tickets]
        assert len(results) == len(tickets)
        err = capsys.readouterr().err
        assert signal.Signals(signum).name in err
        assert "draining admitted requests" in err
        # repeat signals during the drain are ignored, never re-entered
        signal.raise_signal(signum)
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        service.stop()  # idempotent: already stopped above


def test_signal_handler_is_lock_free_under_held_service_locks(serve_spec,
                                                              serve_cases):
    """A signal landing while the main thread holds the service's stats
    lock (exactly what an interrupted ``submit()`` holds) must not
    deadlock: the handler only raises, and the drain succeeds after the
    interrupted frame unwinds and releases the lock."""
    config = ServeConfig(workers=1, queue_capacity=8,
                         breaker_enabled=False)
    service = PredictionService(serve_spec, config).start()
    previous = install_signal_handlers(service)
    try:
        ticket = service.submit(serve_cases[0])
        with pytest.raises(GracefulShutdown):
            with service._stats_lock:
                signal.raise_signal(signal.SIGTERM)
        # before the lock-free handler this stop() deadlocked forever
        # against the lock the interrupted frame was holding
        service.stop(drain=True, timeout=60.0)
        assert ticket.result(0.0) is not None
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        service.stop()


@pytest.mark.parametrize("worker_kind", ["thread", "process"])
def test_thread_pool_stop_fails_wedged_batches(serve_spec, serve_cases,
                                               worker_kind):
    """With the watchdog disabled (the default), a hung worker must
    still not leak its tickets at shutdown: ``WorkerPool.stop`` fails
    whatever a wedged worker holds — and whatever never reached a
    worker — after the join deadline, on either transport."""
    config = ServeConfig(workers=1, worker_kind=worker_kind,
                         queue_capacity=8, max_batch=4,
                         heartbeat_s=0.02, breaker_enabled=False)
    assert config.watchdog_s is None
    pool = WorkerPool(serve_spec, config)
    pool.start()

    def request(index, case):
        return PredictionRequest(id=index, case=case,
                                 ticket=PredictionTicket(index, case.name))

    wedged = [request(0, serve_cases[0])]
    queued = [request(1, serve_cases[1])]
    # a thread forward is wedged by a delay rule; a process worker (out
    # of the parent's fault plan's reach) by the sleep hook ahead of it
    plan = FaultPlan(seed=11, rules=[
        FaultRule(point="serve.predict", action="delay", seconds=2.0,
                  at=(1,), note="wedge the only worker")])
    runner = next(iter(pool._workers.values())).runner
    with inject(plan):
        if worker_kind == "process":
            next(iter(pool._workers.values())).inbox.put(("sleep", 2.0))
        pool.submit(wedged)
        deadline = time.perf_counter() + 30.0
        while not pool._outstanding and time.perf_counter() < deadline:
            time.sleep(0.005)
        assert pool._outstanding     # the worker owns the wedged batch
        pool.submit(queued)          # sits undispatched: worker is busy
        pool.stop(timeout=0.2)       # far below the 2s wedge
    for item in wedged + queued:
        assert item.ticket.done()    # no leaks: everything resolved
        with pytest.raises(ServiceClosedError):
            item.ticket.result(0.0)
    # a wedged thread outlives stop(); let it finish here, so its late
    # forward cannot overlap forwards of the tests that follow
    runner.join(30.0)
    assert not runner.is_alive()


def test_signal_handlers_are_restorable(serve_spec):
    service = PredictionService(serve_spec, ServeConfig(workers=1))
    before_term = signal.getsignal(signal.SIGTERM)
    before_int = signal.getsignal(signal.SIGINT)
    previous = install_signal_handlers(service)
    assert previous[signal.SIGTERM] is before_term
    assert previous[signal.SIGINT] is before_int
    assert signal.getsignal(signal.SIGTERM) is not before_term
    for sig, old in previous.items():
        signal.signal(sig, old)
    assert signal.getsignal(signal.SIGTERM) is before_term
    assert signal.getsignal(signal.SIGINT) is before_int
    service.stop()
