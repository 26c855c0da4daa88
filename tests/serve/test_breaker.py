"""Circuit-breaker contracts: trip on a failure burst, shed typed,
half-open probing, recovery, and the degradation ledger trail.

Unit tests drive :class:`CircuitBreaker` directly with a tiny window;
the service-level test scripts a deterministic dispatch-failure burst
(``serve.dispatch`` error rules — ``serve.predict`` faults degrade to
per-case isolation and rarely fail tickets) and walks the breaker
through closed -> open -> half_open -> closed against a live
:class:`PredictionService`.
"""

import time

import pytest

from repro.faults.degrade import default_log, reset_default_log
from repro.faults.plan import FaultPlan, FaultRule, InjectedFaultError
from repro.faults.points import inject
from repro.serve import breaker as breaker_module
from repro.serve.breaker import CircuitBreaker, CircuitOpenError
from repro.serve.config import ServeConfig
from repro.serve.queue import BackpressureError
from repro.serve.service import PredictionService


@pytest.fixture(autouse=True)
def _clean_ledger():
    reset_default_log()
    yield
    reset_default_log()


def test_starts_closed_and_successes_keep_it_closed():
    breaker = CircuitBreaker(window=8, min_requests=4)
    for _ in range(20):
        breaker.allow()
        breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.stats()["trips"] == 0


def test_no_trip_below_min_requests():
    breaker = CircuitBreaker(window=8, min_requests=4)
    breaker.record_failure(RuntimeError("one"))
    breaker.record_failure(RuntimeError("two"))
    assert breaker.state == "closed"  # 100% failure, but only 2 observed


def test_trips_open_and_sheds_typed():
    breaker = CircuitBreaker(window=8, min_requests=4,
                             cooldown_s=60.0)
    for index in range(4):
        breaker.record_failure(RuntimeError(f"boom {index}"))
    assert breaker.state == "open"
    with pytest.raises(CircuitOpenError) as excinfo:
        breaker.allow()
    assert excinfo.value.failure_rate == 1.0
    assert excinfo.value.retry_after_s > 0
    assert "shed" in str(excinfo.value)
    assert breaker.stats()["shed"] == 1
    counts = default_log().counts()
    assert counts.get("serve.breaker: closed->open") == 1


def test_half_open_probe_success_closes_and_clears_window():
    breaker = CircuitBreaker(window=8, min_requests=4, cooldown_s=0.05)
    for _ in range(4):
        breaker.record_failure(RuntimeError("boom"))
    time.sleep(0.08)
    assert breaker.state == "half_open"
    breaker.allow()                      # the probe slot
    with pytest.raises(CircuitOpenError):
        breaker.allow()                  # no second probe slot
    breaker.record_success()
    assert breaker.state == "closed"
    # window cleared on close: the old failures cannot instantly re-trip
    assert breaker.failure_rate() == 0.0
    breaker.record_failure(RuntimeError("late"))
    assert breaker.state == "closed"
    counts = default_log().counts()
    assert counts.get("serve.breaker: open->half_open") == 1
    assert counts.get("serve.breaker: half_open->closed") == 1


def test_half_open_probe_failure_reopens():
    breaker = CircuitBreaker(window=8, min_requests=4,
                             cooldown_s=0.05)
    for _ in range(4):
        breaker.record_failure(RuntimeError("boom"))
    time.sleep(0.08)
    breaker.allow()
    breaker.record_failure(RuntimeError("probe died too"))
    assert breaker.state == "open"
    assert breaker.stats()["trips"] == 2


def test_release_returns_probe_slot_instead_of_leaking_it():
    """A probe admission that resolves through a breaker-exempt path
    (shed at the queue, deadline-expired, shutdown) records no outcome;
    release() must hand the slot back or half-open wedges forever."""
    breaker = CircuitBreaker(window=8, min_requests=4, cooldown_s=0.05)
    breaker.release()                    # no-op while closed
    assert breaker.state == "closed"
    for _ in range(4):
        breaker.record_failure(RuntimeError("boom"))
    time.sleep(0.08)
    assert breaker.state == "half_open"
    breaker.allow()                      # the probe slot
    with pytest.raises(CircuitOpenError):
        breaker.allow()
    breaker.release()                    # exempt outcome: slot given back
    assert breaker.stats()["probes_inflight"] == 0
    breaker.allow()                      # a fresh probe is admitted
    breaker.record_success()
    assert breaker.state == "closed"


def test_leaked_probe_slot_rearms_after_probe_timeout(monkeypatch):
    """Backstop: even if a release() call is missed entirely, the
    half-open state must re-arm its probe slots after the probe timeout
    instead of shedding every future request until restart."""
    monkeypatch.setattr(breaker_module, "PROBE_TIMEOUT_S", 0.05)
    breaker = CircuitBreaker(window=8, min_requests=4, cooldown_s=0.01)
    assert breaker.probe_timeout_s == 0.05
    for _ in range(4):
        breaker.record_failure(RuntimeError("boom"))
    time.sleep(0.04)
    breaker.allow()                      # slot consumed, outcome lost
    with pytest.raises(CircuitOpenError):
        breaker.allow()
    time.sleep(0.08)                     # > the probe timeout
    breaker.allow()                      # re-armed, not wedged
    breaker.record_success()
    assert breaker.state == "closed"
    events = default_log().events("serve.breaker")
    assert any("re-arming" in event.reason for event in events)


def test_backpressure_after_probe_admission_does_not_wedge_breaker(
        serve_spec, serve_cases):
    """The review wedge scenario end to end: BackpressureError raised by
    the queue right after allow() granted the half-open probe must give
    the slot back, keeping future probes admissible."""
    config = ServeConfig(workers=1, queue_capacity=1, breaker_enabled=True,
                         breaker_window=8, breaker_min_requests=4,
                         breaker_cooldown_s=0.05)
    # not started on purpose: admission works pre-start, so the single
    # queue slot can be filled deterministically
    service = PredictionService(serve_spec, config)
    try:
        service.submit(serve_cases[0])       # occupies the only slot
        for _ in range(4):
            service.breaker.record_failure(RuntimeError("boom"))
        assert service.breaker.state == "open"
        time.sleep(0.08)
        assert service.breaker.state == "half_open"
        for _ in range(3):  # every attempt hits the full queue, exempt
            with pytest.raises(BackpressureError):
                service.submit(serve_cases[1])
            assert service.breaker.stats()["probes_inflight"] == 0
    finally:
        service.stop()


def test_forced_trip_opens_regardless_of_window():
    breaker = CircuitBreaker(cooldown_s=60.0)
    breaker.record_success()
    breaker.trip("online audit divergence")
    assert breaker.state == "open"
    events = default_log().events("serve.breaker")
    assert any("forced open" in event.reason for event in events)


def test_validation():
    for kwargs in ({"window": 0}, {"min_requests": 0}, {"cooldown_s": -1.0}):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


def test_service_breaker_trips_sheds_and_recovers(serve_spec, serve_cases):
    """Full service arc on a scripted burst: four dispatch failures trip
    the breaker, submits are shed typed while open, and the cooled-down
    probe request closes it again — every transition on the ledger."""
    config = ServeConfig(workers=1, queue_capacity=16, max_batch=1,
                         batch_window_s=0.0, breaker_enabled=True,
                         breaker_window=8, breaker_min_requests=4,
                         breaker_cooldown_s=1.0)
    plan = FaultPlan(seed=9, rules=[
        FaultRule(point="serve.dispatch", action="error", at=(1, 2, 3, 4),
                  note="scripted dispatch burst")])
    with inject(plan):
        with PredictionService(serve_spec, config) as service:
            for index in range(4):
                ticket = service.submit(serve_cases[index % len(serve_cases)])
                with pytest.raises(InjectedFaultError):
                    ticket.result(30.0)
            # the scheduler fails the ticket *before* it records on the
            # breaker; give that last record a beat to land
            deadline = time.perf_counter() + 5.0
            while service.breaker.state != "open" \
                    and time.perf_counter() < deadline:
                time.sleep(0.005)
            assert service.breaker.state == "open"
            assert service.health().state == "unhealthy"
            with pytest.raises(CircuitOpenError):
                service.submit(serve_cases[0])
            time.sleep(1.1)              # cooldown -> half_open
            probe = service.submit(serve_cases[0])  # the probe slot
            probe.result(60.0)           # rule exhausted: probe succeeds
            assert service.breaker.state == "closed"
            stats = service.stats()
    assert stats["failed"] == 4
    assert stats["shed"] == 1
    assert stats["breaker"]["trips"] == 1
    counts = default_log().counts()
    assert counts.get("serve.breaker: closed->open") == 1
    assert counts.get("serve.breaker: open->half_open") == 1
    assert counts.get("serve.breaker: half_open->closed") == 1
