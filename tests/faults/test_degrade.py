"""Degradation ledger."""

import pytest

from repro.faults.degrade import (
    EVENT_WINDOW,
    DegradationLog,
    default_log,
    record,
    reset_default_log,
)


@pytest.fixture(autouse=True)
def _clean_ledger():
    reset_default_log()
    yield
    reset_default_log()


class TestDegradationLog:
    def test_record_and_filter(self):
        log = DegradationLog()
        log.record("solver.precond", "mg", "ic", "no coordinates")
        log.record("infer.engine", "engine", "autograd", "compile failed")
        assert len(log) == 2
        solver_events = log.events("solver.precond")
        assert [e.to_dict() for e in solver_events] == [
            {"component": "solver.precond", "from": "mg", "to": "ic",
             "reason": "no coordinates"}]

    def test_counts_aggregate_identical_descents(self):
        log = DegradationLog()
        for _ in range(3):
            log.record("serve.pool", "process-0", "respawn", "died")
        log.record("solver.precond", "mg", "ic", "x")
        assert log.counts() == {
            "serve.pool: process-0->respawn": 3,
            "solver.precond: mg->ic": 1,
        }

    def test_clear(self):
        log = DegradationLog()
        log.record("a", "b", "c", "d")
        log.clear()
        assert len(log) == 0 and log.counts() == {}

    def test_events_are_a_bounded_ring_and_counts_stay_exact(self):
        log = DegradationLog()
        for index in range(EVENT_WINDOW + 10):
            log.record("serve.breaker", "closed", "open", f"trip {index}")
        log.record("serve.watchdog", "busy", "killed", "stall")
        events = log.events()
        assert len(events) == EVENT_WINDOW
        assert events[0].reason == "trip 11"     # the oldest 11 dropped off
        assert events[-1].component == "serve.watchdog"
        assert log.counts() == {"serve.breaker: closed->open": EVENT_WINDOW + 10,
                                "serve.watchdog: busy->killed": 1}
        assert len(log) == EVENT_WINDOW + 11

    def test_default_ledger_is_shared(self):
        record("infer.engine", "engine", "autograd", "why")
        assert default_log().counts() == {
            "infer.engine: engine->autograd": 1}
