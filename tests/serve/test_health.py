"""HealthMonitor contracts: heartbeat freshness, the state rollup,
versioned snapshots, and the transition timeline.

Pure-unit by design — the monitor is driven directly, with tiny
``stale_after_s`` budgets so staleness is provable with short sleeps.
The forged-stall path (an armed ``serve.heartbeat`` error rule eating
beats) is exercised here too, because that is the mechanism the chaos
soaks use to fake a hung worker without actually hanging one.
"""

import json
import time

import pytest

from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.points import inject
from repro.serve import health as health_module
from repro.serve.health import (
    HEALTH_TIMELINE_FORMAT,
    HealthMonitor,
    WORKER_STATES,
)


def test_fresh_worker_is_healthy_and_versions_advance():
    monitor = HealthMonitor(stale_after_s=5.0)
    monitor.register("thread-0")
    first = monitor.snapshot()
    second = monitor.snapshot()
    assert first.state == "healthy"
    assert first.workers[0].worker == "thread-0"
    assert first.workers[0].state == "healthy"
    assert second.version == first.version + 1


def test_stale_beat_degrades_and_a_beat_recovers():
    monitor = HealthMonitor(stale_after_s=0.05)
    monitor.register("thread-0")
    time.sleep(0.12)
    stale = monitor.snapshot()
    assert stale.workers[0].state == "degraded"
    assert stale.state == "degraded"
    assert "no heartbeat" in stale.workers[0].note
    assert monitor.beat("thread-0") is True
    assert monitor.snapshot().state == "healthy"


def test_stalled_is_unhealthy_until_recovered():
    monitor = HealthMonitor(stale_after_s=60.0)
    monitor.register("thread-0")
    monitor.mark_stalled("thread-0", note="batch over budget")
    snap = monitor.snapshot()
    assert snap.workers[0].state == "unhealthy"
    assert snap.workers[0].stalled
    assert snap.state == "unhealthy"
    monitor.mark_recovered("thread-0")
    assert monitor.snapshot().state == "healthy"


def test_no_workers_and_removed_workers():
    monitor = HealthMonitor(stale_after_s=1.0)
    assert monitor.snapshot().state == "unhealthy"
    assert monitor.snapshot().detail == "no live workers"
    monitor.register("process-0")
    assert monitor.snapshot().state == "healthy"
    monitor.remove("process-0", note="exitcode -9")
    after = monitor.snapshot()
    assert after.state == "unhealthy"
    assert after.deaths == 1
    assert after.workers == ()


def test_breaker_state_feeds_the_rollup():
    monitor = HealthMonitor(stale_after_s=60.0)
    monitor.register("thread-0")
    assert monitor.snapshot(breaker="closed").state == "healthy"
    assert monitor.snapshot(breaker="half_open").state == "degraded"
    assert monitor.snapshot(breaker="open").state == "unhealthy"
    assert monitor.snapshot(breaker="open").detail == "circuit breaker open"


def test_pool_failure_dominates_everything():
    monitor = HealthMonitor(stale_after_s=60.0)
    monitor.register("thread-0")
    snap = monitor.snapshot(pool_failed="respawns exhausted")
    assert snap.state == "unhealthy"
    assert "pool failed" in snap.detail


def test_beats_for_unknown_workers_are_rejected():
    monitor = HealthMonitor(stale_after_s=1.0)
    assert monitor.beat("never-registered") is False


def test_forged_stall_suppresses_beats_only_while_armed():
    monitor = HealthMonitor(stale_after_s=10.0)
    monitor.register("thread-0")
    plan = FaultPlan(seed=7, rules=[
        FaultRule(point="serve.heartbeat", action="error", probability=1.0,
                  note="forged stall: eat every heartbeat")])
    with inject(plan):
        assert monitor.beat("thread-0") is False
        assert monitor.beat("thread-0") is False
    assert monitor.beat("thread-0") is True
    snap = monitor.snapshot()
    assert snap.suppressed_beats == 2
    assert snap.workers[0].beats == 1


def test_timeline_records_transitions_and_is_versioned_json():
    monitor = HealthMonitor(stale_after_s=60.0)
    monitor.register("thread-0")
    monitor.mark_stalled("thread-0")
    monitor.mark_recovered("thread-0")
    monitor.remove("thread-0")
    timeline = monitor.timeline()
    transitions = [(event["subject"], event["to"]) for event in timeline]
    assert ("thread-0", "healthy") in transitions      # registration
    assert ("thread-0", "unhealthy") in transitions    # stall
    assert ("thread-0", "removed") in transitions
    payload = json.loads(monitor.timeline_json())
    assert payload["format"] == HEALTH_TIMELINE_FORMAT
    assert payload["transitions"] == timeline
    for event in payload["transitions"]:
        assert event["t_s"] >= 0.0


def test_timeline_is_bounded(monkeypatch):
    monkeypatch.setattr(health_module, "TIMELINE_CAP", 8)
    monitor = HealthMonitor(stale_after_s=60.0)
    monitor.register("thread-0")
    for _ in range(20):
        monitor.mark_stalled("thread-0")
        monitor.mark_recovered("thread-0")
    assert len(monitor.timeline()) == 8


def test_summary_is_light_and_does_not_bump_version():
    monitor = HealthMonitor(stale_after_s=60.0)
    monitor.register("thread-0")
    monitor.register("thread-1")
    monitor.mark_stalled("thread-1")
    before = monitor.snapshot().version
    summary = monitor.summary()
    assert summary["workers"]["healthy"] == 1
    assert summary["workers"]["unhealthy"] == 1
    assert set(summary["workers"]) == set(WORKER_STATES)
    assert monitor.snapshot().version == before + 1  # summary cost nothing


def test_summary_state_is_fresh_not_snapshot_cache():
    """summary()'s service state is computed from the live per-worker
    records, never echoed from the last snapshot(): a stats() poll must
    not say "healthy" next to all-stalled worker counts just because
    nobody called health() since the stall."""
    monitor = HealthMonitor(stale_after_s=60.0)
    monitor.register("thread-0")
    assert monitor.snapshot().state == "healthy"  # caches "healthy"
    monitor.mark_stalled("thread-0")
    assert monitor.summary()["state"] == "unhealthy"
    monitor.mark_recovered("thread-0")
    assert monitor.summary()["state"] == "healthy"
    # breaker / pool inputs participate in the rollup, as in snapshot()
    assert monitor.summary(breaker="open")["state"] == "unhealthy"
    assert monitor.summary(breaker="half_open")["state"] == "degraded"
    assert monitor.summary(
        pool_failed="respawns exhausted")["state"] == "unhealthy"
    assert HealthMonitor().summary()["state"] == "unhealthy"  # no workers


def test_validation():
    with pytest.raises(ValueError):
        HealthMonitor(stale_after_s=0.0)
