"""Admission-control contracts: bounded queue, loud backpressure, and
the ``REPRO_SERVE_*`` config surface.

The ISSUE's acceptance criterion for overload is *deterministic*: a
submit against a queue already holding ``capacity`` requests must raise
:class:`BackpressureError` naming the depth and bound — never block,
never drop silently.  These tests exercise the queue directly (no
threads), so the behaviour is reproducible by construction.
"""

import pytest

from repro.serve.config import ServeConfig
from repro.serve.queue import (
    BackpressureError,
    PredictionRequest,
    PredictionTicket,
    RequestQueue,
    ServiceClosedError,
)


def _request(index):
    return PredictionRequest(id=index, case=None,
                             ticket=PredictionTicket(index, f"case-{index}"))


class TestRequestQueue:
    def test_fifo_and_len(self):
        queue = RequestQueue(capacity=4)
        for index in range(3):
            queue.submit(_request(index))
        assert len(queue) == 3
        assert [queue.pop(timeout=0).id for _ in range(3)] == [0, 1, 2]

    def test_overflow_rejects_loudly_with_reason(self):
        queue = RequestQueue(capacity=2)
        queue.submit(_request(0))
        queue.submit(_request(1))
        with pytest.raises(BackpressureError) as excinfo:
            queue.submit(_request(2))
        assert excinfo.value.depth == 2
        assert excinfo.value.capacity == 2
        assert "2/2" in str(excinfo.value)
        assert "rejected" in str(excinfo.value)
        assert queue.rejected == 1
        # the rejection changed nothing: the queue still drains intact
        assert len(queue) == 2

    def test_overflow_never_blocks(self):
        queue = RequestQueue(capacity=1)
        queue.submit(_request(0))
        # a blocking submit would hang the test here; rejection is
        # immediate by contract
        for _ in range(10):
            with pytest.raises(BackpressureError):
                queue.submit(_request(99))
        assert queue.rejected == 10

    def test_pop_timeout_returns_none(self):
        queue = RequestQueue(capacity=1)
        assert queue.pop(timeout=0.01) is None

    def test_close_refuses_submits_but_drains(self):
        queue = RequestQueue(capacity=4)
        queue.submit(_request(0))
        queue.close()
        with pytest.raises(ServiceClosedError):
            queue.submit(_request(1))
        assert queue.pop(timeout=0).id == 0
        assert queue.pop(timeout=0) is None  # closed + empty: no wait

    def test_drain_pending_empties(self):
        queue = RequestQueue(capacity=4)
        for index in range(3):
            queue.submit(_request(index))
        drained = queue.drain_pending()
        assert [request.id for request in drained] == [0, 1, 2]
        assert len(queue) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RequestQueue(capacity=0)


class TestServeConfig:
    def test_defaults_valid(self):
        config = ServeConfig()
        assert config.workers == 1
        assert config.worker_kind == "thread"

    @pytest.mark.parametrize("field, value", [
        ("workers", 0), ("worker_kind", "fiber"), ("queue_capacity", 0),
        ("max_batch", 0), ("batch_window_s", -1.0), ("retries", -1),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            ServeConfig(**{field: value})

    def test_from_env_reads_every_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "3")
        monkeypatch.setenv("REPRO_SERVE_WORKER_KIND", "process")
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "17")
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "5")
        monkeypatch.setenv("REPRO_SERVE_WINDOW_MS", "7.5")
        monkeypatch.setenv("REPRO_SERVE_RETRIES", "2")
        config = ServeConfig.from_env()
        assert config.workers == 3
        assert config.worker_kind == "process"
        assert config.queue_capacity == 17
        assert config.max_batch == 5
        assert config.batch_window_s == pytest.approx(0.0075)
        assert config.retries == 2

    def test_overrides_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "3")
        config = ServeConfig.from_env(workers=5)
        assert config.workers == 5

    def test_from_env_validates(self, monkeypatch):
        with pytest.raises(TypeError):
            ServeConfig.from_env(window="nope")  # not a knob name
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "0")
        with pytest.raises(ValueError):
            ServeConfig.from_env()
