"""Per-request deadlines and the strict ticket state machine."""

import re
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    DeadlineExceededError,
    PredictionService,
    ServeConfig,
    ServeResult,
    TicketStateError,
)
from repro.serve.queue import PredictionTicket


def _result():
    return ServeResult(prediction=np.zeros((2, 2)), tat_seconds=0.01,
                       latency_seconds=0.02, queue_seconds=0.0,
                       batch_size=1, worker="thread-0", attempts=1)


class TestTicketStateMachine:
    def test_fulfill_after_fail_is_refused(self):
        ticket = PredictionTicket(7, "case-a")
        ticket.fail(RuntimeError("worker died"))
        with pytest.raises(TicketStateError, match="already failed"):
            ticket.fulfill(_result())
        # the original outcome is preserved
        with pytest.raises(RuntimeError, match="worker died"):
            ticket.result(timeout=0.0)

    def test_fail_after_fulfill_is_refused(self):
        ticket = PredictionTicket(8, "case-b")
        ticket.fulfill(_result())
        with pytest.raises(TicketStateError, match="already fulfilled"):
            ticket.fail(RuntimeError("late failure"))
        assert ticket.result(timeout=0.0).attempts == 1

    def test_double_fulfill_is_refused(self):
        ticket = PredictionTicket(9, "case-c")
        ticket.fulfill(_result())
        with pytest.raises(TicketStateError):
            ticket.fulfill(_result())

    def test_timeout_error_carries_request_context(self):
        ticket = PredictionTicket(41, "chaos-case")
        ticket._context = lambda: "queue_depth=5, workers=2, served=7"
        with pytest.raises(TimeoutError) as exc_info:
            ticket.result(timeout=0.0)
        message = str(exc_info.value)
        assert "41" in message
        assert "chaos-case" in message
        assert "queue_depth=5" in message

    def test_timeout_without_context_still_names_the_request(self):
        ticket = PredictionTicket(42, "plain")
        with pytest.raises(TimeoutError, match=r"request 42 \('plain'\)"):
            ticket.result(timeout=0.0)

    def test_broken_context_does_not_mask_the_timeout(self):
        ticket = PredictionTicket(43, "case")

        def broken():
            raise RuntimeError("stats are down too")
        ticket._context = broken
        with pytest.raises(TimeoutError, match="request 43"):
            ticket.result(timeout=0.0)


class TestServeConfigDeadline:
    def test_defaults_have_no_deadline(self):
        config = ServeConfig()
        assert config.deadline_s is None

    def test_env_deadline_ms(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "250")
        assert ServeConfig.from_env().deadline_s == pytest.approx(0.25)

    def test_env_zero_or_empty_means_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "0")
        assert ServeConfig.from_env().deadline_s is None
        monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "")
        assert ServeConfig.from_env().deadline_s is None

    def test_env_backoff_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_BACKOFF_BASE_MS", "5")
        monkeypatch.setenv("REPRO_SERVE_BACKOFF_CAP_MS", "100")
        config = ServeConfig.from_env()
        assert config.backoff_base_s == pytest.approx(0.005)
        assert config.backoff_cap_s == pytest.approx(0.100)

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_s"):
            ServeConfig(deadline_s=-1.0)

    def test_backoff_cap_below_base_rejected(self):
        with pytest.raises(ValueError, match="backoff_cap_s"):
            ServeConfig(backoff_base_s=1.0, backoff_cap_s=0.5)


class TestServiceDeadlines:
    """Expired requests fail fast with the typed error, before a worker
    ever sees them."""

    def test_expired_queued_request_fails_fast(self, serve_spec,
                                               serve_cases):
        config = ServeConfig(workers=1, queue_capacity=16)
        service = PredictionService(serve_spec, config)
        # pre-submit with a microscopic deadline, then let it expire
        # before the scheduler starts: the request must never reach a
        # worker
        ticket = service.submit(serve_cases[0], deadline_s=1e-4)
        time.sleep(0.01)
        with service:
            with pytest.raises(DeadlineExceededError) as exc_info:
                ticket.result(timeout=10.0)
        message = str(exc_info.value)
        assert re.search(r"request \d+", message)
        assert "expired" in message
        assert service.stats()["deadline_expired"] == 1
        assert service.stats()["served"] == 0

    def test_config_deadline_applies_to_all_requests(self, serve_spec,
                                                     serve_cases):
        config = ServeConfig(workers=1, queue_capacity=16,
                             deadline_s=1e-4)
        service = PredictionService(serve_spec, config)
        tickets = [service.submit(case) for case in serve_cases[:2]]
        time.sleep(0.01)
        with service:
            for ticket in tickets:
                with pytest.raises(DeadlineExceededError):
                    ticket.result(timeout=10.0)
        assert service.stats()["deadline_expired"] == 2

    def test_generous_deadline_serves_normally(self, serve_spec,
                                               serve_cases):
        config = ServeConfig(workers=1, queue_capacity=16)
        with PredictionService(serve_spec, config) as service:
            result = service.submit(serve_cases[0],
                                    deadline_s=120.0).result(timeout=60.0)
            assert result.prediction.shape[0] > 0
            stats = service.stats()
        assert stats["deadline_expired"] == 0
        assert stats["served"] == 1

    def test_expired_companion_does_not_block_live_head(self, serve_spec,
                                                        serve_cases):
        """A batch head with no deadline is served even when a companion
        queued behind it has already expired."""
        config = ServeConfig(workers=1, queue_capacity=16)
        service = PredictionService(serve_spec, config)
        live = service.submit(serve_cases[0])
        doomed = service.submit(serve_cases[1], deadline_s=1e-4)
        time.sleep(0.01)
        with service:
            assert live.result(timeout=60.0).prediction is not None
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=10.0)
        stats = service.stats()
        assert stats["served"] == 1 and stats["deadline_expired"] == 1

    def test_stats_expose_degradations_key(self, serve_spec, serve_cases):
        with PredictionService(serve_spec, ServeConfig()) as service:
            service.submit(serve_cases[0]).result(timeout=60.0)
            stats = service.stats()
        assert isinstance(stats["degradations"], dict)
