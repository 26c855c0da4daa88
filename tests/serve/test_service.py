"""End-to-end contracts of :class:`PredictionService` (thread workers).

The acceptance criteria pinned here, all deterministic:

* **parity** — served predictions are bit-identical (float64) to direct
  ``IRPredictor.predict_case`` on the same weights;
* **micro-batching** — requests queued together coalesce into one
  forward (pre-filling the queue before ``start()`` makes the batch
  composition deterministic); a lone request on an idle pool is
  dispatched at once, and requests arriving one at a time behind a busy
  worker still coalesce;
* **backpressure** — submits over the queue bound fail with the
  documented :class:`BackpressureError` and the accepted requests are
  unaffected;
* **contention** — more worker threads than cores, resolving inline on
  the shared supervisor state, serve every request bit-identically and
  leave the pool's bookkeeping consistent.
"""

import threading

import numpy as np
import pytest

from repro.nn.functional import set_trace_hook
from repro.nn.tensor import is_grad_enabled
from repro.serve.config import ServeConfig
from repro.serve.queue import (
    BackpressureError,
    PredictionFailedError,
    ServiceClosedError,
)
from repro.serve.service import PredictionService


def _config(**overrides):
    base = dict(workers=1, worker_kind="thread", queue_capacity=16,
                max_batch=4, batch_window_s=0.01)
    base.update(overrides)
    return ServeConfig(**base)


class TestParityAndBatching:
    def test_served_bit_identical_to_direct(self, serve_spec, serve_cases):
        with PredictionService(serve_spec, _config()) as service:
            results = [service.predict(case, timeout=60)
                       for case in serve_cases]
        direct = serve_spec.build()
        for case, result in zip(serve_cases, results):
            reference, _ = direct.predict_case(case)
            assert np.array_equal(result.prediction, reference)
            assert result.tat_seconds > 0
            assert result.latency_seconds >= result.queue_seconds

    def test_queued_requests_coalesce_into_one_forward(self, serve_spec,
                                                       serve_cases):
        service = PredictionService(serve_spec, _config(max_batch=4))
        tickets = [service.submit(case) for case in serve_cases]
        with service:  # all four were queued before the scheduler ran
            results = [ticket.result(timeout=60) for ticket in tickets]
        assert [result.batch_size for result in results] == [4, 4, 4, 4]
        direct = serve_spec.build()
        for case, result in zip(serve_cases, results):
            assert np.array_equal(result.prediction,
                                  direct.predict_case(case)[0])

    def test_max_batch_caps_coalescing(self, serve_spec, serve_cases):
        service = PredictionService(serve_spec, _config(max_batch=3))
        tickets = [service.submit(case) for case in serve_cases]
        with service:
            sizes = [ticket.result(timeout=60).batch_size
                     for ticket in tickets]
        assert sizes == [3, 3, 3, 1]

    def test_lone_request_on_idle_pool_skips_the_window(self, serve_spec,
                                                        serve_cases):
        config = _config(batch_window_s=0.25)
        with PredictionService(serve_spec, config) as service:
            result = service.predict(serve_cases[0], timeout=60)
        assert result.batch_size == 1
        assert result.queue_seconds < 0.1

    def test_busy_pool_coalesces_requests_submitted_one_at_a_time(
            self, serve_spec, serve_cases):
        service = PredictionService(
            serve_spec, _config(max_batch=2, batch_window_s=60.0))
        # the scheduler "parks" when it blocks on an empty queue; record
        # how many requests it had taken by then, so each submit below
        # lands only after every earlier one was dispatched or is
        # waiting in the window for companions
        parked = threading.Condition()
        taken, parked_after = [0], [-1]
        real_pop = service.queue.pop

        def pop(timeout=None):
            if timeout and not len(service.queue):
                with parked:
                    parked_after[0] = taken[0]
                    parked.notify_all()
            request = real_pop(timeout)
            if request is not None:
                taken[0] += 1
            return request

        service.queue.pop = pop
        tickets = []
        with service:
            worker = next(iter(service.pool._workers.values()))
            worker.inbox.put(("sleep", 0.5))  # hold the one worker busy
            for case in serve_cases[:3]:
                with parked:
                    assert parked.wait_for(
                        lambda: parked_after[0] == len(tickets), 30)
                tickets.append(service.submit(case))
            sizes = [ticket.result(timeout=60).batch_size
                     for ticket in tickets]
        # the first reached an idle pool and went alone; the next two
        # arrived one at a time behind it and shared one forward
        assert sizes == [1, 2, 2]


class TestBackpressure:
    def test_over_budget_submit_rejected_with_reason(self, serve_spec,
                                                     serve_cases):
        service = PredictionService(serve_spec, _config(queue_capacity=2))
        accepted = [service.submit(serve_cases[0]),
                    service.submit(serve_cases[1])]
        with pytest.raises(BackpressureError) as excinfo:
            service.submit(serve_cases[2])
        assert excinfo.value.capacity == 2
        assert "queue at capacity" in str(excinfo.value)
        # the rejected request did not poison the accepted ones
        with service:
            results = [ticket.result(timeout=60) for ticket in accepted]
        assert len(results) == 2
        assert service.stats()["rejected"] == 1

    def test_submit_after_stop_refused(self, serve_spec, serve_cases):
        service = PredictionService(serve_spec, _config())
        with service:
            service.predict(serve_cases[0], timeout=60)
        with pytest.raises(ServiceClosedError):
            service.submit(serve_cases[0])

    def test_stop_without_start_fails_tickets_loudly(self, serve_spec,
                                                     serve_cases):
        service = PredictionService(serve_spec, _config())
        ticket = service.submit(serve_cases[0])
        service.stop()
        with pytest.raises(ServiceClosedError):
            ticket.result(timeout=1)


class TestContention:
    def test_supervisor_state_survives_thread_contention(
            self, serve_spec, serve_cases):
        """More worker threads than cores, each compiling its own engine
        and resolving its batches inline on the shared supervisor state,
        under a tiny switch interval: every result matches the direct
        reference bit for bit, and the pool ends with nothing outstanding
        or pending and every worker idle exactly once — a lost or doubled
        update would break that."""
        import sys

        config = _config(workers=4, queue_capacity=64, max_batch=2,
                         batch_window_s=0.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PredictionService(serve_spec, config) as service:
                tickets = [(case, service.submit(case))
                           for case in (serve_cases * 8)]
                results = [(case, ticket.result(timeout=60))
                           for case, ticket in tickets]
                pool = service.pool
                with pool._lock:
                    assert not pool._outstanding and not pool._pending
                    assert sorted(pool._idle) == sorted(pool._workers)
        finally:
            sys.setswitchinterval(interval)
        # the workers traced and ran no_grad forwards concurrently; none
        # of that may leak into this thread's autograd state
        assert is_grad_enabled()
        assert set_trace_hook(None) is None
        direct = serve_spec.build()
        references = {case.name: direct.predict_case(case)[0]
                      for case in serve_cases}
        for case, result in results:
            assert np.array_equal(result.prediction,
                                  references[case.name]), case.name


class TestFailuresAndStats:
    def test_worker_exception_fails_only_that_request(self, serve_spec,
                                                      serve_cases):
        class NotACase:
            name = "broken"

        with PredictionService(serve_spec, _config()) as service:
            bad = service.submit(NotACase())
            good = service.submit(serve_cases[0])
            with pytest.raises(PredictionFailedError):
                bad.result(timeout=60)
            assert good.result(timeout=60).tat_seconds > 0

    def test_stats_report(self, serve_spec, serve_cases):
        with PredictionService(serve_spec, _config()) as service:
            for case in serve_cases:
                service.predict(case, timeout=60)
            stats = service.stats()
        assert stats["served"] == len(serve_cases)
        assert stats["rejected"] == 0
        assert stats["workers"] == 1
        assert stats["latency"]["count"] == len(serve_cases)
        for key in ("p50", "p90", "p99", "mean", "max"):
            assert stats["tat"][key] > 0
        # the self-healing surfaces ride along on every report
        assert stats["failed"] == 0
        assert stats["shed"] == 0
        assert stats["integrity_refused"] == 0
        assert stats["health"]["state"] == "healthy"
        assert stats["guard"]["checked"] == len(serve_cases)
        assert stats["guard"]["refused"] == 0
        assert stats["breaker"]["state"] == "closed"

    def test_stats_snapshot_is_consistent_under_concurrent_records(
            self, serve_spec, serve_cases):
        """stats() snapshots counters *and* sample windows under one
        lock: a served count from one instant may never pair with
        latency samples from another."""
        import sys
        import threading

        config = _config(queue_capacity=64, max_batch=2)
        served_seen = []
        violations = []
        errors = []
        stop = threading.Event()

        def hammer(service):
            try:
                while not stop.is_set():
                    stats = service.stats()
                    count = stats.get("latency", {}).get("count", 0)
                    served_seen.append(stats["served"])
                    # windows are far from full here, so a consistent
                    # snapshot has exactly one sample per served request
                    if count != stats["served"]:
                        violations.append((count, stats["served"]))
            except Exception as error:  # surfaced by the asserts below
                errors.append(error)

        # a short switch interval keeps the spinning pollers from
        # starving the worker thread of the GIL, and interleaves them
        # finely with its records; three pollers widen the odds that
        # one sits inside stats() whenever a record lands
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PredictionService(serve_spec, config) as service:
                pollers = [threading.Thread(target=hammer, args=(service,))
                           for _ in range(3)]
                for poller in pollers:
                    poller.start()
                try:
                    tickets = [
                        service.submit(serve_cases[i % len(serve_cases)])
                        for i in range(48)]
                    for ticket in tickets:
                        ticket.result(timeout=60)
                finally:
                    stop.set()
                    for poller in pollers:
                        poller.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(poller.is_alive() for poller in pollers)
        assert errors == []
        # the pollers ran while requests were being recorded
        assert len(set(served_seen)) > 1
        assert violations == []

    def test_health_snapshot_surface(self, serve_spec, serve_cases):
        with PredictionService(serve_spec, _config()) as service:
            service.predict(serve_cases[0], timeout=60)
            first = service.health()
            second = service.health()
        assert first.state == "healthy"
        assert second.version == first.version + 1
        assert [worker.worker for worker in first.workers] == ["thread-0"]
        assert first.breaker == "closed"
        payload = first.to_dict()
        assert payload["state"] == "healthy"
        assert payload["workers"][0]["worker"] == "thread-0"
