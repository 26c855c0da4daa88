"""Process-worker liveness contracts: spawn isolation, hot-swap acks,
and deterministic killed-worker handling.

Determinism of the kill tests comes from the worker protocol's ``sleep``
control message (a chaos hook consumed before the next batch): the
worker is provably busy when we terminate it, so the dispatched batch is
provably orphaned — no racing against a fast forward.  With
``retries=1`` the orphan is re-dispatched to the respawned worker and
completes (``attempts == 2``); with ``retries=0`` the ticket fails
loudly with :class:`WorkerDiedError` naming the exit code.  Either way,
nothing hangs.

Process startup (spawn + import + predictor build) dominates runtime
here, so the scenarios share service instances where possible.
"""

import time

import numpy as np
import pytest

from repro.serve.config import ServeConfig
from repro.serve.queue import WorkerDiedError
from repro.serve.service import PredictionService
from tests.serve.conftest import perturbed_state


def _config(**overrides):
    base = dict(workers=1, worker_kind="process", queue_capacity=16,
                max_batch=4, batch_window_s=0.005, retries=1)
    base.update(overrides)
    return ServeConfig(**base)


def _kill_busy_worker(service, case, sleep_s=30.0):
    """Occupy the sole worker, dispatch a batch behind the sleep, then
    terminate the process; returns the orphaned ticket."""
    pool = service.pool
    worker = next(iter(pool._workers.values()))
    worker.inbox.put(("sleep", sleep_s))
    ticket = service.submit(case)
    deadline = time.perf_counter() + 30.0
    while True:  # wait until the batch is dispatched (outstanding)
        with pool._lock:
            if pool._outstanding:
                break
        if time.perf_counter() > deadline:  # pragma: no cover
            raise AssertionError("batch never dispatched")
        time.sleep(0.01)
    worker.runner.terminate()
    return ticket


def test_process_serving_parity_swap_and_retry(serve_spec, serve_cases):
    """One spawn pays for three contracts: bit-parity through a real OS
    process, hot-swap with acks (old weights never serve post-swap), and
    kill-with-retry — including that the *respawned* worker catches up to
    the swapped weights instead of reverting to the spec's."""
    direct_v1 = serve_spec.build()
    references_v1 = {case.name: direct_v1.predict_case(case)[0]
                     for case in serve_cases}
    state_v2 = perturbed_state(serve_spec.model)

    with PredictionService(serve_spec, _config(retries=1)) as service:
        results = [service.predict(case, timeout=120)
                   for case in serve_cases[:2]]
        for case, result in zip(serve_cases, results):
            assert np.array_equal(result.prediction,
                                  references_v1[case.name])
            assert result.worker.startswith("process-")
            assert result.model_version == 0

        service.swap(state_v2, timeout=60)
        swapped = service.predict(serve_cases[0], timeout=120)
        assert swapped.model_version == 1
        assert not np.array_equal(swapped.prediction,
                                  references_v1[serve_cases[0].name])

        ticket = _kill_busy_worker(service, serve_cases[1])
        retried = ticket.result(timeout=180)
        assert retried.attempts == 2          # one death, one success
        # the respawned worker serves the *swapped* weights, not the
        # stale spec weights it was rebuilt from
        assert retried.model_version == 1
        assert not np.array_equal(retried.prediction,
                                  references_v1[serve_cases[1].name])

    # process workers never touch the parent's model object: build the
    # v2 reference by loading the swapped state explicitly
    serve_spec.model.load_state_dict(state_v2)
    direct_v2 = serve_spec.build()
    assert np.array_equal(swapped.prediction,
                          direct_v2.predict_case(serve_cases[0])[0])
    assert np.array_equal(retried.prediction,
                          direct_v2.predict_case(serve_cases[1])[0])


def test_killed_worker_without_retries_fails_loudly(serve_spec,
                                                    serve_cases):
    with PredictionService(serve_spec, _config(retries=0)) as service:
        ticket = _kill_busy_worker(service, serve_cases[0])
        with pytest.raises(WorkerDiedError) as excinfo:
            ticket.result(timeout=180)
    message = str(excinfo.value)
    assert "died" in message
    assert "retries" in message
    assert "exitcode" in message
