"""Serving-daemon benchmark — the request-level parity gate.

The serving layer (``repro.serve``) wraps the PR 3/5 inference machinery
in a long-lived daemon: bounded admission, micro-batching within a
latency budget, and thread/process workers.  The
gate (unmarked, the ``serving.parity`` registry entry) checks that every
prediction served through the full daemon path (queue -> scheduler ->
micro-batch -> worker) is bit-identical, at the default float32, to a direct
``IRPredictor.predict_case`` on the same weights; over-budget submits
reject deterministically with the documented reason; a drained shutdown
serves everything it admitted.

Serving speed (throughput and request latency under open-loop and
closed-loop load) is measured end to end by the perfbench
``serve_recurring`` workload (the ``perfbench`` registry entry).
"""

import numpy as np
import pytest
from conftest import recorder

from repro import knobs
from repro.core.registry import MODEL_REGISTRY
from repro.serve import (
    BackpressureError,
    PredictionService,
    PredictorSpec,
    ServeConfig,
)
from repro.train.loader import CasePreprocessor
from repro.train.seed import seed_everything

EDGE = knobs.read("REPRO_EVAL_EDGE")
POINTS = knobs.read("REPRO_EVAL_POINTS")
MODEL = "LMM-IR (Ours)"

REC = recorder("serving", "parity")


def _spec(bench_suite, **kwargs):
    model_spec = MODEL_REGISTRY[MODEL]
    seed_everything(0)
    model = model_spec.build()
    model.eval()
    preprocessor = CasePreprocessor(
        channels=model_spec.channels, target_edge=EDGE, num_points=POINTS,
        use_pointcloud=model_spec.uses_pointcloud)
    preprocessor.fit(list(bench_suite.training_cases))
    kwargs.setdefault("tta_samples", 1)
    kwargs.setdefault("prep_cache", 64)
    return PredictorSpec(model=model, preprocessor=preprocessor,
                         name=MODEL, kwargs=kwargs)


# ----------------------------------------------------------------------
# Request parity (gating in CI)
# ----------------------------------------------------------------------
def test_served_predictions_bit_identical_to_direct(bench_suite):
    """The acceptance gate: the daemon path changes no bits (float32,
    the served default)."""
    cases = list(bench_suite.hidden_cases)
    spec = _spec(bench_suite)
    config = ServeConfig(workers=1, worker_kind="thread",
                         queue_capacity=len(cases) * 2, max_batch=4,
                         batch_window_s=0.005)
    with PredictionService(spec, config) as service:
        results = [service.predict(case, timeout=300) for case in cases]
        coalesced = [service.submit(case) for case in cases]
        batched_results = [ticket.result(timeout=300)
                           for ticket in coalesced]
        health = service.health()
        stats = service.stats()
    direct = spec.build()
    for case, result, batched in zip(cases, results, batched_results):
        reference, _ = direct.predict_case(case)
        assert np.array_equal(result.prediction, reference), case.name
        assert np.array_equal(batched.prediction, reference), case.name
    assert any(result.batch_size > 1 for result in batched_results)
    # the self-healing layer rides along without touching a bit: every
    # fulfilment passed the integrity guard, nothing tripped the breaker
    assert health.state == "healthy"
    assert stats["guard"]["checked"] == len(cases) * 2
    assert stats["guard"]["refused"] == 0
    assert stats["breaker"]["state"] == "closed"
    assert stats["integrity_refused"] == 0
    REC.check("served_bit_identical_to_direct", True)
    REC.check("selfheal_surfaces_clean_under_parity_load", True)


def test_backpressure_rejects_deterministically(bench_suite):
    cases = list(bench_suite.hidden_cases)
    spec = _spec(bench_suite)
    service = PredictionService(
        spec, ServeConfig(workers=1, queue_capacity=2, max_batch=2,
                          batch_window_s=0.0))
    accepted = [service.submit(cases[0]), service.submit(cases[1])]
    with pytest.raises(BackpressureError) as excinfo:
        service.submit(cases[2])
    assert excinfo.value.capacity == 2
    with service:
        for ticket in accepted:
            assert ticket.result(timeout=300).tat_seconds > 0
    REC.check("backpressure_loud_and_bounded", True)


def test_drained_shutdown_serves_everything_admitted(bench_suite):
    cases = list(bench_suite.hidden_cases)
    spec = _spec(bench_suite)
    service = PredictionService(
        spec, ServeConfig(workers=1, queue_capacity=len(cases),
                          max_batch=4, batch_window_s=0.001))
    tickets = [service.submit(case) for case in cases]
    service.start()
    service.stop(drain=True, timeout=300)
    assert all(ticket.result(timeout=1).tat_seconds > 0
               for ticket in tickets)
    REC.check("drained_shutdown_completes_admitted", True)
