"""Served-output integrity: the guard's refusal taxonomy, the
checksum path that catches chaos corruption, and the sampled online
audit against the golden solver.

The acceptance property under test is absolute: no NaN/Inf/mis-shaped/
corrupted/divergent prediction is ever *fulfilled* — a bad map becomes
a typed :class:`IntegrityError` refusal, and only good maps reach the
caller bit-identical to direct inference.
"""

import time
import types

import numpy as np
import pytest

from repro.faults.degrade import default_log, reset_default_log
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.points import inject
from repro.serve import guard as guard_module
from repro.serve.breaker import CircuitOpenError
from repro.serve.config import ServeConfig
from repro.serve.guard import (
    AuditRecord,
    IntegrityError,
    OnlineAuditor,
    OutputGuard,
    prediction_digest,
)
from repro.serve.service import PredictionService


@pytest.fixture(autouse=True)
def _clean_ledger():
    reset_default_log()
    yield
    reset_default_log()


def _clean_map(shape=(8, 8), value=0.25):
    return np.full(shape, value, dtype=np.float64)


# ----------------------------------------------------------------------
# prediction_digest
# ----------------------------------------------------------------------
def test_digest_is_deterministic_and_content_sensitive():
    a = _clean_map()
    assert prediction_digest(a) == prediction_digest(a.copy())
    flipped = a.copy()
    flipped[3, 3] = np.nextafter(flipped[3, 3], 1.0)  # one ulp
    assert prediction_digest(flipped) != prediction_digest(a)
    # dtype and shape are part of the identity, not just the bytes
    assert prediction_digest(a.astype(np.float32)) != prediction_digest(a)
    assert prediction_digest(a.reshape(4, 16)) != prediction_digest(a)


# ----------------------------------------------------------------------
# OutputGuard
# ----------------------------------------------------------------------
def test_guard_passes_clean_prediction():
    guard = OutputGuard()
    clean = _clean_map()
    guard.check(clean, case_shape=(8, 8),
                digest=prediction_digest(clean), context="unit")
    assert guard.stats() == {
        "checked": 1, "refused": 0,
        "refused_by_code": {code: 0 for code in
                            ("checksum", "shape", "nan", "inf", "range")}}


@pytest.mark.parametrize("mutate,code", [
    (lambda m: m.__setitem__((0, 0), np.nan), "nan"),
    (lambda m: m.__setitem__((0, 0), np.inf), "inf"),
    (lambda m: m.__setitem__((0, 0), -1.0), "range"),
    (lambda m: m.__setitem__((0, 0), 99.0), "range"),
])
def test_guard_refuses_impossible_maps(mutate, code):
    guard = OutputGuard()
    bad = _clean_map()
    mutate(bad)
    with pytest.raises(IntegrityError) as excinfo:
        guard.check(bad, case_shape=(8, 8))
    assert excinfo.value.code == code
    assert guard.stats()["refused_by_code"][code] == 1


def test_guard_refuses_shape_mismatch_and_non_arrays():
    guard = OutputGuard()
    with pytest.raises(IntegrityError) as excinfo:
        guard.check(_clean_map((4, 4)), case_shape=(8, 8))
    assert excinfo.value.code == "shape"
    with pytest.raises(IntegrityError) as excinfo:
        guard.check([[0.1, 0.2]])  # not an ndarray at all
    assert excinfo.value.code == "shape"


def test_guard_checksum_catches_mutation_in_transit():
    guard = OutputGuard()
    clean = _clean_map()
    digest = prediction_digest(clean)
    mutated = clean.copy()
    mutated[5, 5] = np.nextafter(mutated[5, 5], 1.0)
    with pytest.raises(IntegrityError) as excinfo:
        guard.check(mutated, case_shape=(8, 8), digest=digest)
    assert excinfo.value.code == "checksum"
    # checksum outranks the value checks: a corrupted NaN map refuses
    # as corruption, not as NaN, because the bytes changed first
    nan_mutated = clean.copy()
    nan_mutated[0, 0] = np.nan
    with pytest.raises(IntegrityError) as excinfo:
        guard.check(nan_mutated, case_shape=(8, 8), digest=digest)
    assert excinfo.value.code == "checksum"


def test_guard_validation():
    with pytest.raises(ValueError):
        IntegrityError("not-a-code", "nope")


# ----------------------------------------------------------------------
# OnlineAuditor
# ----------------------------------------------------------------------
def _golden(case):
    from repro.solver.factorized import FactorizedPDN
    from repro.solver.rasterize import rasterize_ir_map

    solve = FactorizedPDN(case.netlist).solve()
    return rasterize_ir_map(case.netlist, solve, shape=case.shape)


def _wait_for(predicate, timeout_s=30.0):
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def test_auditor_samples_every_nth_and_passes_faithful_output(serve_cases):
    case = serve_cases[0]
    golden = _golden(case)
    hits = []
    auditor = OnlineAuditor(every=3, on_divergence=hits.append)
    auditor.start()
    try:
        for _ in range(6):
            auditor.observe(case, golden)
        assert _wait_for(lambda: auditor.stats()["audited"] == 2)
    finally:
        auditor.stop()
    stats = auditor.stats()
    assert stats["observed"] == 6
    assert stats["sampled"] == 2
    assert stats["divergent"] == 0
    assert stats["worst_divergence_v"] < 1e-9
    assert hits == []


def test_auditor_flags_divergence_and_fires_callback(serve_cases):
    case = serve_cases[0]
    drifted = _golden(case) + 1.0  # a whole volt off the golden solve
    hits = []
    auditor = OnlineAuditor(every=1, on_divergence=hits.append)
    auditor.start()
    try:
        auditor.observe(case, drifted)
        assert _wait_for(lambda: auditor.stats()["divergent"] == 1)
    finally:
        auditor.stop()
    assert len(hits) == 1
    record = hits[0]
    assert isinstance(record, AuditRecord)
    assert record.diverged
    assert record.case_name == case.name
    assert record.divergence_v == pytest.approx(1.0, abs=1e-6)
    counts = default_log().counts()
    assert counts.get("serve.audit: serving->diverged") == 1


def test_auditor_survives_unsolvable_cases():
    broken = types.SimpleNamespace(name="broken", netlist=None, shape=(4, 4))
    auditor = OnlineAuditor(every=1)
    auditor.start()
    try:
        auditor.observe(broken, _clean_map((4, 4)))
        assert _wait_for(lambda: auditor.stats()["errors"] == 1)
    finally:
        auditor.stop()
    counts = default_log().counts()
    assert counts.get("serve.audit: sampling->audit-error") == 1


def test_auditor_validation():
    with pytest.raises(ValueError):
        OnlineAuditor(every=0)


def test_service_audit_divergence_opens_breaker(serve_spec, serve_cases,
                                                monkeypatch):
    """The service wires its auditor to the breaker: an untrained model's
    served map is far off the golden solve, so one audited request trips
    the breaker and later submits are shed."""
    monkeypatch.setattr(guard_module, "DIVERGENCE_V", 1e-6)
    config = ServeConfig(workers=1, worker_kind="thread", queue_capacity=8,
                         max_batch=1, batch_window_s=0.0, audit_every=1,
                         breaker_cooldown_s=60.0)
    with PredictionService(serve_spec, config) as service:
        service.submit(serve_cases[0]).result(60.0)
        assert _wait_for(lambda: service.breaker.state == "open")
        with pytest.raises(CircuitOpenError):
            service.submit(serve_cases[1])
        stats = service.stats()
    assert stats["audit"]["divergent"] >= 1
    assert stats["breaker"]["state"] == "open"
    assert default_log().counts().get("serve.audit: serving->diverged", 0) >= 1


# ----------------------------------------------------------------------
# End to end: chaos corruption on the fulfilment path
# ----------------------------------------------------------------------
def test_service_refuses_corrupted_prediction_typed(serve_spec, serve_cases):
    """An armed ``serve.guard`` corruption rule flips one bit of the
    second served map between worker and fulfilment: that ticket — and
    only that one — must refuse with a ``checksum`` IntegrityError while
    its neighbours serve bit-identical to direct inference."""
    direct = serve_spec.build()
    references = {case.name: direct.predict_case(case)[0]
                  for case in serve_cases}
    config = ServeConfig(workers=1, queue_capacity=16, max_batch=1,
                         batch_window_s=0.0, breaker_enabled=False)
    plan = FaultPlan(seed=11, rules=[
        FaultRule(point="serve.guard", action="corrupt", at=(2,),
                  note="flip one bit of the second served map")])
    with inject(plan):
        with PredictionService(serve_spec, config) as service:
            tickets = [(case, service.submit(case)) for case in serve_cases]
            outcomes = []
            for case, ticket in tickets:
                try:
                    outcomes.append((case, "served", ticket.result(60.0)))
                except IntegrityError as error:
                    outcomes.append((case, "refused", error))
            stats = service.stats()
    assert [kind for _, kind, _ in outcomes] == \
        ["served", "refused", "served", "served"]
    refused = outcomes[1][2]
    assert refused.code == "checksum"
    assert "bytes changed" in str(refused)
    for case, kind, result in outcomes:
        if kind == "served":
            assert np.array_equal(result.prediction, references[case.name])
    assert stats["integrity_refused"] == 1
    assert stats["failed"] == 1
    assert stats["guard"]["refused_by_code"]["checksum"] == 1
    assert stats["guard"]["checked"] == 4
