"""Self-healing serving gate (PR 10 tentpole acceptance).

Registered as ``serving.selfheal`` in the bench registry's *gating*
tier.  Three properties gate, all deterministic:

* **hung-worker detection within budget** — a process worker wedged by
  the worker protocol's ``sleep`` chaos hook (a genuine hang: no
  heartbeats, immune to SIGTERM semantics) is force-killed by the
  watchdog within the configured ``watchdog_s`` budget plus one sweep
  interval of slack;
* **batch-mates recover bit-identically** — both requests, queued
  while the scheduler cannot dispatch and so coalesced into the
  micro-batch behind the hang, are re-dispatched to the respawned
  worker and return exactly the bytes a fault-free run returns
  (``attempts == 2``);
* **zero integrity escapes** — across a seeded corruption soak
  (``serve.guard`` bit flips on the fulfilment path), every fulfilled
  prediction is bit-identical to direct inference and every corrupted
  one is refused with a typed ``checksum`` :class:`IntegrityError`;
  nothing questionable is ever served.

Pinned via ``REPRO_CHAOS_SEED`` (default 1337, the CI seed).
"""

import time

import numpy as np
import pytest
from conftest import emit, recorder

from repro import knobs
from repro.core.registry import MODEL_REGISTRY
from repro.faults import FaultPlan, FaultRule, arm, disarm
from repro.faults.degrade import default_log, reset_default_log
from repro.serve import (
    IntegrityError,
    PredictionService,
    PredictorSpec,
    ServeConfig,
)
from repro.train.loader import CasePreprocessor
from repro.train.seed import seed_everything

CHAOS_SEED = knobs.read("REPRO_CHAOS_SEED")
EDGE = knobs.read("REPRO_EVAL_EDGE")
POINTS = knobs.read("REPRO_EVAL_POINTS")
MODEL = "LMM-IR (Ours)"
RESULT_TIMEOUT = 180.0

#: Watchdog budget for the detection gate, and the slack the gate
#: allows on top of it (one monitor sweep + the SIGKILL/reap round
#: trip; generous for shared CI runners).
WATCHDOG_S = 1.0
DETECT_SLACK_S = 1.0

REC = recorder("selfheal", "parity")


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


@pytest.fixture(autouse=True)
def _clean_ledger():
    reset_default_log()
    yield
    disarm()  # never leak an armed plan into another bench
    reset_default_log()


# ----------------------------------------------------------------------
# Gate 1 + 2: watchdog detection budget and batch-mate recovery
# ----------------------------------------------------------------------
def test_selfheal_watchdog_detects_hung_worker_within_budget(
        bench_suite, artifact_dir):
    cases = list(bench_suite.hidden_cases)[:2]
    spec = _spec(bench_suite)
    direct = spec.build()
    references = {case.name: direct.predict_case(case)[0]
                  for case in cases}

    config = ServeConfig(workers=1, worker_kind="process",
                         queue_capacity=16, max_batch=2,
                         batch_window_s=0.25, retries=1,
                         watchdog_s=WATCHDOG_S, heartbeat_s=0.05,
                         stale_after_s=30.0, breaker_enabled=False,
                         backoff_base_s=0.02, backoff_cap_s=0.1)
    service = PredictionService(spec, config).start()
    try:
        baseline = service.predict(cases[0], timeout=RESULT_TIMEOUT)
        assert np.array_equal(baseline.prediction, references[cases[0].name])

        # a genuine hang: the sleep hook wedges the worker's main loop,
        # so heartbeats stop and only a SIGKILL can reclaim it
        pool = service.pool
        hung = next(iter(pool._workers.values()))
        hung.inbox.put(("sleep", 600.0))
        # the pool still sees the hung worker as idle, so the scheduler
        # would dispatch a lone head at once; holding the pool lock keeps
        # it from dispatching (or even asking) until both requests are
        # queued, and it then takes both into one batch
        with pool._lock:
            tickets = [(case, service.submit(case)) for case in cases]
        dispatch_deadline = time.perf_counter() + 30.0
        while True:  # the batch lands behind the hang
            with pool._lock:
                if pool._outstanding:
                    dispatched_at = time.perf_counter()
                    break
            assert time.perf_counter() < dispatch_deadline, \
                "batch never dispatched"
            time.sleep(0.005)

        results = [(case, ticket.result(timeout=RESULT_TIMEOUT))
                   for case, ticket in tickets]
        snapshot = service.health()
    finally:
        service.stop(drain=True, timeout=RESULT_TIMEOUT)

    kills = [event for event in default_log().events("serve.watchdog")
             if event.to_mode == "killed"]
    assert len(kills) == 1, "the hung worker was never watchdog-killed"
    assert kills[0].from_mode == hung.name
    detect_s = kills[0].at - dispatched_at
    detected_in_budget = detect_s <= WATCHDOG_S + DETECT_SLACK_S
    assert detected_in_budget, \
        f"detection took {detect_s:.3f}s > {WATCHDOG_S:g}s budget " \
        f"+ {DETECT_SLACK_S:g}s slack"

    # batch-mates: both requests shared the killed micro-batch and both
    # recover bit-identically on the respawned worker
    batch_mates = all(result.batch_size == 2 for _, result in results)
    assert batch_mates, "the two requests did not coalesce into one batch"
    for case, result in results:
        assert result.attempts == 2, \
            f"{case.name}: expected one kill + one success, " \
            f"got attempts={result.attempts}"
        assert result.worker != hung.name
        assert np.array_equal(result.prediction, references[case.name]), \
            f"{case.name}: recovered bytes differ from direct inference"
    assert snapshot.deaths == 1
    assert snapshot.state == "healthy"  # the replacement is beating

    REC.check("selfheal_hung_worker_detected_within_budget",
              detected_in_budget)
    REC.check("selfheal_batchmates_recover_bit_identical", True)
    REC.check("selfheal_watchdog_kill_on_ledger", bool(kills))
    REC.metric("detect_s", detect_s, unit="s", headline=True)
    REC.annotate(watchdog_s=WATCHDOG_S, detect_slack_s=DETECT_SLACK_S,
                 seed=CHAOS_SEED)
    emit(artifact_dir, "selfheal_watchdog.txt", "\n".join([
        f"Self-healing watchdog (seed={CHAOS_SEED}):",
        f"  watchdog budget          : {WATCHDOG_S:g}s "
        f"(+{DETECT_SLACK_S:g}s gate slack)",
        f"  hang -> SIGKILL          : {detect_s:.3f}s",
        f"  batch-mates recovered    : {len(results)}/2 bit-identical, "
        f"attempts=2",
        f"-> {REC.path}",
    ]))


# ----------------------------------------------------------------------
# Gate 3: zero integrity escapes across a seeded corruption soak
# ----------------------------------------------------------------------
def test_selfheal_zero_integrity_escapes(bench_suite, artifact_dir):
    cases = list(bench_suite.hidden_cases)
    spec = _spec(bench_suite)
    direct = spec.build()
    references = {case.name: direct.predict_case(case)[0]
                  for case in cases}

    plan = FaultPlan(seed=CHAOS_SEED, rules=[
        FaultRule(point="serve.guard", action="corrupt",
                  probability=0.25, note="fulfilment-path bit rot"),
        FaultRule(point="serve.heartbeat", action="error",
                  probability=0.2, max_fires=40,
                  note="forged heartbeat noise during the soak"),
    ])
    config = ServeConfig(workers=2, worker_kind="thread",
                         queue_capacity=len(cases) * 8, max_batch=4,
                         batch_window_s=0.002, heartbeat_s=0.02,
                         stale_after_s=30.0, breaker_enabled=False)
    rounds = 3
    served, refused, escapes, hangs, untyped = 0, 0, 0, 0, 0
    service = PredictionService(spec, config).start()
    try:
        arm(plan)
        try:
            tickets = []
            for _ in range(rounds):
                tickets.extend((case, service.submit(case))
                               for case in cases)
            for case, ticket in tickets:
                try:
                    result = ticket.result(timeout=RESULT_TIMEOUT)
                except IntegrityError as error:
                    refused += 1
                    assert error.code == "checksum", \
                        f"bit rot surfaced as {error.code!r}"
                except TimeoutError:
                    hangs += 1
                except Exception:   # noqa: BLE001 - tallied then gated
                    untyped += 1
                else:
                    served += 1
                    if not np.array_equal(result.prediction,
                                          references[case.name]):
                        escapes += 1
        finally:
            disarm()
        # recovery wave, corruption disarmed: everything serves clean
        recovered = [service.predict(case, timeout=RESULT_TIMEOUT)
                     for case in cases]
        stats = service.stats()
    finally:
        service.stop(drain=True, timeout=RESULT_TIMEOUT)

    for case, result in zip(cases, recovered):
        assert np.array_equal(result.prediction, references[case.name])
    total = rounds * len(cases)
    assert hangs == 0, f"{hangs} requests hung under corruption chaos"
    assert untyped == 0, "corruption surfaced as an untyped failure"
    assert served + refused == total
    assert refused >= 1, "the corruption rule never fired — soak is vacuous"
    assert escapes == 0, f"{escapes} corrupted predictions were FULFILLED"
    assert stats["integrity_refused"] == refused
    assert stats["guard"]["refused_by_code"]["checksum"] == refused
    assert stats["health"]["suppressed_beats"] >= 1, \
        "the forged-heartbeat rule never fired"

    REC.check("selfheal_zero_integrity_escapes", escapes == 0)
    REC.check("selfheal_corruption_refused_typed", untyped == 0)
    REC.check("selfheal_soak_zero_hangs", hangs == 0)
    REC.annotate(seed=CHAOS_SEED, requests=total, served=served,
                 refused=refused,
                 suppressed_beats=stats["health"]["suppressed_beats"])
    emit(artifact_dir, "selfheal_integrity.txt", "\n".join([
        f"Integrity soak (seed={CHAOS_SEED}, {total} requests, "
        f"~25% fulfilment-path bit rot):",
        f"  served clean / refused   : {served} / {refused}",
        f"  escapes (served corrupt) : {escapes}",
        f"  hangs / untyped failures : {hangs} / {untyped}",
        f"-> {REC.path}",
    ]))
