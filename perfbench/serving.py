"""``serve_recurring``: the prediction daemon under paced, then saturating,
load over a recurring set of cases.

Set-up builds the shipped service exactly as ``python -m repro.serve``
does (``build_spec`` + ``ServeConfig()``: LMM-IR (Ours), edge 48, 192
points, one thread worker, max batch 8, 2 ms window, float64 engine,
``prep_cache=64``), warms every micro-batch size from 1 to 8 through the
service, and computes each case's reference map with a direct
``IRPredictor.predict_case``.

Load comes from this thread alone, over 10 hidden cases round-robin, so
after warm-up every request's preprocessing is a ``PreparedCaseCache``
hit and the compiled forward plus micro-batching do the work:

* paced phase, open loop: one request every ``1 / RATE_HZ`` seconds
  against an absolute schedule.  Latency runs from each request's *due* time to
  its fulfilment, ``(submit - due) + ServeResult.latency_seconds``, so a
  stalled generator cannot hide queueing;
* closed phase: ``IN_FLIGHT`` requests outstanding at all times;
  completions per second is the throughput.

The two phases alternate over ``CYCLES`` rounds.

Every served map must be bit-equal to its reference.  The traced run adds
a replay: a direct predictor from the same spec, fed the same cases in
chunks of the observed batch size, with spans around each layer; and
then the suite-build replay of :mod:`suite`, whose PDN, solver and
feature layers this workload's set-up runs when it synthesises its suite.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.bench.measure import median_of
from repro.core.pipeline import IRPredictor
from repro.data.case import CaseBundle
from repro.data.synthesis import SynthesisSettings, make_suite
from repro.faults.deadline import DeadlineExceededError
from repro.metrics.timing import percentile
from repro.serve.__main__ import build_spec
from repro.serve.breaker import CircuitOpenError
from repro.serve.config import ServeConfig
from repro.serve.guard import OutputGuard, prediction_digest
from repro.serve.queue import BackpressureError, ServeError, ServeResult
from repro.serve.service import PredictionService

import layers
from common import (
    Outcome,
    Tracer,
    instrumented,
    peak_rss_mb,
    reconcile,
    timed_setup,
)
from suite import replay as replay_suite_build

MODEL = "LMM-IR (Ours)"
EDGE = 48
POINTS = 192
NUM_CASES = 10
#: Training cases the preprocessor is fitted on, at one fixed die edge so
#: set-up costs the same for every seed.
TRAINING = dict(num_fake=2, num_real=1,
                settings=SynthesisSettings(edge_um_range=(64.0, 64.0)))
#: Paced arrival rate, requests/s.  At this rate micro-batches stay at
#: one request, each costing about 20 ms on a 2-vCPU x86-64 box, so the
#: worker is about half busy (40% of closed-loop saturation): a host
#: slowdown lengthens service times without piling up a backlog.
RATE_HZ = 25.0
IN_FLIGHT = 16
#: Total length of the closed-loop phase; the paced phase gets the rest.
CLOSED_SECONDS = 8.0
CYCLES = 4
RESULT_TIMEOUT_S = 60.0
REPLAY_PASSES = 5


@dataclass
class Served:
    """A fleet of cases behind a running service, with reference maps."""

    service: PredictionService
    cases: List[CaseBundle]
    expected: List[np.ndarray]
    direct: IRPredictor
    warm_sizes: Counter


def _setup(seed: int) -> Served:
    suite = make_suite(num_hidden=NUM_CASES, seed=seed, **TRAINING)
    cases = list(suite.hidden_cases)
    spec = build_spec(MODEL, EDGE, POINTS, suite)
    config = ServeConfig()
    service = PredictionService(spec, config).start()
    warm_sizes: Counter = Counter()
    for size in range(1, config.max_batch + 1):
        for _ in range(3):  # a burst can split if the scheduler lags
            tickets = [service.submit(cases[i % len(cases)])
                       for i in range(size)]
            got = [ticket.result(RESULT_TIMEOUT_S).batch_size
                   for ticket in tickets]
            warm_sizes.update(got)
            if size in got:
                break
    direct = spec.build(group_size=config.max_batch)
    expected = [direct.predict_case(case)[0] for case in cases]
    return Served(service, cases, expected, direct, warm_sizes)


class _Tally:
    """Per-outcome request counts; every non-served outcome is a failure."""

    def __init__(self, outcome: Outcome):
        self.outcome = outcome
        self.counts = Counter()

    def refused(self, error: BaseException) -> None:
        kind = ("rejected" if isinstance(error, BackpressureError)
                else "shed" if isinstance(error, CircuitOpenError)
                else "failed")
        self.counts[kind] += 1
        self.outcome.fail(f"submit {kind}: {type(error).__name__}: {error}")

    def resolve(self, ticket, expected: np.ndarray) -> Optional[ServeResult]:
        try:
            result = ticket.result(RESULT_TIMEOUT_S)
        except (ServeError, TimeoutError) as error:
            kind = ("expired" if isinstance(error, DeadlineExceededError)
                    else "failed")
            self.counts[kind] += 1
            self.outcome.fail(f"request {kind}: {type(error).__name__}: "
                              f"{error}")
            return None
        self.counts["served"] += 1
        if not np.array_equal(result.prediction, expected):
            self.outcome.fail(f"request {ticket.request_id} "
                              f"({ticket.case_name}): served map differs "
                              f"from direct predict_case")
        # keep the accounting, not the map: the benchmark's own hoard of
        # served arrays must not show up in peak_rss_mb
        return replace(result, prediction=None)


def _paced(served: Served, tally: _Tally, count: int):
    """Open loop: submit on an absolute schedule, collect afterwards.
    Returns ``(lag_s, due_latency_s, results)`` of the served requests."""
    service, cases = served.service, served.cases
    interval = 1.0 / RATE_HZ
    start = time.perf_counter() + 0.01
    sent = []
    for index in range(count):
        due = start + index * interval
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        which = index % len(cases)
        submitted = time.perf_counter()
        try:
            ticket = service.submit(cases[which])
        except ServeError as error:
            tally.refused(error)
            continue
        sent.append((due, submitted, ticket, which))
    lags, latencies, results = [], [], []
    for due, submitted, ticket, which in sent:
        result = tally.resolve(ticket, served.expected[which])
        if result is not None:
            lags.append(submitted - due)
            latencies.append(submitted - due + result.latency_seconds)
            results.append(result)
    return lags, latencies, results


def _closed(served: Served, tally: _Tally, seconds: float):
    """Closed loop: keep ``IN_FLIGHT`` requests outstanding for
    ``seconds``; returns (window seconds, results inside the window)."""
    service, cases = served.service, served.cases
    inflight = deque()
    results = []
    index = 0
    start = time.perf_counter()
    last = start
    while last - start < seconds:
        while len(inflight) < IN_FLIGHT:
            which = index % len(cases)
            index += 1
            try:
                inflight.append((service.submit(cases[which]), which))
            except ServeError as error:
                tally.refused(error)
        if not inflight:
            break  # every submit was refused
        ticket, which = inflight.popleft()
        result = tally.resolve(ticket, served.expected[which])
        last = time.perf_counter()
        if result is not None:
            results.append(result)
    for ticket, which in inflight:  # drained, checked, not timed
        tally.resolve(ticket, served.expected[which])
    return last - start, results


def _replay_pass(served: Served, order: List[int], chunk: int,
                 tracer: Optional[Tracer] = None):
    """``chunk``-sized ``predict_many`` calls over ``order`` plus the
    worker's integrity guard, as spans of ``tracer`` if one is given.
    Returns ``(wall seconds, per-case TATs, (map, case index) pairs)``."""
    predictor, cases = served.direct, served.cases
    guard = OutputGuard()
    wall, tats, checks = 0.0, [], []
    for number in range(0, len(order), chunk):
        members = order[number:number + chunk]
        with (tracer.item(f"chunk{number // chunk}") if tracer
              else nullcontext()):
            start = time.perf_counter()
            outputs = predictor.predict_many([cases[i] for i in members])
            for (prediction, _), i in zip(outputs, members):
                with tracer.span("serve.guard") if tracer else nullcontext():
                    guard.check(prediction, case_shape=cases[i].shape,
                                digest=prediction_digest(prediction))
            wall += time.perf_counter() - start
        tats.extend(tat for _, tat in outputs)
        checks.extend((prediction, i) for (prediction, _), i
                      in zip(outputs, members))
    return wall, tats, checks


def _replay(served: Served, outcome: Outcome, chunk: int) -> None:
    """Direct predictor, same cases, ``chunk``-sized ``predict_many``
    calls plus the worker's integrity guard: once untraced, then again
    under spans; the TAT difference is the tracing overhead."""
    predictor, cases = served.direct, served.cases
    engine, cache = predictor.engine, predictor.prep_cache
    order = [i for _ in range(REPLAY_PASSES) for i in range(len(cases))]
    plans, hits, misses = engine.plan_count, cache.hits, cache.misses
    _, untraced_tats, untraced = _replay_pass(served, order, chunk)
    tracer = Tracer()
    with instrumented(tracer, layers.PREDICT):
        wall, tats, checks = _replay_pass(served, order, chunk, tracer)
    outcome.attempted += len(untraced) + len(checks)
    for prediction, i in untraced + checks:
        if not np.array_equal(prediction, served.expected[i]):
            outcome.fail(f"replay of {cases[i].name} differs from direct "
                         f"predict_case")
    lookups = (cache.hits - hits) + (cache.misses - misses)
    ratio = (cache.hits - hits) / lookups if lookups else 0.0
    compiled = engine.plan_count - plans
    outcome.metric("train.loader.prep_cache_hit_ratio", ratio, "ratio")
    outcome.metric("infer.plans_compiled", compiled, "count")
    if ratio < 1.0:
        outcome.problem(f"replay prep-cache hit ratio {ratio:.3f} < 1.0 "
                        f"after warm-up")
    if compiled:
        outcome.problem(f"replay compiled {compiled} new plan(s) after "
                        f"warm-up")
    reconcile(outcome, tracer, wall, len(order),
              layers.names(layers.PREDICT) + ["serve.guard"])
    outcome.metric("trace.overhead_ms", 1e3 * (
        float(np.mean(tats)) - float(np.mean(untraced_tats))), "ms")
    forward_ms(predictor, cases, outcome)


def forward_ms(predictor: IRPredictor, cases, outcome: Outcome) -> None:
    """Median compiled-forward time at batch 1 and batch 8 (the plans
    are compiled by the untimed warm-up call if they are new)."""
    prepared = [predictor.preprocessor.prepare(case,
                                               cache=predictor.prep_cache)
                for case in cases[:8]]
    features = np.stack([item.features for item in prepared])
    points = np.stack([item.points for item in prepared])
    for size in (1, 8):
        args = (features[:size],)
        if predictor.preprocessor.use_pointcloud:
            args += (points[:size],)
        seconds = median_of(lambda: predictor.engine.run(*args),
                            rounds=7, warmup=1)
        outcome.metric(f"infer.forward_b{size}_ms", seconds * 1e3, "ms")


def run(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    outcome = Outcome()
    served, setup_s = timed_setup(lambda: _setup(seed),
                                  discard=lambda s: s.service.stop())
    try:
        missing = [size for size in range(1, ServeConfig().max_batch + 1)
                   if not served.warm_sizes[size]]
        if missing:
            outcome.problem(f"warm-up never formed micro-batch size(s) "
                            f"{missing}: {dict(served.warm_sizes)}")
        if trace:  # compile the replay's plans for every chunk size
            for size in range(1, ServeConfig().max_batch + 1):
                served.direct.predict_many(served.cases[:size])

        # the phases alternate in CYCLES rounds, so both sample the whole
        # run rather than one stretch of a host whose speed drifts
        tally = _Tally(outcome)
        closed_s = min(CLOSED_SECONDS, seconds / 2) / CYCLES
        paced_n = max(1, int(round(RATE_HZ * (seconds / CYCLES - closed_s))))
        lags, latencies, paced, closed, window = [], [], [], [], 0.0
        for _ in range(CYCLES):
            for into, values in zip((lags, latencies, paced),
                                    _paced(served, tally, paced_n)):
                into.extend(values)
            elapsed, results = _closed(served, tally, closed_s)
            window += elapsed
            closed.extend(results)
    finally:
        served.service.stop()
    outcome.attempted += sum(tally.counts.values())
    if not latencies or not closed:
        outcome.problem("no request was served")
        return outcome

    if not trace:
        outcome.metric("setup_s", setup_s, "s")
        outcome.metric("throughput_per_s", len(closed) / window, "1/s")
        outcome.metric("latency_p50_ms", percentile(latencies, 50) * 1e3,
                       "ms")
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MiB")
        return outcome

    queue = [r.queue_seconds for r in paced]
    tat = [r.tat_seconds for r in paced]
    overhead = [r.latency_seconds - r.queue_seconds - r.tat_seconds
                for r in paced]
    for q in (90, 99):
        outcome.metric(f"serve.latency_p{q}_ms",
                       percentile(latencies, q) * 1e3, "ms")
    for name, values, q in (("queue_wait", queue, 50),
                            ("queue_wait", queue, 99), ("tat", tat, 50),
                            ("overhead", overhead, 50)):
        outcome.metric(f"serve.{name}_p{q}_ms", percentile(values, q) * 1e3,
                       "ms")
    outcome.metric("serve.batch_size_mean",
                   float(np.mean([r.batch_size for r in closed])), "count")
    outcome.metric("loadgen.lag_p99_ms", percentile(lags, 99) * 1e3, "ms")
    outcome.metric("serve.offered", sum(tally.counts.values()), "count")
    for kind in ("served", "rejected", "shed", "expired", "failed"):
        outcome.metric(f"serve.{kind}", tally.counts[kind], "count")
    chunk = int(np.clip(round(np.mean([r.batch_size for r in closed])),
                        1, ServeConfig().max_batch))
    _replay(served, outcome, chunk)
    replay_suite_build(seed, workdir, outcome)
    return outcome
