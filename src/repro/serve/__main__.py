"""``python -m repro.serve`` — run the serving daemon under synthetic
open-loop load.

Self-contained demo/smoke entrypoint: synthesises a small benchmark
suite, builds the requested registered model, serves the hidden cases at
the requested arrival rate, and prints the serving report (throughput,
latency/TAT percentiles, rejects).  ``--check-parity`` additionally
verifies every served prediction bit-for-bit against a direct
``IRPredictor.predict_case`` on the same weights — the acceptance
criterion of the serving PR — and exits non-zero on any mismatch.

All ``REPRO_SERVE_*`` environment knobs apply; CLI flags override them.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import numpy as np

from repro import knobs
from repro.core.registry import MODEL_REGISTRY
from repro.data.synthesis import make_suite
from repro.serve.config import WORKER_KINDS, ServeConfig
from repro.serve.loadgen import open_loop_load
from repro.serve.registry import ModelRegistry
from repro.serve.service import PredictionService
from repro.serve.worker import PredictorSpec
from repro.train.loader import CasePreprocessor
from repro.train.seed import seed_everything

#: drain deadline of the SIGTERM/SIGINT shutdown, seconds
DRAIN_S = 30.0


class GracefulShutdown(SystemExit):
    """Raised by the signal handler on the interrupted (main) thread.

    Subclasses ``SystemExit`` with code 0 — an operator signal is a
    *clean* shutdown — and carries the signal name so the control flow
    that catches it can report what triggered the drain.
    """

    def __init__(self, signame: str):
        super().__init__(0)
        self.signame = signame


def install_signal_handlers(service: PredictionService,
                            signals=(signal.SIGTERM, signal.SIGINT)):
    """Graceful shutdown on SIGTERM/SIGINT: request a drain-with-deadline.

    The handler itself is lock-free.  It must **not** call
    ``service.stop()`` directly: the signal can land while the
    interrupted main thread is inside ``submit()`` holding the service's
    non-reentrant stats/queue locks, and ``stop()`` re-acquiring them
    from the same thread would deadlock the shutdown instead of
    draining.  Instead the handler raises :class:`GracefulShutdown` (a
    ``SystemExit``): the interrupted frame unwinds — releasing whatever
    locks it held — and normal control flow (``except GracefulShutdown``
    in :func:`main`, mirrored by the shutdown tests) runs
    ``service.stop(drain=True, timeout=DRAIN_S)`` on a clean
    stack, resolving every admitted ticket.  Repeat signals during the
    drain are ignored, not re-entered.  Returns the previous handlers so
    callers can restore them (must run on the main thread — a CPython
    signal-handling constraint).
    """
    previous = {}

    def _handler(signum, frame):
        name = signal.Signals(signum).name
        print(f"{name}: draining admitted requests "
              f"(deadline {DRAIN_S:g}s) ...",
              file=sys.stderr, flush=True)
        for sig in previous:
            signal.signal(sig, signal.SIG_IGN)
        raise GracefulShutdown(name)

    for sig in signals:
        previous[sig] = signal.signal(sig, _handler)
    return previous


def build_spec(model_name: str, edge: int, points: int,
               suite) -> PredictorSpec:
    spec = MODEL_REGISTRY[model_name]
    seed_everything(0)
    model = spec.build()
    model.eval()
    preprocessor = CasePreprocessor(
        channels=spec.channels, target_edge=edge, num_points=points,
        use_pointcloud=spec.uses_pointcloud)
    preprocessor.fit(list(suite.training_cases))
    return PredictorSpec(
        model=model, preprocessor=preprocessor, name=model_name,
        kwargs={"tta_samples": 1, "engine": "auto", "prep_cache": 64})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--model", default="LMM-IR (Ours)",
                        choices=sorted(MODEL_REGISTRY),
                        help="registered model to serve")
    parser.add_argument("--rate", type=float, default=20.0,
                        help="open-loop arrival rate, requests/s")
    parser.add_argument("--requests", type=int, default=60,
                        help="total requests to offer")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--worker-kind", choices=WORKER_KINDS,
                        default=None)
    parser.add_argument("--queue", type=int, default=None,
                        help="admission queue capacity")
    parser.add_argument("--max-batch", type=int, default=None)
    parser.add_argument("--window-ms", type=float, default=None,
                        help="micro-batch latency budget (ms) while "
                             "every worker is busy; an idle pool "
                             "dispatches at once")
    parser.add_argument("--retries", type=int, default=None)
    parser.add_argument("--registry", default=None, metavar="DIR",
                        help="checkpoint registry; the active checkpoint "
                             "is loaded before serving and the initial "
                             "weights are published if the registry is "
                             "empty")
    parser.add_argument("--check-parity", action="store_true",
                        help="verify served predictions bit-for-bit "
                             "against direct predict_case")
    parser.add_argument("--health-json", action="store_true",
                        help="print the final versioned health snapshot "
                             "as JSON (workers, breaker, heartbeat ages)")
    parser.add_argument("--watchdog-ms", type=float, default=None,
                        help="hung-worker watchdog budget (ms); "
                             "0 disables")
    parser.add_argument("--audit-every", type=int, default=None,
                        help="golden-solver online audit sampling "
                             "(1/N fulfilled results; 0 disables)")
    parser.add_argument("--edge", type=int,
                        default=knobs.read("REPRO_EVAL_EDGE"))
    parser.add_argument("--points", type=int,
                        default=knobs.read("REPRO_EVAL_POINTS"))
    args = parser.parse_args(argv)

    overrides = {}
    for field_name, value in (("workers", args.workers),
                              ("worker_kind", args.worker_kind),
                              ("queue_capacity", args.queue),
                              ("max_batch", args.max_batch),
                              ("retries", args.retries)):
        if value is not None:
            overrides[field_name] = value
    if args.window_ms is not None:
        overrides["batch_window_s"] = args.window_ms / 1000.0
    if args.watchdog_ms is not None:
        overrides["watchdog_s"] = (args.watchdog_ms / 1000.0
                                   if args.watchdog_ms else None)
    if args.audit_every is not None:
        overrides["audit_every"] = args.audit_every
    config = ServeConfig.from_env(**overrides)

    print(f"synthesising suite (edge base, hidden cases for load) ...",
          flush=True)
    suite = make_suite(
        num_fake=knobs.read("REPRO_BENCH_FAKE", 4),
        num_real=knobs.read("REPRO_BENCH_REAL", 2),
        num_hidden=knobs.read("REPRO_BENCH_HIDDEN", 6),
        seed=knobs.read("REPRO_BENCH_SEED", 3))
    cases = list(suite.hidden_cases)
    spec = build_spec(args.model, args.edge, args.points, suite)

    if args.registry:
        registry = ModelRegistry(args.registry)
        if registry.active is None:
            identity = registry.publish(args.model, spec.model)
            print(f"published initial checkpoint "
                  f"{identity['name']}@{identity['digest']}")
        else:
            spec.model.load_state_dict(registry.load_state(registry.active))
            print(f"loaded active checkpoint {registry.active!r} "
                  f"from {registry.root}")

    print(f"serving {args.model!r} with {config.workers} "
          f"{config.worker_kind} worker(s): queue={config.queue_capacity}, "
          f"max_batch={config.max_batch}, "
          f"window={config.batch_window_s * 1e3:g}ms", flush=True)
    service = PredictionService(spec, config)
    previous = install_signal_handlers(service)
    try:
        service.start()
        try:
            report = open_loop_load(service, cases, rate_hz=args.rate,
                                    total=args.requests)
            health = service.health()
            stats = service.stats()
        except GracefulShutdown:
            # the handler only unwound the interrupted frame (lock-free
            # by design); the drain itself runs here, on a clean stack
            service.stop(drain=True, timeout=DRAIN_S)
            stats = service.stats()
            print(f"drained: served={stats['served']} "
                  f"failed={stats['failed']}",
                  file=sys.stderr, flush=True)
            return 0
        service.stop(drain=True, timeout=DRAIN_S)
    finally:
        service.stop()
        for sig, old in previous.items():
            signal.signal(sig, old)

    summary = report.summary()
    payload = {"load": summary, "service": stats}
    if args.health_json:
        payload["health"] = health.to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True, default=float))
    for line in report.errors:
        print(f"request failed: {line}", file=sys.stderr)

    if report.failed:
        print(f"FAIL: {report.failed} request(s) failed", file=sys.stderr)
        return 1
    if not report.results:
        print("FAIL: no requests served", file=sys.stderr)
        return 1

    if args.check_parity:
        direct = spec.build()
        mismatches = 0
        checked = {}
        for case, result in report.results:
            if case.name not in checked:
                checked[case.name], _ = direct.predict_case(case)
            if not np.array_equal(result.prediction, checked[case.name]):
                mismatches += 1
        if mismatches:
            print(f"FAIL: {mismatches}/{len(report.results)} served "
                  f"predictions differ from direct predict_case",
                  file=sys.stderr)
            return 1
        print(f"parity OK: {len(report.results)} served predictions "
              f"bit-identical to direct predict_case")
    return 0


if __name__ == "__main__":
    sys.exit(main())
