"""Per-step probe of the compiled forward on the served configuration.

A measurement, not a benchmark workload.  It compiles the served model
(LMM-IR, 48 x 48 feature maps, 192 netlist points; ``--model NAME``,
repeatable, probes other registered models instead) at batch 1 and
batch 4, in the engine's default dtype (float32;
``REPRO_INFER_DTYPE=float64`` probes the bit-exact oracle), and times
every step of ``Plan.run``, printing per model and batch size:

* self time per op kind;
* the top 20 steps by self time;
* ``Plan.run`` wall time minus the sum of its step times: what a run
  spends outside the kernels (buffers, the step loop, the output copy).
  The step timers' own cost, measured on timed no-op calls, is split
  off; the rest is the run's bookkeeping.

Steps are timed by wrapping ``build_step`` while one engine compiles, the
way perfbench's replay wraps layers; a second, unwrapped engine gives the
untimed wall time.  Each round runs both plans once on the calling thread
(the batch-4 plan unsharded, so its steps are not split over lanes), and
every figure is a median over rounds.  The probe exits non-zero unless both
plans' outputs equal each other bit for bit and match ``model.forward``:
bit for bit in float64, to the engine's 1e-4 relative in float32::

    python benchmarks/probe_forward_steps.py --rounds 40
    REPRO_INFER_DTYPE=float64 python benchmarks/probe_forward_steps.py
    python benchmarks/probe_forward_steps.py --rounds 1 --model IRPnet

It uses only names every recent commit has, so ``PYTHONPATH=<checkout>/src``
measures that commit.
"""

from __future__ import annotations

import argparse
import time
from collections import defaultdict

import numpy as np

from repro import nn
from repro.core.registry import MODEL_REGISTRY, OURS
from repro.infer import InferenceEngine
from repro.infer import plan as plan_module
from repro.train.seed import seed_everything

EDGE, POINTS = 48, 192
TOP = 20


def _timed(run, seconds: list):
    """``run`` wrapped to append each call's seconds to ``seconds``."""
    def timed(env, out, scratch, clock=time.perf_counter):
        start = clock()
        result = run(env, out, scratch)
        seconds.append(clock() - start)
        return result
    return timed


def _compile_timed(engine: InferenceEngine, args):
    """Compile ``args``' plan with every step's run timed; returns the plan
    and one ``(op, shape, seconds list)`` record per step."""
    build_step = plan_module.build_step
    records = []

    def timed_build(index, node, ctx):
        step = build_step(index, node, ctx)
        seconds = []
        step.run = _timed(step.run, seconds)
        records.append((node.op, node.shape, seconds))
        return step

    plan_module.build_step = timed_build
    try:
        plan = engine.compile(*args)
    finally:
        plan_module.build_step = build_step
    for _, _, seconds in records:
        seconds.clear()   # drop the compile-time validation run
    return plan, records


def _timer_cost(steps: int, rounds: int) -> float:
    """Median seconds the step timers add to one run: ``steps`` timed
    no-op calls, minus the time they record."""
    seconds = []
    noop = _timed(lambda env, out, scratch: None, seconds)
    samples = []
    for _ in range(rounds):
        seconds.clear()
        start = time.perf_counter()
        for _ in range(steps):
            noop(None, None, None)
        samples.append(time.perf_counter() - start - sum(seconds))
    return float(np.median(samples))


def probe(model, spec, batch: int, rounds: int) -> bool:
    rng = np.random.default_rng(batch)
    maps = rng.normal(size=(batch, len(spec.channels), EDGE, EDGE))
    args = ((maps, rng.normal(size=(batch, POINTS, 11)))
            if spec.uses_pointcloud else (maps,))
    with nn.no_grad():
        reference = model(*[nn.Tensor(a) for a in args]).data
    timed_engine, plain_engine = InferenceEngine(model), InferenceEngine(model)
    timed_plan, records = _compile_timed(timed_engine, args)
    plain_plan = plain_engine.compile(*args)
    oracle = plain_engine.dtype == np.float64
    walls, outside, exact = [], [], True
    for round_index in range(rounds + 1):   # round 0 warms up
        start = time.perf_counter()
        plain = plain_plan.run(args, plain_engine.arena)
        wall = time.perf_counter() - start
        start = time.perf_counter()
        timed = timed_plan.run(args, timed_engine.arena)
        timed_wall = time.perf_counter() - start
        exact &= np.array_equal(plain, timed) and (
            np.array_equal(plain, reference) if oracle else
            np.max(np.abs(plain - reference))
            <= 1e-4 * np.max(np.abs(reference)))
        if round_index:
            walls.append(wall)
            outside.append(timed_wall - sum(seconds[-1] for _, _, seconds
                                            in records))
    per_step = [(op, shape, float(np.median(seconds[1:]))) for op, shape,
                seconds in records]
    by_kind = defaultdict(lambda: [0, 0.0])
    for op, _, seconds in per_step:
        by_kind[op][0] += 1
        by_kind[op][1] += seconds
    steps_ms = 1e3 * sum(seconds for _, _, seconds in per_step)
    outside_ms = 1e3 * float(np.median(outside))
    timer_ms = 1e3 * _timer_cost(len(records), rounds)

    print(f"== {spec.name} b{batch} {plain_engine.dtype}: "
          f"{len(records)} steps, {rounds} rounds")
    print(f"{'op kind':<18} {'steps':>5} {'self ms':>9} {'share':>6}")
    for op, (count, seconds) in sorted(by_kind.items(),
                                       key=lambda item: -item[1][1]):
        print(f"{op:<18} {count:>5} {1e3 * seconds:>9.3f} "
              f"{100 * seconds / (steps_ms / 1e3):>5.1f}%")
    print(f"top {TOP} steps by self time")
    ranked = sorted(enumerate(per_step), key=lambda item: -item[1][2])
    for position, (op, shape, seconds) in ranked[:TOP]:
        print(f"  #{position:<4} {op:<18} {str(shape):<22} "
              f"{1e3 * seconds:>8.3f} ms")
    print(f"Plan.run wall, untimed   {1e3 * float(np.median(walls)):>8.3f} ms")
    print(f"sum of step times        {steps_ms:>8.3f} ms")
    print(f"outside the steps        {outside_ms:>8.3f} ms "
          f"(timed run's wall minus its steps)")
    print(f"  of which step timers   {timer_ms:>8.3f} ms")
    print(f"  bookkeeping            {outside_ms - timer_ms:>8.3f} ms")
    print(f"{'bit-exact vs' if oracle else 'within 1e-4 of'} "
          f"model.forward: {exact}")
    return exact


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--batch", type=int, action="append",
                        help="batch size to probe (repeatable; default 1 "
                             "and 4)")
    parser.add_argument("--model", action="append",
                        choices=sorted(MODEL_REGISTRY),
                        help="registered model to probe (repeatable; "
                             f"default {OURS!r}, the served one)")
    options = parser.parse_args(argv)
    exact = []
    for name in options.model or (OURS,):
        seed_everything(0)
        spec = MODEL_REGISTRY[name]
        model = spec.build().eval()
        exact += [probe(model, spec, batch, options.rounds)
                  for batch in options.batch or (1, 4)]
    if not all(exact):
        raise SystemExit("compiled forward does not match model.forward")


if __name__ == "__main__":
    main()
