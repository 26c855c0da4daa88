"""Benchmark of the IR-drop stack: served requests and large-deck
ingestion, with per-layer replays (suite builds included).

Run from the repository root::

    python3 perfbench/run.py --workload serve_recurring --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload and then a traced replay, and prints
every per-layer metric instead (a layer a workload never enters reads
0).  Every output is checked in the same run; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
run refuses to start (exit code 2, no result) when the program's sources
are missing, when a ``REPRO_*`` knob is set, or when a fault plan is
armed: the benchmark measures the shipped configuration only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_recurring", "ingest_large")


def _refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return _refuse(f"no program sources under {ROOT}/src")
    knobs = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if knobs:
        return _refuse(f"REPRO_* knobs are set ({', '.join(knobs)}); the "
                       f"benchmark runs the shipped configuration only")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.bench.runner import environment_fingerprint
    from repro.faults.points import active_plan

    if active_plan() is not None:
        return _refuse("a fault plan is armed")
    print("environment " + json.dumps(environment_fingerprint(ROOT),
                                      sort_keys=True), flush=True)

    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    trace = bool(args.trace)
    try:
        if args.workload == "serve_recurring":
            import serving
            outcome = serving.run(args.seed, args.seconds, trace, workdir)
        else:
            import ingest
            outcome = ingest.run(args.seed, args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still owns a work directory

    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for entry in declared[section]:
        name, unit = entry["name"], entry["unit"]
        value, measured_unit = outcome.metrics.get(name, (None, unit))
        if value is None:
            if not trace:
                outcome.problem(f"end-to-end metric {name} not measured")
                continue
            value = 0.0  # this workload never enters the layer
        if measured_unit != unit:
            outcome.problem(f"{name} measured in {measured_unit}, "
                            f"declared {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for line in outcome.failures[:20] + outcome.problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
