"""perfbench on the fleet trajectory — the end-to-end serving and ingest
numbers every perf claim is judged on.

``perfbench/run.py`` is the repo's one perf harness for serving and
ingestion (see ``perfbench/README.md``); ``BENCHMARK.json`` declares its
workloads, its end-to-end metrics and their per-pair regression bounds.
This script runs every declared workload once, untraced, for the
declared ``run_seconds``, and records each end-to-end metric as the
headline ``<workload>.<metric>``, so ``benchmarks/BENCH_history.json``
tracks the same numbers.  A workload fails unless its last output line
reports ``correct: true`` and ``failed: 0``.

perfbench measures the shipped configuration and refuses to start with a
``REPRO_*`` knob set, so the child runs with those knobs removed from
its environment: fleet budget knobs do not shrink these workloads.
"""

import json
import os
import subprocess

import pytest
from conftest import emit, recorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    DECLARED = json.load(handle)
SEED = 1

REC = recorder("perfbench", "perf")


def _run(workload):
    """One untraced perfbench run; returns its final JSON line."""
    command = list(DECLARED["command"]) + [
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(DECLARED["run_seconds"]), "--trace", "0"]
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, \
        f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


@pytest.mark.parametrize(
    "workload", [workload["name"] for workload in DECLARED["workloads"]])
def test_end_to_end(workload, artifact_dir):
    result, stderr = _run(workload)
    correct = REC.check(f"{workload}.correct",
                        result["correct"] is True and result["failed"] == 0)
    assert correct, (f"{workload}: correct={result['correct']}, "
                     f"failed={result['failed']}\n{stderr}")
    lines = [f"perfbench {workload} (seed {SEED}, "
             f"{DECLARED['run_seconds']} s, {result['attempted']} "
             "operations, all correct):"]
    for declared in DECLARED["end_to_end"]:
        name = declared["name"]
        measured = result["metrics"][name]
        REC.metric(f"{workload}.{name}", measured["value"],
                   unit=measured["unit"], headline=True)
        lines.append(f"  {name:<18}: {measured['value']:10.2f} "
                     f"{measured['unit']}")
    REC.annotate(seed=SEED, run_seconds=DECLARED["run_seconds"])
    emit(artifact_dir, f"perfbench_{workload}.txt", "\n".join(lines))
