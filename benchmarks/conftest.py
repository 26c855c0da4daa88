"""Shared fixtures for the benchmark harness.

The benchmark suite regenerates every table and figure of the paper at a
CPU-scale budget.  Budgets are the ``REPRO_BENCH_*`` (suite size: 12
fake, 6 real, 10 hidden cases, seed 3 here) and ``REPRO_EVAL_*``
(training) environment knobs; EXPERIMENTS.md "Knobs" lists them all.
The recorded full-scale run in EXPERIMENTS.md used the default
``REPRO_EVAL_EPOCHS=40``.

Tables/figures are printed to stdout (visible with ``pytest -s``) and
always written to ``benchmarks/artifacts/``.
"""

import os

import pytest

from repro import knobs
from repro.bench import BenchRecorder, load_reference
from repro.data.synthesis import make_suite

BENCH_DIR = os.path.dirname(__file__)
ARTIFACT_DIR = os.path.join(BENCH_DIR, "artifacts")
REFERENCE_FILE = os.path.join(BENCH_DIR, "references", "reference.json")

#: The committed reference.  Bench scripts read their assertion floors
#: from it (`REFERENCE.floor(bench, metric, default)`), so the numbers
#: CI gates on and the numbers scripts assert standalone are one set of
#: declarative tolerances; before the first baseline exists the
#: defaults apply.
REFERENCE = load_reference(REFERENCE_FILE)


def recorder(name: str, kind: str) -> BenchRecorder:
    """One per-script result recorder writing the unified BenchResult
    artifact under ``benchmarks/artifacts/results/<name>.json``."""
    return BenchRecorder(name, kind=kind, artifact_dir=ARTIFACT_DIR)


@pytest.fixture(scope="session")
def bench_suite():
    """One shared benchmark suite for every table/figure."""
    return make_suite(
        num_fake=knobs.read("REPRO_BENCH_FAKE", 12),
        num_real=knobs.read("REPRO_BENCH_REAL", 6),
        num_hidden=knobs.read("REPRO_BENCH_HIDDEN", 10),
        seed=knobs.read("REPRO_BENCH_SEED", 3),
    )


@pytest.fixture(scope="session")
def artifact_dir():
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    return ARTIFACT_DIR


def emit(artifact_dir: str, filename: str, text: str) -> None:
    """Print a table and persist it under benchmarks/artifacts/."""
    print("\n" + text)
    with open(os.path.join(artifact_dir, filename), "w") as handle:
        handle.write(text + "\n")
