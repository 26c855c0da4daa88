"""Suite-build replay: ``stream_suite`` into a fresh directory, with spans
around PDN generation, factor-once solves, feature maps, golden rasters
and case writes.

A suite build is not a workload of its own: its end-to-end times drift
with the host by more than the largest bound a metric may have (on a
shared 2-vCPU x86-64 VM the spread of a run's median build time across
ten runs reached 0.29 of the median), so its
layers are measured here, in the traced run of ``serve_recurring``,
whose set-up synthesises a suite in memory through the same PDN, solver
and feature code.

One worker, ``cases_per_template=4``: 4 fake cases on one grid template,
4 real cases on another and 2 hidden cases on their own grids, with every
fake/real die edge fixed at :data:`EDGE_UM`.  The process-wide template
cache is emptied before each build, so every build pays PDN generation,
factorisation, feature maps and case writes the way a fresh build
process does.  A reference build gives the case-file digests (printed;
the same on every run of one seed); :data:`UNTRACED_BUILDS` untraced
builds and then the traced one must each reproduce them file for file.
The traced build minus the median untraced one is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import time
from typing import Dict

from repro.bench.measure import median
from repro.data.synthesis import (
    SynthesisSettings,
    stream_suite,
    template_cache,
)

import layers
from common import Outcome, Tracer, instrumented, reconcile

EDGE_UM = 64.0
SUITE = dict(num_fake=4, num_real=4, num_hidden=2, cases_per_template=4,
             workers=1)
UNTRACED_BUILDS = 3


def _is_manifest(relative: str) -> bool:
    # the manifest records the absolute output path, which differs per build
    return relative.startswith("manifest")


def _fresh(workdir: str, name: str) -> str:
    """An empty output path, and a collected heap, for the next build."""
    path = os.path.join(workdir, name)
    shutil.rmtree(path, ignore_errors=True)
    gc.collect()
    return path


def _build(out_dir: str, seed: int):
    """One build from a cold template cache; returns its manifest."""
    template_cache().clear()
    return stream_suite(out_dir, seed=seed,
                        settings=SynthesisSettings(
                            edge_um_range=(EDGE_UM, EDGE_UM)),
                        **SUITE)


def _case_digests(out_dir: str, manifest) -> Dict[str, Dict[str, str]]:
    """Per-case file digests: case directory -> file name -> sha256."""
    cases: Dict[str, Dict[str, str]] = {ref.path: {} for ref in manifest.refs}
    for directory, _, files in os.walk(out_dir):
        for filename in files:
            path = os.path.join(directory, filename)
            relative = os.path.relpath(path, out_dir)
            if _is_manifest(relative):
                continue
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            case_dir, _, name = relative.partition(os.sep)
            cases.setdefault(case_dir, {})[name] = digest
    return cases


def _suite_digest(cases: Dict[str, Dict[str, str]]) -> str:
    hasher = hashlib.sha256()
    for case_dir in sorted(cases):
        for name, digest in sorted(cases[case_dir].items()):
            hasher.update(f"{case_dir}/{name}:{digest}\n".encode())
    return hasher.hexdigest()


def _compare(reference, built, outcome: Outcome, label: str) -> None:
    for case_dir in sorted(set(reference) | set(built)):
        outcome.attempted += 1
        if reference.get(case_dir) != built.get(case_dir):
            outcome.fail(f"{label}: {case_dir} differs from the reference "
                         f"build of this seed")


def replay(seed: int, workdir: str, outcome: Outcome) -> None:
    """Reference build, untraced builds, then the traced build."""
    out_dir = _fresh(workdir, "reference")
    reference = _case_digests(out_dir, _build(out_dir, seed))
    print(f"suite build seed {seed}: case-file digest "
          f"{_suite_digest(reference)}", flush=True)
    untraced = []
    for number in range(UNTRACED_BUILDS):
        out_dir = _fresh(workdir, "build")
        start = time.perf_counter()
        manifest = _build(out_dir, seed)
        untraced.append(time.perf_counter() - start)
        _compare(reference, _case_digests(out_dir, manifest), outcome,
                 f"build {number + 1}")

    out_dir = _fresh(workdir, "replay")
    tracer, cg = Tracer(), []
    with instrumented(tracer, layers.SUITE), layers.cg_iterations(cg):
        with tracer.item("replay"):
            start = time.perf_counter()
            manifest = _build(out_dir, seed)
            wall = time.perf_counter() - start
    _compare(reference, _case_digests(out_dir, manifest), outcome, "replay")
    written = sum(os.path.getsize(os.path.join(directory, name))
                  for directory, _, files in os.walk(out_dir)
                  for name in files if not _is_manifest(name))
    cases = len(reference)
    factors, solves = tracer.count("solver.factor"), tracer.count(
        "solver.solve")
    outcome.metric("solver.factor_reuse_ratio",
                   1.0 - factors / solves if solves else 0.0, "ratio")
    outcome.metric("solver.iterations", sum(cg) / cases, "count")
    outcome.metric("data.io.bytes_written", written, "bytes")
    reconcile(outcome, tracer, wall, cases, layers.names(layers.SUITE),
              prefix="suite.")
    outcome.metric("suite.trace.overhead_ms",
                   (wall - median(untraced)) * 1e3 / cases, "ms")
