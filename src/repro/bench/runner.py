"""Orchestrated execution of the benchmark fleet.

``python -m repro.bench run`` selects registry entries (tier / ``--only``
filters), executes each as a pytest subprocess in dependency order,
collects the per-bench :class:`BenchResult` artifacts the scripts
recorded, stamps an environment fingerprint (CPU, BLAS, git SHA, bench
budget knobs), and writes one ``benchmarks/artifacts/report.json`` —
then diffs it against the committed reference and appends the headline
metrics to the PR-over-PR trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.bench.registry import DEFAULT_ENTRIES, BenchEntry, select_entries
from repro.bench.schema import BenchResult, BenchSuiteReport
from repro.infer import lanes

__all__ = ["EntryRun", "BenchRunner", "environment_fingerprint",
           "assemble_report", "collect_results"]


@dataclass
class EntryRun:
    """Outcome of one orchestrated pytest invocation."""

    name: str
    status: str           # "passed" | "failed" | "no-tests"
    returncode: int
    seconds: float
    command: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status != "failed"

    def to_dict(self) -> Dict[str, Any]:
        return {"status": self.status, "returncode": self.returncode,
                "seconds": round(self.seconds, 3),
                "command": list(self.command)}


def _read_first_cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_info() -> Optional[str]:
    try:
        import numpy as np

        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:
        return None


def _git_sha(cwd: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=cwd,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def environment_fingerprint(cwd: str = ".") -> Dict[str, Any]:
    """Where these numbers came from: interpreter, CPU, BLAS (and its
    thread count), inference lanes, git SHA, and every ``REPRO_*``
    budget knob in effect."""
    try:
        import numpy as np
        numpy_version = np.__version__
    except Exception:
        numpy_version = None
    try:
        import scipy
        scipy_version = scipy.__version__
    except Exception:
        scipy_version = None
    fingerprint: Dict[str, Any] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "scipy": scipy_version,
        "env": {key: os.environ[key] for key in sorted(os.environ)
                if key.startswith("REPRO_")},
    }
    cpu = _read_first_cpu_model()
    if cpu:
        fingerprint["cpu"] = cpu
    blas = _blas_info()
    if blas:
        fingerprint["blas"] = blas
    fingerprint["blas_threads"] = lanes.blas_threads()
    fingerprint["infer_lanes"] = lanes.LANES
    sha = _git_sha(cwd)
    if sha:
        fingerprint["git_sha"] = sha
    return fingerprint


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def collect_results(results_dir: str) -> Dict[str, BenchResult]:
    """Load every ``results/*.json`` artifact; malformed files are loud
    (a corrupt artifact must never read as a quietly-shrunken fleet)."""
    results: Dict[str, BenchResult] = {}
    if not os.path.isdir(results_dir):
        return results
    for filename in sorted(os.listdir(results_dir)):
        if not filename.endswith(".json"):
            continue
        path = os.path.join(results_dir, filename)
        try:
            with open(path) as handle:
                result = BenchResult.from_dict(json.load(handle))
        except (ValueError, KeyError, json.JSONDecodeError) as error:
            raise ValueError(f"unreadable bench artifact {path}: {error}") \
                from error
        results[result.name] = result
    return results


def assemble_report(results_dir: str, fingerprint: Dict[str, Any],
                    runs: Sequence[EntryRun] = (),
                    tier: Optional[str] = None,
                    partial: bool = False) -> BenchSuiteReport:
    """One report from the current state of the results directory.

    The report covers *every* result present — a perf-tier run layered
    on top of an earlier gating run reports the whole fleet — while
    ``runs`` records which entries this invocation actually executed.
    ``partial`` marks an ``--only``-restricted run so the comparator
    treats absent metrics as skipped rather than a shrunken fleet.
    """
    return BenchSuiteReport(
        generated_at=_now(),
        fingerprint=fingerprint,
        tier=tier,
        partial=partial,
        results=collect_results(results_dir),
        runs={run.name: run.to_dict() for run in runs},
    )


class BenchRunner:
    """Run registry entries as pytest subprocesses, in dependency order.

    ``executor`` is injectable for tests; the default launches
    ``python -m pytest <script> [-m marker] -q`` from the repo root with
    ``src`` prepended to ``PYTHONPATH``, i.e. exactly the invocation a
    developer would type for one script.
    """

    def __init__(self, bench_dir: str,
                 entries: Sequence[BenchEntry] = DEFAULT_ENTRIES,
                 executor: Optional[Callable[[BenchEntry], EntryRun]] = None):
        self.bench_dir = os.path.abspath(bench_dir)
        self.entries = tuple(entries)
        self.executor = executor or self._run_pytest
        self.artifact_dir = os.path.join(self.bench_dir, "artifacts")
        self.results_dir = os.path.join(self.artifact_dir, "results")

    # -- execution ------------------------------------------------------
    def _command(self, entry: BenchEntry) -> List[str]:
        command = [sys.executable, "-m", "pytest",
                   os.path.join(self.bench_dir, entry.script), "-q"]
        if entry.marker:
            command += ["-m", entry.marker]
        return command

    def _run_pytest(self, entry: BenchEntry) -> EntryRun:
        command = self._command(entry)
        root = os.path.dirname(self.bench_dir)
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=root, env=env)
        seconds = time.perf_counter() - start
        # pytest exit 5 = no tests collected for the marker expression;
        # that is a registry bug worth seeing, but not a bench failure
        status = {0: "passed", 5: "no-tests"}.get(proc.returncode, "failed")
        return EntryRun(name=entry.name, status=status,
                        returncode=proc.returncode, seconds=seconds,
                        command=command)

    def run(self, tier: Optional[str] = None,
            only: Optional[Sequence[str]] = None,
            log: Callable[[str], None] = print) -> List[EntryRun]:
        """Execute the selected entries in dependency order."""
        selected = select_entries(self.entries, tier=tier, only=only)
        runs: List[EntryRun] = []
        for index, entry in enumerate(selected, 1):
            log(f"[{index}/{len(selected)}] {entry.name} "
                f"({entry.script}"
                + (f", -m {entry.marker!r}" if entry.marker else "") + ")")
            run = self.executor(entry)
            runs.append(run)
            log(f"    -> {run.status} in {run.seconds:.1f}s")
        return runs

    def report(self, runs: Sequence[EntryRun] = (),
               tier: Optional[str] = None,
               cwd: Optional[str] = None,
               partial: bool = False) -> BenchSuiteReport:
        fingerprint = environment_fingerprint(
            cwd or os.path.dirname(self.bench_dir))
        return assemble_report(self.results_dir, fingerprint, runs, tier,
                               partial=partial)
