"""Tests for the orchestrated runner (injectable executor, no subprocesses)."""

import json
import os

import pytest

from repro.bench.registry import DEFAULT_ENTRIES, BenchEntry
from repro.bench.runner import (
    BenchRunner,
    EntryRun,
    assemble_report,
    collect_results,
    environment_fingerprint,
)
from repro.bench.schema import BenchResult, BenchRecorder, Metric


def _fake_executor(recorded):
    def execute(entry):
        recorded.append(entry.name)
        return EntryRun(name=entry.name, status="passed", returncode=0,
                        seconds=0.01, command=["pytest", entry.script])
    return execute


ENTRIES = (
    BenchEntry(name="a.parity", bench="alpha", script="bench_a.py",
               tier="gating", kind="parity"),
    BenchEntry(name="a.perf", bench="alpha", script="bench_a.py",
               tier="perf", kind="perf", marker="perf",
               depends=("a.parity",)),
    BenchEntry(name="b.perf", bench="beta", script="bench_b.py",
               tier="perf", kind="perf"),
)


class TestBenchRunner:
    def test_runs_in_dependency_order(self, tmp_path):
        order = []
        runner = BenchRunner(str(tmp_path), entries=ENTRIES,
                             executor=_fake_executor(order))
        runs = runner.run(log=lambda _msg: None)
        assert order == ["a.parity", "a.perf", "b.perf"]
        assert all(run.ok for run in runs)

    def test_tier_and_only_filters_reach_selection(self, tmp_path):
        order = []
        runner = BenchRunner(str(tmp_path), entries=ENTRIES,
                             executor=_fake_executor(order))
        runner.run(tier="gating", log=lambda _msg: None)
        assert order == ["a.parity"]
        order.clear()
        runner.run(only=["a.perf"], log=lambda _msg: None)
        assert order == ["a.parity", "a.perf"]

    def test_command_shape(self, tmp_path):
        runner = BenchRunner(str(tmp_path), entries=ENTRIES)
        command = runner._command(ENTRIES[1])
        assert command[1:3] == ["-m", "pytest"]
        assert command[3].endswith(os.path.join(str(tmp_path), "bench_a.py"))
        assert command[-2:] == ["-m", "perf"]

    def test_report_collects_recorded_artifacts(self, tmp_path):
        runner = BenchRunner(str(tmp_path), entries=ENTRIES,
                             executor=_fake_executor([]))
        rec = BenchRecorder("alpha", "perf", runner.artifact_dir)
        rec.metric("speedup", 2.0, headline=True)
        runs = runner.run(tier="gating", log=lambda _msg: None)
        report = runner.report(runs, tier="gating")
        assert report.tier == "gating"
        assert report.results["alpha"].metrics["speedup"].value == 2.0
        assert report.runs["a.parity"]["status"] == "passed"
        assert "python" in report.fingerprint


class TestEntryRun:
    def test_ok_statuses(self):
        assert EntryRun("x", "passed", 0, 0.0).ok
        assert EntryRun("x", "no-tests", 5, 0.0).ok
        assert not EntryRun("x", "failed", 1, 0.0).ok

    def test_to_dict(self):
        payload = EntryRun("x", "passed", 0, 1.2345,
                           command=["pytest"]).to_dict()
        assert payload == {"status": "passed", "returncode": 0,
                           "seconds": 1.234, "command": ["pytest"]}


class TestCollectResults:
    def test_missing_dir_is_empty(self, tmp_path):
        assert collect_results(str(tmp_path / "none")) == {}

    def test_collects_all_artifacts(self, tmp_path):
        for name in ("alpha", "beta"):
            BenchRecorder(name, "perf", str(tmp_path)).metric("m", 1.0)
        results = collect_results(str(tmp_path / "results"))
        assert sorted(results) == ["alpha", "beta"]

    def test_malformed_artifact_is_loud(self, tmp_path):
        results_dir = tmp_path / "results"
        results_dir.mkdir()
        (results_dir / "alpha.json").write_text("{broken")
        with pytest.raises(ValueError, match="unreadable bench artifact"):
            collect_results(str(results_dir))

    def test_stale_schema_version_is_loud(self, tmp_path):
        results_dir = tmp_path / "results"
        results_dir.mkdir()
        payload = BenchResult(name="alpha", kind="perf").to_dict()
        payload["schema_version"] = 0
        (results_dir / "alpha.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema_version"):
            collect_results(str(results_dir))


class TestFingerprint:
    def test_required_keys(self):
        fingerprint = environment_fingerprint(os.path.dirname(__file__))
        for key in ("python", "platform", "machine", "cpu_count", "numpy",
                    "env"):
            assert key in fingerprint
        assert isinstance(fingerprint["env"], dict)
        # the repo is a git checkout, so the SHA must be stamped
        assert len(fingerprint.get("git_sha", "")) == 40

    def test_records_blas_threads_and_inference_lanes(self):
        from repro.infer import lanes
        fingerprint = environment_fingerprint()
        assert fingerprint["blas_threads"] == lanes.blas_threads()
        assert fingerprint["infer_lanes"] == lanes.LANES >= 1

    def test_env_captures_repro_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_EPOCHS", "3")
        fingerprint = environment_fingerprint()
        assert fingerprint["env"]["REPRO_BENCH_EPOCHS"] == "3"


class TestAssembleReport:
    def test_layers_all_results_but_records_this_runs_entries(self, tmp_path):
        # gating ran earlier, perf runs now: report covers both results
        for name in ("alpha", "beta"):
            BenchRecorder(name, "perf", str(tmp_path)).metric("m", 1.0)
        runs = [EntryRun("b.perf", "passed", 0, 0.1)]
        report = assemble_report(str(tmp_path / "results"), {"python": "3"},
                                 runs, tier="perf")
        assert sorted(report.results) == ["alpha", "beta"]
        assert list(report.runs) == ["b.perf"]
        assert report.generated_at  # stamped
