"""Tests for the PR-over-PR headline trajectory file."""

import json

import pytest

from repro.bench.history import append_history, load_history
from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchResult,
    BenchSuiteReport,
    Metric,
    SchemaVersionError,
)


def _report(sha="a" * 40, speedup=4.0):
    result = BenchResult(name="solver_scaling", kind="perf")
    result.metrics["factor_once_speedup"] = Metric(speedup, headline=True)
    result.metrics["crossover_nodes"] = Metric(18_000.0)  # not a headline
    return BenchSuiteReport(generated_at="2026-08-08T00:00:00+00:00",
                            fingerprint={"git_sha": sha},
                            results={"solver_scaling": result})


class TestLoadHistory:
    def test_absent_file_is_empty_trajectory(self, tmp_path):
        assert load_history(str(tmp_path / "BENCH_history.json")) == []

    def test_version_mismatch_refused(self, tmp_path):
        path = tmp_path / "BENCH_history.json"
        path.write_text(json.dumps({"schema_version": 0, "entries": []}))
        with pytest.raises(SchemaVersionError):
            load_history(str(path))


class TestAppendHistory:
    def test_appends_headlines_only(self, tmp_path):
        path = str(tmp_path / "BENCH_history.json")
        entry = append_history(path, _report(), tier="perf")
        assert entry["headlines"] == {
            "solver_scaling.factor_once_speedup": 4.0}
        assert entry["git_sha"] == "a" * 40
        assert entry["tier"] == "perf"
        [loaded] = load_history(path)
        assert loaded == entry

    def test_records_blas_threads_and_lanes_when_fingerprinted(self,
                                                               tmp_path):
        path = str(tmp_path / "BENCH_history.json")
        report = _report()
        assert "infer_lanes" not in append_history(path, report)
        report.fingerprint.update(blas_threads=1, infer_lanes=2)
        entry = append_history(path, report)
        assert (entry["blas_threads"], entry["infer_lanes"]) == (1, 2)

    def test_distinct_shas_accumulate(self, tmp_path):
        path = str(tmp_path / "BENCH_history.json")
        append_history(path, _report(sha="a" * 40))
        append_history(path, _report(sha="b" * 40, speedup=5.0))
        entries = load_history(path)
        assert [e["git_sha"][0] for e in entries] == ["a", "b"]
        assert entries[-1]["headlines"][
            "solver_scaling.factor_once_speedup"] == 5.0

    def test_same_sha_and_tier_replaced_in_place(self, tmp_path):
        path = str(tmp_path / "BENCH_history.json")
        append_history(path, _report(speedup=4.0), tier="perf")
        append_history(path, _report(speedup=6.0), tier="perf")
        [entry] = load_history(path)
        assert entry["headlines"][
            "solver_scaling.factor_once_speedup"] == 6.0

    def test_same_sha_different_tier_kept(self, tmp_path):
        path = str(tmp_path / "BENCH_history.json")
        append_history(path, _report(), tier="gating")
        append_history(path, _report(), tier="perf")
        assert [e["tier"] for e in load_history(path)] == ["gating", "perf"]

    def test_schema_version_stamped(self, tmp_path):
        path = tmp_path / "BENCH_history.json"
        append_history(str(path), _report())
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
