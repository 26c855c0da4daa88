"""Tests for tolerance specs, the comparator, and re-baselining."""

import json

import pytest

from repro.bench.compare import (
    FAIL,
    MISSING,
    PASS,
    SKIPPED,
    UNTRACKED,
    Reference,
    ResultComparator,
    ToleranceSpec,
    load_reference,
    rebaseline,
)
from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchResult,
    BenchSuiteReport,
    Metric,
    SchemaVersionError,
    write_json,
)


def _report(**metrics):
    """A one-bench perf report with the given solver_scaling metrics."""
    result = BenchResult(name="solver_scaling", kind="perf")
    for name, value in metrics.items():
        result.metrics[name] = Metric(float(value))
    result.checks["solve_exact_at_every_size"] = True
    return BenchSuiteReport(generated_at="t", tier=None,
                            results={"solver_scaling": result})


def _reference(**specs):
    reference = Reference()
    reference.metrics["solver_scaling"] = {
        name: ToleranceSpec.from_dict(spec) for name, spec in specs.items()}
    reference.checks["solver_scaling"] = {"solve_exact_at_every_size": True}
    return reference


class TestToleranceSpec:
    def test_empty_spec_is_presence_only(self):
        assert ToleranceSpec.from_dict({}).violations(123.0) == []

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown tolerance keys"):
            ToleranceSpec.from_dict({"flor": 2.0})

    def test_band_without_value_rejected(self):
        with pytest.raises(ValueError, match="need a reference 'value'"):
            ToleranceSpec.from_dict({"rel": 0.1})
        with pytest.raises(ValueError, match="need a reference 'value'"):
            ToleranceSpec.from_dict({"abs": 0.1})

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            ToleranceSpec.from_dict({"value": 1.0, "rel": -0.1})

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="must be a number"):
            ToleranceSpec.from_dict({"floor": "2"})
        with pytest.raises(ValueError, match="must be a number"):
            ToleranceSpec.from_dict({"floor": True})

    def test_floor(self):
        spec = ToleranceSpec.from_dict({"floor": 3.0})
        assert spec.violations(3.0) == []
        assert spec.violations(2.9)

    def test_ceiling(self):
        spec = ToleranceSpec.from_dict({"ceiling": 1.5})
        assert spec.violations(1.5) == []
        assert spec.violations(1.6)

    def test_abs_band(self):
        spec = ToleranceSpec.from_dict({"value": 10.0, "abs": 0.5})
        assert spec.violations(10.5) == []
        assert spec.violations(10.6)

    def test_rel_band(self):
        spec = ToleranceSpec.from_dict({"value": 10.0, "rel": 0.1})
        assert spec.violations(11.0) == []
        assert spec.violations(11.2)

    def test_round_trip(self):
        payload = {"value": 4.0, "floor": 3.0, "note": "PR-4 floor"}
        assert ToleranceSpec.from_dict(payload).to_dict() == payload


class TestReference:
    def test_floor_and_ceiling_fall_back_pre_baseline(self):
        empty = Reference.empty()
        assert empty.floor("solver_scaling", "factor_once_speedup", 3.0) == 3.0
        assert empty.ceiling("inference", "peak_rss_mb", 512.0) == 512.0

    def test_floor_reads_committed_spec(self):
        reference = _reference(factor_once_speedup={"floor": 4.5})
        assert reference.floor("solver_scaling", "factor_once_speedup",
                               3.0) == 4.5

    def test_round_trip(self):
        reference = _reference(factor_once_speedup={"value": 4.0,
                                                    "floor": 3.0})
        clone = Reference.from_dict(reference.to_dict())
        assert clone.metrics == reference.metrics
        assert clone.checks == reference.checks

    def test_schema_version_refused(self):
        payload = _reference().to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaVersionError):
            Reference.from_dict(payload)

    def test_load_missing_gives_empty(self, tmp_path):
        assert load_reference(str(tmp_path / "none.json")).metrics == {}

    def test_load_missing_not_ok_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_reference(str(tmp_path / "none.json"), missing_ok=False)

    def test_load_malformed_always_raises(self, tmp_path):
        path = tmp_path / "reference.json"
        payload = _reference().to_dict()
        payload["benchmarks"] = {"solver_scaling": {
            "metrics": {"x": {"floor": "3"}}, "checks": {}}}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="must be a number"):
            load_reference(str(path))


class TestResultComparator:
    def test_all_pass(self):
        reference = _reference(factor_once_speedup={"floor": 3.0})
        comparison = ResultComparator(reference).compare(
            _report(factor_once_speedup=4.0))
        assert comparison.ok
        assert comparison.counts() == {PASS: 2}

    def test_floor_violation_fails(self):
        reference = _reference(factor_once_speedup={"floor": 3.0})
        comparison = ResultComparator(reference).compare(
            _report(factor_once_speedup=2.0))
        assert not comparison.ok
        [failure] = comparison.failures
        assert failure.item == "metric:factor_once_speedup"
        assert failure.status == FAIL
        assert "floor" in failure.detail

    def test_missing_metric_fails(self):
        reference = _reference(factor_once_speedup={},
                               block_mg_speedup={})
        comparison = ResultComparator(reference).compare(
            _report(factor_once_speedup=4.0))
        assert not comparison.ok
        [failure] = comparison.failures
        assert failure.item == "metric:block_mg_speedup"
        assert failure.status == MISSING

    def test_extra_metric_is_untracked_not_failure(self):
        reference = _reference(factor_once_speedup={})
        comparison = ResultComparator(reference).compare(
            _report(factor_once_speedup=4.0, brand_new_metric=1.0))
        assert comparison.ok
        assert comparison.counts()[UNTRACKED] == 1

    def test_absent_bench_is_skipped_not_failure(self):
        reference = _reference(factor_once_speedup={})
        reference.metrics["inference"] = {"single_case_speedup_geomean":
                                          ToleranceSpec.from_dict({})}
        comparison = ResultComparator(reference).compare(
            _report(factor_once_speedup=4.0))
        assert comparison.ok
        assert comparison.counts()[SKIPPED] == 1

    def test_false_check_fails(self):
        reference = _reference()
        report = _report()
        report.results["solver_scaling"].checks[
            "solve_exact_at_every_size"] = False
        comparison = ResultComparator(reference).compare(report)
        assert not comparison.ok
        [failure] = comparison.failures
        assert failure.item == "check:solve_exact_at_every_size"

    def test_missing_check_fails(self):
        reference = _reference()
        report = _report()
        report.results["solver_scaling"].checks.clear()
        comparison = ResultComparator(reference).compare(report)
        assert not comparison.ok

    def test_tiered_run_skips_absent_metrics_and_checks(self):
        # a gating run produces only a script's parity half: its perf
        # metrics are skipped, not missing — CI's blocking tier must not
        # fail on metrics that tier cannot produce
        reference = _reference(factor_once_speedup={"floor": 3.0})
        report = _report()   # no perf metrics reported
        report.tier = "gating"
        report.results["solver_scaling"].checks.clear()
        comparison = ResultComparator(reference).compare(report)
        assert comparison.ok
        assert comparison.counts() == {SKIPPED: 2}

    def test_partial_run_skips_absent_metrics_and_checks(self):
        # `run --only NAME` is partial by construction: stale sibling
        # artifacts legitimately lack the metrics their unrun entries
        # would record, so absence skips instead of failing
        reference = _reference(factor_once_speedup={"floor": 3.0})
        report = _report()   # no perf metrics reported
        report.partial = True
        report.results["solver_scaling"].checks.clear()
        comparison = ResultComparator(reference).compare(report)
        assert comparison.ok
        assert comparison.counts() == {SKIPPED: 2}

    def test_partial_run_still_fails_on_violation(self):
        reference = _reference(factor_once_speedup={"floor": 3.0})
        report = _report(factor_once_speedup=2.0)
        report.partial = True
        comparison = ResultComparator(reference).compare(report)
        assert not comparison.ok

    def test_partial_flag_roundtrips_through_serialization(self):
        report = _report()
        report.partial = True
        again = BenchSuiteReport.from_dict(report.to_dict())
        assert again.partial is True
        assert BenchSuiteReport.from_dict(
            _report().to_dict()).partial is False

    def test_tiered_run_still_fails_on_violation(self):
        reference = _reference(factor_once_speedup={"floor": 3.0})
        report = _report(factor_once_speedup=2.0)
        report.tier = "gating"
        comparison = ResultComparator(reference).compare(report)
        assert not comparison.ok

    def test_summary_lists_failures(self):
        reference = _reference(factor_once_speedup={"floor": 3.0})
        comparison = ResultComparator(reference).compare(
            _report(factor_once_speedup=2.0))
        assert "FAIL solver_scaling metric:factor_once_speedup" \
            in comparison.summary()


class TestPerturbedMetricGate:
    """Acceptance demo: perturbing a reported metric below its committed
    floor must turn the comparator (and the CLI) red."""

    def _write_pair(self, tmp_path, measured):
        benchmarks = tmp_path / "benchmarks"
        report = _report(factor_once_speedup=measured)
        write_json(str(benchmarks / "artifacts" / "report.json"),
                   report.to_dict())
        reference = _reference(factor_once_speedup={"value": 4.0,
                                                    "floor": 3.0})
        write_json(str(benchmarks / "references" / "reference.json"),
                   reference.to_dict())
        return benchmarks

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        good = self._write_pair(tmp_path, measured=4.0)
        assert main(["--benchmarks", str(good), "compare"]) == 0

        bad = self._write_pair(tmp_path, measured=2.0)  # below floor 3.0
        assert main(["--benchmarks", str(bad), "compare"]) == 1
        assert "floor" in capsys.readouterr().out


class TestRebaseline:
    def test_values_refresh_specs_survive(self):
        previous = _reference(factor_once_speedup={"value": 4.0,
                                                   "floor": 3.0,
                                                   "note": "PR-4"})
        reference, warnings = rebaseline(
            _report(factor_once_speedup=5.0), previous)
        spec = reference.spec("solver_scaling", "factor_once_speedup")
        assert spec.value == 5.0
        assert spec.floor == 3.0
        assert spec.note == "PR-4"
        assert warnings == []

    def test_new_metric_gets_presence_spec(self):
        reference, _ = rebaseline(_report(brand_new=1.0), Reference.empty())
        spec = reference.spec("solver_scaling", "brand_new")
        assert spec.floor is None and spec.value == 1.0

    def test_false_check_baselined_with_warning(self):
        report = _report()
        report.results["solver_scaling"].checks["parity"] = False
        reference, warnings = rebaseline(report, Reference.empty())
        assert reference.checks["solver_scaling"]["parity"] is True
        assert any("parity" in w for w in warnings)

    def test_benches_absent_from_tiered_run_survive(self):
        previous = _reference(factor_once_speedup={"floor": 3.0})
        previous.metrics["inference"] = {
            "single_case_speedup_geomean":
                ToleranceSpec.from_dict({"floor": 1.7})}
        previous.checks["inference"] = {"float32_within_1e-4": True}
        reference, warnings = rebaseline(_report(factor_once_speedup=4.0),
                                         previous)
        assert reference.floor("inference", "single_case_speedup_geomean",
                               0.0) == 1.7
        assert reference.checks["inference"] == {"float32_within_1e-4": True}
        assert any("inference" in w for w in warnings)

    def test_tiered_run_keeps_specs_it_did_not_measure(self):
        # a gating run of solver_scaling reports its parity checks only;
        # the perf half's floors must survive the re-baseline
        previous = _reference(block_mg_speedup={"value": 3.2, "floor": 3.0},
                              factor_once_speedup={"value": 5.0,
                                                   "floor": 3.0})
        previous.checks["solver_scaling"]["block_cg_parity_with_direct"] = \
            True
        for tier, partial in (("gating", False), (None, True)):
            report = _report()
            report.tier, report.partial = tier, partial
            reference, warnings = rebaseline(report, previous)
            for name in ("block_mg_speedup", "factor_once_speedup"):
                assert reference.floor("solver_scaling", name, 0.0) == 3.0
            assert reference.checks["solver_scaling"] == {
                "solve_exact_at_every_size": True,
                "block_cg_parity_with_direct": True}
            assert any("block_mg_speedup" in w for w in warnings)
            assert ResultComparator(reference).compare(report).ok

    def test_full_run_rebaseline_records_the_report_only(self):
        previous = _reference(block_mg_speedup={"floor": 3.0})
        reference, _ = rebaseline(_report(), previous)
        assert reference.spec("solver_scaling", "block_mg_speedup") is None
