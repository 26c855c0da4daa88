"""Tolerance specs and the report-vs-reference comparator.

The committed reference (``benchmarks/references/reference.json``) gives
every tracked metric a declarative :class:`ToleranceSpec` — the floors
that used to live as per-script module constants
(``SINGLE_CASE_FLOOR = 1.7`` and friends) move here, so a perf claim is
regressed the moment a run's ``report.json`` violates its spec, and the
bench scripts themselves read their assertion floors from the same file
(:meth:`Reference.floor`).

Spec fields (all optional, any combination):

``value``
    the recorded baseline measurement (context for humans and the
    ``abs``/``rel`` bands; required when either band is present);
``floor`` / ``ceiling``
    hard bounds on the measured value (speedup floors, memory ceilings);
``abs`` / ``rel``
    symmetric bands around ``value``;
``note``
    free-form human context, never evaluated.

A spec of ``{}`` is a *presence* spec: the metric must exist in the
report (the fleet-completeness guarantee) but any value passes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchSuiteReport,
    SchemaVersionError,
)

__all__ = [
    "ToleranceSpec",
    "Reference",
    "load_reference",
    "Verdict",
    "Comparison",
    "ResultComparator",
    "rebaseline",
]

_SPEC_KEYS = {"value", "abs", "rel", "floor", "ceiling", "note"}


@dataclass(frozen=True)
class ToleranceSpec:
    """Declarative acceptance band for one metric."""

    value: Optional[float] = None
    abs: Optional[float] = None
    rel: Optional[float] = None
    floor: Optional[float] = None
    ceiling: Optional[float] = None
    note: str = ""

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any],
                  where: str = "spec") -> "ToleranceSpec":
        unknown = set(payload) - _SPEC_KEYS
        if unknown:
            raise ValueError(
                f"{where}: unknown tolerance keys {sorted(unknown)} "
                f"(allowed: {sorted(_SPEC_KEYS)})")
        spec = cls(
            value=_number(payload, "value", where),
            abs=_number(payload, "abs", where),
            rel=_number(payload, "rel", where),
            floor=_number(payload, "floor", where),
            ceiling=_number(payload, "ceiling", where),
            note=str(payload.get("note", "")),
        )
        if (spec.abs is not None or spec.rel is not None) \
                and spec.value is None:
            raise ValueError(
                f"{where}: abs/rel bands need a reference 'value'")
        if spec.abs is not None and spec.abs < 0:
            raise ValueError(f"{where}: abs band must be >= 0")
        if spec.rel is not None and spec.rel < 0:
            raise ValueError(f"{where}: rel band must be >= 0")
        return spec

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {}
        for key in ("value", "abs", "rel", "floor", "ceiling"):
            attr = getattr(self, key)
            if attr is not None:
                payload[key] = attr
        if self.note:
            payload["note"] = self.note
        return payload

    def violations(self, measured: float) -> List[str]:
        """Every way ``measured`` breaks this spec (empty = pass)."""
        problems: List[str] = []
        if self.floor is not None and measured < self.floor:
            problems.append(f"{measured:g} < floor {self.floor:g}")
        if self.ceiling is not None and measured > self.ceiling:
            problems.append(f"{measured:g} > ceiling {self.ceiling:g}")
        if self.abs is not None and abs(measured - self.value) > self.abs:
            problems.append(
                f"|{measured:g} - {self.value:g}| > abs band {self.abs:g}")
        if self.rel is not None \
                and abs(measured - self.value) > self.rel * abs(self.value):
            problems.append(
                f"|{measured:g} - {self.value:g}| > rel band "
                f"{self.rel:g} x |{self.value:g}|")
        return problems


def _number(payload: Mapping[str, Any], key: str,
            where: str) -> Optional[float]:
    if key not in payload:
        return None
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: {key} must be a number, got {value!r}")
    return float(value)


@dataclass
class Reference:
    """Parsed committed reference: per-bench metric specs and expected
    checks.  ``Reference.empty()`` (no file yet) makes every lookup fall
    back to the caller's default, so the fleet still runs pre-baseline."""

    metrics: Dict[str, Dict[str, ToleranceSpec]] = field(default_factory=dict)
    checks: Dict[str, Dict[str, bool]] = field(default_factory=dict)
    fingerprint: Dict[str, Any] = field(default_factory=dict)
    generated_at: str = ""

    @classmethod
    def empty(cls) -> "Reference":
        return cls()

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Reference":
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"reference: schema_version {version!r} != supported "
                f"{SCHEMA_VERSION}")
        metrics: Dict[str, Dict[str, ToleranceSpec]] = {}
        checks: Dict[str, Dict[str, bool]] = {}
        for bench, entry in payload.get("benchmarks", {}).items():
            metrics[bench] = {
                name: ToleranceSpec.from_dict(spec, f"{bench}.{name}")
                for name, spec in entry.get("metrics", {}).items()}
            checks[bench] = {name: bool(expected) for name, expected
                             in entry.get("checks", {}).items()}
        return cls(metrics=metrics, checks=checks,
                   fingerprint=dict(payload.get("fingerprint", {})),
                   generated_at=str(payload.get("generated_at", "")))

    def to_dict(self) -> Dict[str, Any]:
        benchmarks: Dict[str, Any] = {}
        for bench in sorted(set(self.metrics) | set(self.checks)):
            benchmarks[bench] = {
                "metrics": {name: spec.to_dict() for name, spec
                            in self.metrics.get(bench, {}).items()},
                "checks": dict(self.checks.get(bench, {})),
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "generated_at": self.generated_at,
            "fingerprint": dict(self.fingerprint),
            "benchmarks": benchmarks,
        }

    def spec(self, bench: str, metric: str) -> Optional[ToleranceSpec]:
        return self.metrics.get(bench, {}).get(metric)

    def floor(self, bench: str, metric: str, default: float) -> float:
        """The assertion floor bench scripts read instead of hardcoding.

        Falls back to ``default`` only when the reference has no spec
        (or no floor) for the metric — i.e. before the first baseline.
        """
        spec = self.spec(bench, metric)
        if spec is not None and spec.floor is not None:
            return spec.floor
        return default

    def ceiling(self, bench: str, metric: str, default: float) -> float:
        spec = self.spec(bench, metric)
        if spec is not None and spec.ceiling is not None:
            return spec.ceiling
        return default


def load_reference(path: str, missing_ok: bool = True) -> Reference:
    """Load the committed reference; absent file -> :meth:`Reference.empty`.

    Schema-version mismatches and malformed specs always raise — a
    reference that cannot be interpreted must never silently pass."""
    if not os.path.exists(path):
        if missing_ok:
            return Reference.empty()
        raise FileNotFoundError(path)
    with open(path) as handle:
        return Reference.from_dict(json.load(handle))


# verdict statuses
PASS = "pass"
FAIL = "fail"
MISSING = "missing"        # reference expects it, report lacks it
UNTRACKED = "untracked"    # report has it, reference has no spec
SKIPPED = "skipped"        # whole bench absent from this (tiered) run


@dataclass(frozen=True)
class Verdict:
    bench: str
    item: str       # "metric:<name>" or "check:<name>"
    status: str
    detail: str = ""
    measured: Optional[float] = None

    @property
    def failed(self) -> bool:
        return self.status in (FAIL, MISSING)


@dataclass
class Comparison:
    verdicts: List[Verdict] = field(default_factory=list)

    @property
    def failures(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.failed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for verdict in self.verdicts:
            tally[verdict.status] = tally.get(verdict.status, 0) + 1
        return tally

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{counts.get(status, 0)} {status}"
                 for status in (PASS, FAIL, MISSING, UNTRACKED, SKIPPED)
                 if counts.get(status)]
        lines = ["comparison: " + (", ".join(parts) or "nothing compared")]
        for verdict in self.failures:
            lines.append(
                f"  FAIL {verdict.bench} {verdict.item}: {verdict.detail}")
        return "\n".join(lines)


class ResultComparator:
    """Diff a :class:`BenchSuiteReport` against the committed reference.

    Per-bench rules:

    * a bench in the reference but absent from the report is *skipped*
      (tier-filtered runs legitimately omit whole benches);
    * within a reported bench, a referenced metric/check that the report
      lacks is **missing** (a failure — the fleet shrank) on a full run;
      on a tier-filtered run (``report.tier`` set) or an
      ``--only``-restricted one (``report.partial``) it is *skipped*,
      because one script's parity and perf entries live in different
      tiers and a gating run only produces the parity half;
    * a reported metric with no spec is *untracked* (informative);
    * a check must be ``True`` when the reference expects ``True``.
    """

    def __init__(self, reference: Reference):
        self.reference = reference

    def compare(self, report: BenchSuiteReport) -> Comparison:
        comparison = Comparison()
        full_run = report.tier is None and not getattr(
            report, "partial", False)
        absent = MISSING if full_run else SKIPPED
        ref_benches = set(self.reference.metrics) | set(self.reference.checks)
        for bench in sorted(ref_benches - set(report.results)):
            comparison.verdicts.append(Verdict(
                bench=bench, item="bench", status=SKIPPED,
                detail="not in this run"))
        for bench, result in sorted(report.results.items()):
            specs = self.reference.metrics.get(bench, {})
            expected_checks = self.reference.checks.get(bench, {})
            for name, spec in sorted(specs.items()):
                metric = result.metrics.get(name)
                if metric is None:
                    comparison.verdicts.append(Verdict(
                        bench=bench, item=f"metric:{name}", status=absent,
                        detail="referenced metric absent from report"))
                    continue
                problems = spec.violations(metric.value)
                comparison.verdicts.append(Verdict(
                    bench=bench, item=f"metric:{name}",
                    status=FAIL if problems else PASS,
                    detail="; ".join(problems), measured=metric.value))
            for name in sorted(set(result.metrics) - set(specs)):
                comparison.verdicts.append(Verdict(
                    bench=bench, item=f"metric:{name}", status=UNTRACKED,
                    detail="no tolerance spec in reference",
                    measured=result.metrics[name].value))
            for name, expected in sorted(expected_checks.items()):
                if name not in result.checks:
                    comparison.verdicts.append(Verdict(
                        bench=bench, item=f"check:{name}", status=absent,
                        detail="referenced check absent from report"))
                elif bool(result.checks[name]) != expected:
                    comparison.verdicts.append(Verdict(
                        bench=bench, item=f"check:{name}", status=FAIL,
                        detail=f"check is {result.checks[name]}, "
                               f"reference expects {expected}"))
                else:
                    comparison.verdicts.append(Verdict(
                        bench=bench, item=f"check:{name}", status=PASS))
        return comparison


def rebaseline(report: BenchSuiteReport,
               previous: Reference) -> Tuple[Reference, List[str]]:
    """Build a fresh reference from ``report``, keeping existing specs.

    Measured values refresh the ``value`` field of every spec; floors,
    ceilings and bands carry over untouched (re-baselining records new
    numbers, it never loosens a gate by itself).  New metrics get a
    presence-only ``{}`` spec; checks are expected ``True``.  A
    tier-filtered or ``--only`` report (the runs whose absent metrics
    the comparator *skips*) keeps the previous specs and checks it lacks:
    a gating run carries one script's parity half only.  Returns the
    new reference plus human-readable warnings (e.g. a check measured
    ``False`` that is still baselined as expected-``True``).
    """
    warnings: List[str] = []
    reference = Reference(fingerprint=dict(report.fingerprint),
                          generated_at=report.generated_at)
    keep_absent = report.tier is not None or report.partial
    for bench, result in sorted(report.results.items()):
        reference.metrics[bench] = {}
        reference.checks[bench] = {}
        if keep_absent:
            reference.metrics[bench].update(previous.metrics.get(bench, {}))
            reference.checks[bench].update(previous.checks.get(bench, {}))
            kept = sorted(
                (set(reference.metrics[bench]) - set(result.metrics))
                | (set(reference.checks[bench]) - set(result.checks)))
            if kept:
                warnings.append(f"{bench}: kept previous specs not in this "
                                f"run: {', '.join(kept)}")
        for name, metric in sorted(result.metrics.items()):
            old = previous.spec(bench, name)
            payload = old.to_dict() if old is not None else {}
            payload["value"] = metric.value
            reference.metrics[bench][name] = ToleranceSpec.from_dict(
                payload, f"{bench}.{name}")
        for name, passed in sorted(result.checks.items()):
            reference.checks[bench][name] = True
            if not passed:
                warnings.append(
                    f"{bench} check:{name} measured False but is "
                    "baselined as expected-True — fix it before trusting "
                    "the gate")
    # keep referenced benches that this (possibly tier-filtered) run
    # did not touch: re-baselining a gating run must not drop perf specs
    for bench in set(previous.metrics) - set(report.results):
        reference.metrics[bench] = dict(previous.metrics[bench])
        reference.checks[bench] = dict(previous.checks.get(bench, {}))
        warnings.append(f"{bench}: kept previous specs (not in this run)")
    return reference, warnings
