"""Fault injection at the ingest points: ``ingest.read`` /
``ingest.parse`` / ``ingest.rasterize``.

The contract under chaos: transient read faults are absorbed by the
retry loop; persistent ones surface as :class:`DeckReadError`; parse
and raster injections surface as the stage's typed refusal or
degradation — never as a raw :class:`InjectedFaultError`.
"""

import pytest

from repro import knobs
from repro.faults.backoff import BackoffPolicy
from repro.faults.degrade import DegradationLog
from repro.faults.plan import FaultPlan, FaultRule, InjectedFaultError
from repro.faults.points import inject
from repro.ingest import (
    DeckParseError,
    DeckReadError,
    IngestError,
    ingest_deck,
)
from repro.ingest import pipeline


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(pipeline, "READ_POLICY",
                        BackoffPolicy(base_s=0.0, cap_s=0.0, jitter=0.0))


def _plan(point: str, at) -> FaultPlan:
    return FaultPlan(seed=7, rules=[FaultRule(point=point, action="error",
                                              at=tuple(at))])


@pytest.fixture
def deck(fixtures_dir):
    return str(fixtures_dir / "pdn_small.sp")


class TestReadPoint:
    def test_transient_fault_absorbed_by_retry(self, deck):
        with inject(_plan("ingest.read", at=(1,))) as plan:
            result = ingest_deck(deck)
        assert result.report.outcome == "solved"
        assert plan.log  # the fault really fired

    def test_persistent_fault_becomes_typed_refusal(self, deck):
        assert pipeline.READ_RETRIES == 2
        with inject(_plan("ingest.read", at=(1, 2, 3))):
            with pytest.raises(DeckReadError) as info:
                ingest_deck(deck)
        assert info.value.code == "read"
        assert "injected fault" in str(info.value)


class TestParsePoint:
    def test_injection_is_a_parse_refusal(self, deck):
        with inject(_plan("ingest.parse", at=(1,))):
            with pytest.raises(DeckParseError) as info:
                ingest_deck(deck)
        assert info.value.code == "parse"
        assert "injected fault" in str(info.value)
        assert info.value.report.outcome == "refused"


class TestRasterizePoint:
    def test_injection_degrades_to_solve_only(self, deck):
        log = DegradationLog()
        with inject(_plan("ingest.rasterize", at=(1,))):
            result = ingest_deck(deck, degradations=log)
        assert result.report.outcome == "solved"
        assert result.case is None
        events = log.events("ingest.pipeline")
        assert len(events) == 1
        assert events[0].to_mode == "solve-only"
        assert "InjectedFaultError" in events[0].reason


class TestNoRawEscape:
    def test_injected_faults_never_escape_untyped(self, deck):
        for point in ("ingest.parse", "ingest.rasterize"):
            with inject(_plan(point, at=(1,))):
                try:
                    ingest_deck(deck)
                except InjectedFaultError as error:  # pragma: no cover
                    pytest.fail(f"raw injected fault escaped at {point}: "
                                f"{error}")
                except Exception as error:
                    assert isinstance(error, IngestError)

    def test_malformed_knobs_never_escape_untyped(self, deck, monkeypatch):
        """No ``REPRO_*`` value, however malformed, turns an ingestion
        into anything but a result or a typed refusal."""
        escaped = {}
        for name in knobs.KNOBS:
            monkeypatch.setenv(name, "abc")
            try:
                ingest_deck(deck)
            except IngestError:
                pass
            except Exception as error:
                escaped[name] = f"{type(error).__name__}: {error}"
            monkeypatch.delenv(name)
        assert not escaped
