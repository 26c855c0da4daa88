"""End-to-end contracts of the hardened ingestion pipeline.

Fixture decks (``tests/fixtures/spice/``) stand in for what real users
mail in: a contest-style grid, a solvable deck with human node names,
and two analog circuits.  Every path must end in an
:class:`IngestResult` or a typed :class:`IngestError` — never a raw
traceback.
"""

import numpy as np
import pytest

from repro.data.synthesis import synthesize_case
from repro.faults.degrade import DegradationLog
from repro.ingest import (
    DeckParseError,
    DeckReadError,
    DeckValidationError,
    IngestError,
    NonPDNDeckError,
    ingest_deck,
    ingest_text,
)
from repro.spice.writer import write_spice


@pytest.fixture
def log():
    return DegradationLog()


class TestGridDeck:
    def test_full_pipeline_without_predictor(self, fixtures_dir, log):
        result = ingest_deck(str(fixtures_dir / "pdn_small.sp"),
                             degradations=log)
        report = result.report
        assert report.outcome == "solved"          # no predictor supplied
        assert report.ok
        assert result.case is not None
        assert result.case.kind == "ingested"
        assert result.case.name == "pdn_small"
        assert report.classification["category"] == "pdn-grid"
        assert report.netlist == {"nodes": 11, "resistors": 14,
                                  "current_sources": 4,
                                  "voltage_sources": 1}
        assert report.solve["vdd"] == pytest.approx(1.05)
        assert report.solve["worst_drop"] > 0
        assert report.solve["raster_shape"] == list(result.golden_map.shape)
        assert len(log.events()) == 0              # nothing degraded

    def test_tolerant_diagnostics_recorded(self, fixtures_dir):
        result = ingest_deck(str(fixtures_dir / "pdn_small.sp"))
        codes = {d.code for d in result.report.diagnostics}
        assert "directive-skipped" in codes        # the .temp card

    def test_strict_mode_refuses_directive(self, fixtures_dir):
        with pytest.raises(DeckParseError) as info:
            ingest_deck(str(fixtures_dir / "pdn_small.sp"), mode="strict")
        assert info.value.code == "parse"
        assert info.value.report.mode == "strict"

    def test_stage_timings_accounted(self, fixtures_dir):
        result = ingest_deck(str(fixtures_dir / "pdn_small.sp"))
        for stage in ("read", "parse", "solve", "rasterize"):
            assert result.report.timings_s[stage] >= 0

    def test_report_deck_is_the_file_path(self, fixtures_dir):
        path = str(fixtures_dir / "pdn_small.sp")
        assert ingest_deck(path).report.deck == path


class TestCoordinateFreeDeck:
    def test_degrades_to_solve_only(self, fixtures_dir, log):
        result = ingest_deck(str(fixtures_dir / "coordinate_free.sp"),
                             degradations=log)
        assert result.report.outcome == "solved"
        assert result.case is None
        assert result.golden_map is None
        assert result.classification.category == "pdn-coordinate-free"
        events = log.events("ingest.pipeline")
        assert len(events) == 1
        assert (events[0].from_mode, events[0].to_mode) == \
            ("raster", "solve-only")
        assert result.report.degradations[0]["to"] == "solve-only"

    def test_solve_numbers_are_physical(self, fixtures_dir):
        result = ingest_deck(str(fixtures_dir / "coordinate_free.sp"))
        assert result.solve.vdd == pytest.approx(1.2)
        assert 0 < result.solve.worst_drop < 1.2
        # "nodes" counts the solver's free unknowns: every node except
        # the one pinned by the single supply
        assert result.report.solve["nodes"] == \
            len(result.solve.node_voltages) - 1


class TestAnalogDecks:
    @pytest.mark.parametrize("deck", ["comparator.sp", "ota.sp"])
    def test_refused_with_evidence(self, fixtures_dir, deck):
        with pytest.raises(NonPDNDeckError) as info:
            ingest_deck(str(fixtures_dir / deck))
        error = info.value
        assert error.code == "non-pdn"
        report = error.report
        assert report is not None
        assert report.outcome == "refused"
        assert report.error_code == "non-pdn"
        assert report.classification["category"] == "analog"
        assert report.classification["transistor_cards"] > 0
        # the skipped transistor cards are in the diagnostics as evidence
        assert any(d.code == "element-skipped" and d.element in "mqjx"
                   for d in error.diagnostics)


class TestReadStage:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DeckReadError) as info:
            ingest_deck(str(tmp_path / "nope.sp"))
        assert info.value.code == "read"
        assert "does not exist" in str(info.value)

    def test_binary_file(self, corpus_dir):
        with pytest.raises(DeckReadError) as info:
            ingest_deck(str(corpus_dir / "binary.sp"))
        assert "not text" in str(info.value)


class TestRasterGuard:
    def test_absurd_die_degrades_to_solve_only(self, fixtures_dir, log):
        result = ingest_deck(str(fixtures_dir / "pdn_small.sp"),
                             raster_limit_px=4, degradations=log)
        assert result.report.outcome == "solved"
        assert result.case is None
        reason = log.events("ingest.pipeline")[0].reason
        assert "pixel guard" in reason

    def test_grounded_supply_does_not_set_vdd(self):
        result = ingest_text("R1 n1_m1_0_0 n1_m1_1000_0 1.0\n"
                             "I1 n1_m1_1000_0 0 0.1\n"
                             "V0 0 0 2.0\n"
                             "V1 n1_m1_0_0 0 1.0\n")
        assert result.report.solve["vdd"] == 1.0
        assert result.report.solve["worst_drop"] == pytest.approx(0.1)
        assert [d.code for d in result.report.diagnostics] == \
            ["grounded-source"]


class TestGoldenParity:
    """Re-ingesting a written suite case reproduces its golden data."""

    @pytest.fixture(scope="class")
    def case(self):
        return synthesize_case("fake", seed=7)

    def test_node_voltage_parity_is_exact(self, case):
        # repr-exact writer: the written deck re-solves to the same bits
        from repro.solver.factorized import FactorizedPDN
        reference = FactorizedPDN(case.netlist).solve()
        result = ingest_text(write_spice(case.netlist), name=case.name)
        assert result.solve.node_voltages == reference.node_voltages

    def test_golden_raster_parity(self, case):
        # synthesis smooths with sigma=2.5 and the template die can be
        # wider than the node bounding box, so both are passed explicitly
        result = ingest_text(write_spice(case.netlist), name=case.name,
                             raster_shape=case.ir_map.shape,
                             smooth_sigma=2.5)
        assert result.case is not None
        assert np.abs(result.golden_map - case.ir_map).max() < 1e-9


class TestTaxonomy:
    def test_every_error_carries_a_stamped_report(self, fixtures_dir,
                                                  corpus_dir):
        decks = [corpus_dir / name for name in (
            "truncated.sp", "garbage.sp", "no_supply.sp")]
        decks.append(fixtures_dir / "ota.sp")
        for deck in decks:
            with pytest.raises(IngestError) as info:
                ingest_deck(str(deck))
            report = info.value.report
            assert report is not None
            assert report.outcome == "refused"
            assert report.error_code == info.value.code
            assert report.deck == str(deck)

    def test_validation_errors_become_diagnostics(self, corpus_dir):
        with pytest.raises(DeckValidationError) as info:
            ingest_deck(str(corpus_dir / "no_supply.sp"))
        assert any(d.code == "validation" and d.severity == "error"
                   for d in info.value.diagnostics)
