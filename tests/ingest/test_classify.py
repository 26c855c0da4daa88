"""Deck classification: the ingest pipeline's triage step."""

import pytest

from repro.ingest.classify import DECK_CATEGORIES, classify_deck
from repro.spice.parser import parse_spice


def _classify(text: str):
    diagnostics = []
    netlist = parse_spice(text, mode="tolerant", diagnostics=diagnostics)
    return classify_deck(netlist, diagnostics)


GRID = """\
R1 n1_m1_0_0 n1_m1_2000_0 0.4
I1 n1_m1_0_0 0 0.003
V1 n1_m1_2000_0 0 1.05
"""

FOREIGN = """\
Rpad vdd_pad vdd_rail 0.05
Iload vdd_rail 0 0.01
Vsup vdd_pad 0 1.2
"""


class TestCategories:
    def test_contest_grid(self):
        verdict = _classify(GRID)
        assert verdict.category == "pdn-grid"
        assert verdict.foreign_nodes == 0
        assert verdict.grid_nodes == 2

    def test_coordinate_free(self):
        verdict = _classify(FOREIGN)
        assert verdict.category == "pdn-coordinate-free"
        assert verdict.foreign_nodes > 0

    def test_mixed_names_count_both(self):
        verdict = _classify(GRID + "Rx n1_m1_0_0 someforeign 0.1\n")
        assert verdict.category == "pdn-coordinate-free"
        assert verdict.grid_nodes == 2
        assert verdict.foreign_nodes == 1

    def test_transistor_cards_mark_analog(self):
        verdict = _classify(GRID + "M1 d g s b nch w=1u l=0.1u\n")
        assert verdict.category == "analog"
        assert verdict.transistor_cards == 1
        assert "transistor" in verdict.reason or "analog" in verdict.reason

    def test_structural_directive_marks_analog(self):
        verdict = _classify(".subckt amp in out\n" + GRID)
        assert verdict.category == "analog"
        assert verdict.structural_directives == 1

    def test_subckt_instance_marks_analog(self):
        verdict = _classify(GRID + "Xamp a b c amp\n")
        assert verdict.category == "analog"

    def test_empty_deck(self):
        verdict = _classify("* nothing\n.end\n")
        assert verdict.category == "empty"
        assert verdict.supported_elements == 0

    def test_passive_skips_do_not_make_analog(self):
        verdict = _classify(GRID + "C1 n1_m1_0_0 0 1p\nL1 a b 1n\n")
        assert verdict.category == "pdn-grid"
        assert verdict.skipped_elements >= 2


class TestContract:
    def test_categories_are_registered(self):
        for text in (GRID, FOREIGN, "* x\n"):
            assert _classify(text).category in DECK_CATEGORIES

    def test_to_dict_is_json_shaped(self):
        payload = _classify(GRID).to_dict()
        assert payload["category"] == "pdn-grid"
        for key in ("reason", "supported_elements", "skipped_elements",
                    "transistor_cards", "structural_directives",
                    "grid_nodes", "foreign_nodes"):
            assert key in payload

    def test_classification_is_frozen(self):
        verdict = _classify(GRID)
        with pytest.raises(AttributeError):
            verdict.category = "analog"
