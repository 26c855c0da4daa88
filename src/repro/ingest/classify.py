"""Deck classification: what kind of circuit did we just parse?

The tolerant parser accepts any text and returns the ``R/I/V`` subset it
could represent plus diagnostics for everything it skipped.
Classification looks at both halves and names the deck:

* ``pdn-grid`` — solvable PDN whose node names carry contest grid
  coordinates (``n{net}_m{layer}_{x}_{y}``): the full
  rasterize → solve → predict pipeline applies.
* ``pdn-coordinate-free`` — solvable R/I/V netlist with foreign node
  names: the solver still works (CG falls back to the
  incomplete-Cholesky preconditioner — no geometry needed), but there
  is nothing to rasterize, so the pipeline degrades to solve-only.
* ``analog`` — transistor cards (M/Q/J/X) or subcircuit/model structure
  dominate: a comparator/OTA-style deck.  Refused with the evidence —
  a static PDN solve of its parasitic resistors would be meaningless.
* ``empty`` — nothing solvable survived parsing (garbage, truncated or
  binary content).

The classifier never raises: it returns a verdict the pipeline turns
into a typed refusal or a degradation rung.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.spice.netlist import Netlist
from repro.spice.parser import Diagnostic, TRANSISTOR_PREFIXES

__all__ = ["DeckClassification", "classify_deck", "DECK_CATEGORIES"]

DECK_CATEGORIES = ("pdn-grid", "pdn-coordinate-free", "analog", "empty")


@dataclass(frozen=True)
class DeckClassification:
    """The classifier's verdict plus the evidence it rests on."""

    category: str            # one of DECK_CATEGORIES
    reason: str              # human-readable evidence summary
    supported_elements: int  # accepted R/I/V cards
    skipped_elements: int    # element cards the parser dropped
    transistor_cards: int    # M/Q/J/X cards among the skipped
    structural_directives: int  # .subckt/.model/.macro sightings
    grid_nodes: int          # non-ground nodes with contest coordinates
    foreign_nodes: int       # non-ground nodes without

    def to_dict(self) -> dict:
        return {
            "category": self.category,
            "reason": self.reason,
            "supported_elements": self.supported_elements,
            "skipped_elements": self.skipped_elements,
            "transistor_cards": self.transistor_cards,
            "structural_directives": self.structural_directives,
            "grid_nodes": self.grid_nodes,
            "foreign_nodes": self.foreign_nodes,
        }


def _skip_counts(diagnostics: Sequence[Diagnostic]) -> Tuple[int, int, int]:
    """(skipped element cards, transistor cards, structural directives)."""
    skipped = transistors = structural = 0
    for diag in diagnostics:
        if diag.code == "element-skipped":
            skipped += 1
            if diag.element in TRANSISTOR_PREFIXES:
                transistors += 1
        elif diag.code == "directive-structural":
            structural += 1
    return skipped, transistors, structural


def classify_deck(netlist: Netlist,
                  diagnostics: Sequence[Diagnostic] = ()) -> DeckClassification:
    """Classify a tolerantly parsed deck (see module docstring)."""
    table = netlist.node_table()
    supported = sum(table.element_counts())
    skipped, transistors, structural = _skip_counts(diagnostics)

    grid = int(table.columns.grid.sum())
    foreign = len(table.names) - grid

    def verdict(category: str, reason: str) -> DeckClassification:
        return DeckClassification(
            category=category, reason=reason,
            supported_elements=supported, skipped_elements=skipped,
            transistor_cards=transistors,
            structural_directives=structural,
            grid_nodes=grid, foreign_nodes=foreign)

    if transistors > 0 or structural > 0:
        return verdict(
            "analog",
            f"{transistors} transistor/subcircuit card(s) and "
            f"{structural} structural directive(s): a non-linear analog "
            f"deck, not a PDN")
    if supported == 0:
        return verdict(
            "empty",
            f"no solvable R/I/V elements survived parsing "
            f"({skipped} unsupported card(s) skipped)")
    if foreign == 0:
        return verdict(
            "pdn-grid",
            f"all {grid} node(s) carry contest grid coordinates")
    return verdict(
        "pdn-coordinate-free",
        f"{foreign} of {grid + foreign} node(s) lack grid coordinates; "
        f"solvable, but not rasterizable")
