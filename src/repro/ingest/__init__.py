"""``repro.ingest`` — the hardened real-netlist ingestion front door.

Everything between a raw SPICE deck of unknown provenance and a model
prediction: tolerant parsing with structured diagnostics
(:mod:`repro.spice.parser`), deck classification
(:mod:`~repro.ingest.classify`), the typed refusal taxonomy
(:mod:`~repro.ingest.diagnostics`), the end-to-end pipeline with
graceful degradation (:mod:`~repro.ingest.pipeline`) and the
machine-readable report (:mod:`~repro.ingest.report`).

Run it: ``python -m repro.ingest deck.sp``.
"""

from repro.ingest.classify import (
    DECK_CATEGORIES, DeckClassification, classify_deck,
)
from repro.ingest.diagnostics import (
    DeckParseError,
    DeckReadError,
    DeckValidationError,
    Diagnostic,
    IngestError,
    IngestSolveError,
    NonPDNDeckError,
)
from repro.ingest.pipeline import (
    DEFAULT_RASTER_LIMIT_PX, IngestResult, ingest_deck, ingest_text,
)
from repro.ingest.report import INGEST_OUTCOMES, REPORT_FORMAT, IngestReport

__all__ = [
    "Diagnostic", "IngestError", "DeckReadError", "DeckParseError",
    "NonPDNDeckError", "DeckValidationError", "IngestSolveError",
    "DeckClassification", "classify_deck", "DECK_CATEGORIES",
    "IngestReport", "REPORT_FORMAT", "INGEST_OUTCOMES",
    "IngestResult", "ingest_deck", "ingest_text",
    "DEFAULT_RASTER_LIMIT_PX",
]
