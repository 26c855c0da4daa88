"""The typed refusal taxonomy of the ingestion front door.

Every way a foreign deck can fail to become a prediction has a named
:class:`IngestError` subclass carrying the structured
:class:`~repro.spice.parser.Diagnostic` records accumulated up to the
failure, plus the partially built
:class:`~repro.ingest.report.IngestReport` — so a refusal is an
*artifact* (machine-readable reasons, provenance, degradation trail),
never a traceback.

The codes are stable strings; quarantine records in suite manifests and
``IngestReport.error.code`` both use them:

==================  ====================================================
code                meaning
==================  ====================================================
``read``            deck bytes could not be read/decoded
``parse``           strict-mode syntax error, or nothing usable parsed
``non-pdn``         classified as an analog/non-PDN deck and refused
``validate``        structurally unsolvable (no supply, floating nodes)
``solve``           the golden solve itself failed
==================  ====================================================
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.spice.parser import Diagnostic

__all__ = [
    "Diagnostic", "IngestError", "DeckReadError", "DeckParseError",
    "NonPDNDeckError", "DeckValidationError", "IngestSolveError",
]


class IngestError(Exception):
    """Base of the typed ingestion refusals.

    ``diagnostics`` carries every structured finding collected before
    the refusal; ``report`` (when set by the pipeline) is the partial
    :class:`~repro.ingest.report.IngestReport`, already stamped with the
    refusal, ready to be serialized.
    """

    code = "ingest"

    def __init__(self, message: str,
                 diagnostics: Optional[Sequence[Diagnostic]] = None,
                 report=None):
        super().__init__(message)
        self.diagnostics: List[Diagnostic] = list(diagnostics or [])
        self.report = report

    @property
    def reason(self) -> str:
        return str(self)


class DeckReadError(IngestError):
    """The deck file could not be read or decoded."""

    code = "read"


class DeckParseError(IngestError):
    """Syntax rejection (strict mode) or nothing usable survived parsing."""

    code = "parse"


class NonPDNDeckError(IngestError):
    """The deck is a recognisable netlist, but not a PDN: transistor
    cards, subcircuit/model structure, or no solvable R/I/V content —
    classified and refused with the evidence, never solved blind."""

    code = "non-pdn"


class DeckValidationError(IngestError):
    """Parsed fine but structurally unsolvable (no supply, floating
    subgrids, duplicate element names)."""

    code = "validate"


class IngestSolveError(IngestError):
    """The golden solve refused or stalled on the adapted netlist."""

    code = "solve"
