"""SPICE netlist parsing (ICCAD-2023 contest dialect, plus a tolerant
mode for foreign decks).

The contest files are flat: one element per line, ``R/I/V`` prefixes,
``*`` comments, optional ``.end``.  Values may use plain/scientific
notation or the common SPICE engineering suffixes (``k``, ``meg``, ``m``,
``u``, ``n``, ``p``).

Real-world decks are messier, so the parser has two modes:

* ``mode="strict"`` (default, the historic behaviour): anything outside
  the contest dialect raises :class:`SpiceParseError` with line context.
* ``mode="tolerant"`` (the ingestion front door): unsupported element
  cards (transistors, capacitors, controlled sources, ...), benign
  analysis directives (``.option``, ``.temp``, ``.tran``, ...) and
  malformed lines are *skipped*, each leaving a structured
  :class:`Diagnostic` record (severity, line provenance, reason) in the
  caller-supplied collector instead of aborting the parse.

Both modes share one line scanner that understands ``+`` continuation
lines and inline ``$``/``;`` comments, and both apply *typed* value
rejection: a non-finite or non-positive resistor value is never accepted
silently (``nan`` used to pass the sign checks and detonate inside the
solver).

The scanner writes accepted elements straight into columns
(:class:`~repro.spice.netlist.ColumnBuilder`), no element objects.  A
*clean* contest line (four tokens, an ``R``/``I``/``V`` card, a plain
numeric value, no comment marker, not continued on a later line,
sources written ``X n 0``) whose element passes the element checks is
appended on a fast path.  Every other line goes, in line order, to the
per-card code both modes share, so the diagnostics and errors are the
ones that code gives when it parses every line.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple

from repro.spice.elements import CurrentSource, Resistor, VoltageSource
from repro.spice.netlist import (
    CURRENT, RESISTOR, VOLTAGE, ColumnBuilder, Netlist,
)
from repro.spice.nodes import GROUND

__all__ = [
    "parse_spice", "parse_spice_file", "parse_value", "SpiceParseError",
    "Diagnostic", "PARSE_MODES", "BENIGN_DIRECTIVES",
    "STRUCTURAL_DIRECTIVES", "TRANSISTOR_PREFIXES", "PASSIVE_PREFIXES",
]

_SUFFIXES = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
}

PARSE_MODES = ("strict", "tolerant")

#: Analysis/bookkeeping directives a PDN ingest can safely ignore — they
#: do not change the DC-linear circuit the solver sees.
BENIGN_DIRECTIVES = frozenset((
    ".op", ".end", ".ends", ".option", ".options", ".temp", ".tran",
    ".dc", ".ac", ".print", ".plot", ".probe", ".meas", ".measure",
    ".save", ".ic", ".nodeset", ".title", ".width", ".global", ".param",
    ".include", ".lib",
))

#: Directives that declare non-linear structure (subcircuits, device
#: models) — skipped in tolerant mode like the rest, but recorded under
#: their own code because their presence marks an analog deck.
STRUCTURAL_DIRECTIVES = frozenset((".subckt", ".model", ".macro"))

#: First letters of device cards that make a deck non-linear (and hence
#: non-PDN): MOS/BJT/JFET transistors and subcircuit instances.
TRANSISTOR_PREFIXES = frozenset("mqjx")

#: First letters of passive/auxiliary cards that are open (C) or short
#: (L) at DC, or linear dependent sources — droppable from a static
#: solve without changing its topology class.
PASSIVE_PREFIXES = frozenset("clkefghbdswt")


@dataclass(frozen=True)
class Diagnostic:
    """One structured parse/ingest finding with provenance.

    ``severity`` is ``"note"`` (informational), ``"warning"`` (something
    was skipped or adapted) or ``"error"`` (content was rejected).
    ``code`` is a stable machine-readable slug (``"element-skipped"``,
    ``"directive-skipped"``, ``"bad-value"``, ...); ``line_number`` is
    1-based and 0 for whole-deck findings.
    """

    severity: str
    code: str
    message: str
    line_number: int = 0
    line: str = ""
    element: str = ""

    def to_dict(self) -> dict:
        return {
            "severity": self.severity, "code": self.code,
            "message": self.message, "line": self.line_number,
            "text": self.line, "element": self.element,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Diagnostic":
        return cls(severity=payload["severity"], code=payload["code"],
                   message=payload["message"],
                   line_number=int(payload.get("line", 0)),
                   line=payload.get("text", ""),
                   element=payload.get("element", ""))


class SpiceParseError(ValueError):
    """Raised on malformed netlist content, with line context."""

    def __init__(self, message: str, line_number: int, line: str,
                 code: str = "parse"):
        super().__init__(f"line {line_number}: {message}: {line!r}")
        self.line_number = line_number
        self.line = line
        self.code = code


def parse_value(token: str) -> float:
    """Parse a SPICE numeric token (supports engineering suffixes)."""
    text = token.strip().lower()
    for suffix in ("meg",):  # multi-character suffixes first
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * _SUFFIXES[suffix]
    if text and text[-1] in _SUFFIXES:
        return float(text[:-1]) * _SUFFIXES[text[-1]]
    return float(text)


def _strip_inline_comment(line: str) -> str:
    """Drop a trailing ``$ ...`` or ``; ...`` comment."""
    for marker in ("$", ";"):
        index = line.find(marker)
        if index != -1:
            line = line[:index]
    return line


#: Card letters the fast path takes, and the element kind of each.
_FAST_KINDS = {"R": RESISTOR, "r": RESISTOR, "I": CURRENT, "i": CURRENT,
               "V": VOLTAGE, "v": VOLTAGE}

#: Last characters of a value token :func:`parse_value` reads with a plain
#: ``float`` (no engineering suffix, no ``nan``/``inf`` spelling).
_PLAIN_VALUE_ENDS = frozenset("0123456789.")


def _unclean_lines(lines: List[str]) -> Set[int]:
    """Line numbers the fast path must leave to the card parser: lines
    with an inline comment, and cards a later ``+`` line continues."""
    unclean: Set[int] = set()
    card = None
    for line_number, raw in enumerate(lines, start=1):
        if "$" in raw or ";" in raw:
            unclean.add(line_number)
        line = _strip_inline_comment(raw).strip()
        if not line or line.startswith("*"):
            continue
        if line.startswith("+"):
            if card is not None:
                unclean.add(card)
            continue
        card = line_number
    return unclean


def _scan(text: str, columns: ColumnBuilder) -> Iterator[Tuple[int, str]]:
    """Append the clean lines of ``text`` to ``columns``; yield every
    other card as ``(first_line_number, joined_card)``, in line order.

    A leading ``+`` continues the previous card (standard SPICE); inline
    ``$``/``;`` comments are stripped per physical line before joining.
    A ``+`` with no previous card is yielded as-is so the card parser
    can report it with the right provenance.  A clean line is appended
    only when its element passes the same checks as the element classes
    (finite, sign, no self-short, sources on ground); any other line is
    yielded, so the card parser reports it.
    """
    lines = text.splitlines()
    unclean = (_unclean_lines(lines) if "$" in text or ";" in text
               or "+" in text else ())
    ids = columns.ids
    intern = ids.get
    names, nodes, values = columns.names, columns.nodes, columns.values
    pending: Optional[Tuple[int, str]] = None
    for line_number, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if (len(tokens) == 4 and tokens[3][-1] in _PLAIN_VALUE_ENDS
                and line_number not in unclean):
            card, node_a, node_b, token = tokens
            kind = _FAST_KINDS.get(card[0])
            try:
                value = float(token)
            except ValueError:
                kind = None
            if kind == RESISTOR:
                clean = 0.0 < value < math.inf and node_a != node_b
            elif kind is not None:
                clean = (node_b == GROUND and node_a != GROUND
                         and (0.0 <= value if kind == CURRENT else 0.0 < value)
                         and value < math.inf)
            else:
                clean = False
            if clean:
                if pending is not None:
                    yield pending
                    pending = None
                names[kind].append(card)
                values[kind].append(value)
                ends = nodes[kind]
                node = intern(node_a)
                if node is None:
                    node = ids[node_a] = len(ids)
                ends.append(node)
                if kind == RESISTOR:
                    node = intern(node_b)
                    if node is None:
                        node = ids[node_b] = len(ids)
                    ends.append(node)
                continue
        line = _strip_inline_comment(raw).strip()
        if not line or line.startswith("*"):
            continue
        if line.startswith("+") and pending is not None:
            pending = (pending[0], pending[1] + " " + line[1:].strip())
            continue
        if pending is not None:
            yield pending
        pending = (line_number, line)
    if pending is not None:
        yield pending


class _ParseContext:
    """Shared mode/diagnostics state for one :func:`parse_spice` call."""

    def __init__(self, mode: str, diagnostics: Optional[List[Diagnostic]]):
        if mode not in PARSE_MODES:
            raise ValueError(f"mode must be one of {PARSE_MODES}, got {mode!r}")
        self.mode = mode
        self.diagnostics = diagnostics if diagnostics is not None else []

    @property
    def tolerant(self) -> bool:
        return self.mode == "tolerant"

    def reject(self, code: str, message: str, line_number: int, line: str,
               severity: str = "error", element: str = "") -> None:
        """Record a rejection; raises in strict mode, collects otherwise."""
        if not self.tolerant:
            raise SpiceParseError(message, line_number, line, code=code)
        self.diagnostics.append(Diagnostic(
            severity=severity, code=code, message=message,
            line_number=line_number, line=line, element=element))


def parse_spice(text: str, name: str = "pdn", mode: str = "strict",
                diagnostics: Optional[List[Diagnostic]] = None) -> Netlist:
    """Build a :class:`~repro.spice.netlist.Netlist` from SPICE source.

    ``mode="tolerant"`` skips what it cannot represent and records every
    skip/rejection as a :class:`Diagnostic` in ``diagnostics`` (a list
    the caller may supply to keep them); ``mode="strict"`` raises
    :class:`SpiceParseError` at the first problem.  The returned netlist
    contains exactly the accepted ``R``/``I``/``V`` cards in file order,
    as columns (:meth:`~repro.spice.netlist.Netlist.from_table`).
    """
    context = _ParseContext(mode, diagnostics)
    columns = ColumnBuilder()
    for line_number, line in _scan(text, columns):
        _parse_card(context, columns, line_number, line)
    return Netlist.from_table(columns.build(), name=name)


def _parse_card(context: _ParseContext, columns: ColumnBuilder,
                line_number: int, line: str) -> None:
    """Parse one card the fast path left (see :func:`_scan`)."""
    if line.startswith("+"):
        context.reject("dangling-continuation",
                       "continuation line with no card to continue",
                       line_number, line, severity="warning")
        return
    if line.startswith("."):
        _parse_directive(context, line_number, line)
        return
    tokens = line.split()
    kind = tokens[0][0].lower()
    if kind == "r":
        _parse_resistor(context, columns, tokens, line_number, line)
    elif kind == "i":
        _parse_source(context, columns, tokens, line_number, line,
                      current=True)
    elif kind == "v":
        _parse_source(context, columns, tokens, line_number, line,
                      current=False)
    elif kind in TRANSISTOR_PREFIXES or kind in PASSIVE_PREFIXES:
        context.reject(
            "element-skipped",
            f"unsupported element card {tokens[0]!r} "
            f"(type {kind.upper()!r}) skipped",
            line_number, line, severity="warning", element=kind)
    else:
        context.reject("unknown-element",
                       f"unknown element type {tokens[0]!r}",
                       line_number, line)


def _parse_directive(context: _ParseContext, line_number: int,
                     line: str) -> None:
    directive = line.split()[0].lower()
    if directive in (".end", ".ends", ".op"):
        return  # always accepted silently (historic strict behaviour)
    if directive in STRUCTURAL_DIRECTIVES:
        context.reject("directive-structural",
                       f"structural directive {directive} skipped "
                       "(declares non-linear devices)",
                       line_number, line, severity="warning")
        return
    if directive in BENIGN_DIRECTIVES:
        context.reject("directive-skipped",
                       f"analysis directive {directive} skipped "
                       "(no effect on the DC-linear PDN)",
                       line_number, line, severity="warning")
        return
    context.reject("directive-unknown",
                   f"unsupported directive {directive}",
                   line_number, line,
                   severity="warning" if context.tolerant else "error")


def _card_value(context: _ParseContext, tokens, expected: int,
                line_number: int, line: str,
                what: str) -> Optional[float]:
    """Extract a card's value token, tolerating a ``DC`` keyword and
    (tolerant mode) trailing parameter tokens."""
    value_tokens = tokens[expected - 1:]
    if value_tokens and value_tokens[0].lower() == "dc":
        value_tokens = value_tokens[1:]
    if not value_tokens:
        context.reject("wrong-token-count",
                       f"{what} needs {expected} tokens", line_number, line)
        return None
    if len(value_tokens) > 1:
        if not context.tolerant:
            raise SpiceParseError(f"{what} needs {expected} tokens",
                                  line_number, line,
                                  code="wrong-token-count")
        context.reject("extra-tokens",
                       f"{what} carries extra tokens "
                       f"{' '.join(value_tokens[1:])!r} (ignored)",
                       line_number, line, severity="note")
    try:
        return parse_value(value_tokens[0])
    except ValueError:
        context.reject("bad-value",
                       f"{what} value {value_tokens[0]!r} is not numeric",
                       line_number, line)
        return None


def _parse_resistor(context: _ParseContext, columns: ColumnBuilder, tokens,
                    line_number: int, line: str) -> None:
    if len(tokens) < 4:
        context.reject("wrong-token-count", "resistor needs 4 tokens",
                       line_number, line)
        return
    value = _card_value(context, tokens, 4, line_number, line, "resistor")
    if value is None:
        return
    try:
        element = Resistor(tokens[0], tokens[1], tokens[2], value)
    except ValueError as exc:
        context.reject("bad-value", str(exc), line_number, line)
        return
    columns.extend(RESISTOR, (element,))


def _parse_source(context: _ParseContext, columns: ColumnBuilder, tokens,
                  line_number: int, line: str, current: bool) -> None:
    what = "current source" if current else "voltage source"
    if len(tokens) < 4:
        context.reject("wrong-token-count", f"{what} needs 4 tokens",
                       line_number, line)
        return
    node_a, node_b = tokens[1], tokens[2]
    if node_a == GROUND and node_b == GROUND:
        context.reject("grounded-source",
                       f"{what} has both terminals on ground",
                       line_number, line,
                       severity="warning", element=tokens[0][0].lower())
        return
    if node_b != GROUND:
        if node_a == GROUND:
            node_a = node_b  # normalise "X 0 n ..." ordering
        else:
            context.reject("non-ground-source",
                           "sources must reference ground",
                           line_number, line,
                           severity="warning", element=tokens[0][0].lower())
            return
    value = _card_value(context, tokens, 4, line_number, line, what)
    if value is None:
        return
    kind, element_type = ((CURRENT, CurrentSource) if current
                          else (VOLTAGE, VoltageSource))
    try:
        element = element_type(tokens[0], node_a, value)
    except ValueError as exc:
        context.reject("bad-value", str(exc), line_number, line)
        return
    columns.extend(kind, (element,))


def parse_spice_file(path: str, mode: str = "strict",
                     diagnostics: Optional[List[Diagnostic]] = None) -> Netlist:
    """Parse a netlist file; the netlist is named after the file stem."""
    with open(path) as handle:
        text = handle.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_spice(text, name=stem, mode=mode, diagnostics=diagnostics)
