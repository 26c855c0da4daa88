"""Deck in, prediction out — with a typed refusal at every exit.

:func:`ingest_deck` drives a raw SPICE deck through the whole stack:

1. **read** — file bytes to text, retried :data:`READ_RETRIES` times
   under :data:`READ_POLICY` (transient I/O and injected faults),
   refused as :class:`DeckReadError`;
2. **parse** — strict or tolerant :func:`repro.spice.parser.parse_spice`
   with structured diagnostics, refused as :class:`DeckParseError`;
3. **classify** — :func:`repro.ingest.classify.classify_deck`; analog
   decks are refused as :class:`NonPDNDeckError` with the evidence,
   empty parses as :class:`DeckParseError`;
4. **validate** — solvability lint (supplies, connectivity, unique
   names; node-name format is *not* required here), refused as
   :class:`DeckValidationError`;
5. **solve** — the golden :class:`~repro.solver.factorized.FactorizedPDN`
   solve (coordinate-free decks ride the incomplete-Cholesky CG path),
   refused as :class:`IngestSolveError`;
6. **rasterize** — feature channels + golden map + a ``kind="ingested"``
   :class:`~repro.data.case.CaseBundle`; only for grids with contest
   coordinates and a raster under ``raster_limit_px``.  Failure here
   *degrades* to a solve-only outcome (we already hold a good solve);
7. **predict** — the supplied :class:`~repro.core.pipeline.IRPredictor`
   on the adapted case; failure degrades the outcome from
   ``"predicted"`` to ``"solved"``.

Every refusal carries the partially built
:class:`~repro.ingest.report.IngestReport` (``error.report``), already
stamped with the stage's error code, and every degradation is recorded
on the process :class:`~repro.faults.degrade.DegradationLog` under the
``ingest.pipeline`` / ``ingest.predict`` components — a degraded
ingestion is visibly degraded.

Fault-injection points (:mod:`repro.faults.points`): ``ingest.read``
(inside the retry loop — transient injections are absorbed),
``ingest.parse`` and ``ingest.rasterize`` (injections surface as the
stage's typed refusal / degradation, never as a raw
:class:`~repro.faults.plan.InjectedFaultError`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.pipeline import IRPredictor
from repro.data.case import CaseBundle
from repro.faults.backoff import BackoffPolicy, retry_with_backoff
from repro.faults.degrade import DegradationLog, default_log
from repro.faults.plan import InjectedFaultError
from repro.faults.points import fault_point
from repro.features.stack import compute_feature_maps
from repro.ingest.classify import DeckClassification, classify_deck
from repro.ingest.diagnostics import (
    DeckParseError,
    DeckReadError,
    DeckValidationError,
    IngestError,
    IngestSolveError,
    NonPDNDeckError,
)
from repro.ingest.report import IngestReport
from repro.solver.factorized import FactorizedPDN
from repro.solver.rasterize import rasterize_ir_map
from repro.solver.static import IRSolveResult
from repro.spice.netlist import Netlist
from repro.spice.parser import Diagnostic, SpiceParseError, parse_spice
from repro.spice.validate import validate_netlist

__all__ = ["IngestResult", "ingest_deck", "ingest_text",
           "DEFAULT_RASTER_LIMIT_PX"]

DEFAULT_RASTER_LIMIT_PX = 4_000_000
"""Refuse-to-rasterize guard: a foreign deck claiming a die that would
raster to more pixels than this degrades to solve-only instead of
allocating an absurd feature stack (2000x2000 µm is far beyond any
contest die)."""

READ_RETRIES = 2
"""Retries of a deck read that failed with a transient ``OSError``."""

READ_POLICY = BackoffPolicy()
"""Backoff between deck-read retries."""


@dataclass
class IngestResult:
    """The product of a successful (possibly degraded) ingestion."""

    report: IngestReport
    netlist: Netlist
    classification: DeckClassification
    solve: IRSolveResult
    case: Optional[CaseBundle] = None        # None on the solve-only rung
    golden_map: Optional[np.ndarray] = None  # rasterized golden IR map
    prediction: Optional[np.ndarray] = None  # model output (native shape)
    prediction_tat: Optional[float] = None   # model TAT seconds

    @property
    def outcome(self) -> str:
        return self.report.outcome


def _refuse(report: IngestReport, error: IngestError) -> IngestError:
    """Stamp the report with the refusal and attach it to the error."""
    report.refuse(error.code, str(error))
    error.diagnostics = list(report.diagnostics)
    error.report = report
    return error


def _degrade(report: IngestReport, log: DegradationLog, component: str,
             from_mode: str, to_mode: str, reason: str) -> None:
    event = log.record(component, from_mode, to_mode, reason)
    report.degradations.append(event.to_dict())


def _netlist_summary(netlist: Netlist) -> dict:
    table = netlist.node_table()
    resistors, currents, voltages = table.element_counts()
    return {
        "nodes": len(table.names),
        "resistors": resistors,
        "current_sources": currents,
        "voltage_sources": voltages,
    }


def ingest_text(text: str, name: str = "deck", mode: str = "tolerant",
                predictor: Optional[IRPredictor] = None,
                raster_limit_px: int = DEFAULT_RASTER_LIMIT_PX,
                smooth_sigma: float = 1.0,
                raster_shape: Optional[Tuple[int, int]] = None,
                degradations: Optional[DegradationLog] = None) -> IngestResult:
    """Ingest SPICE source already in memory (see :func:`ingest_deck`)."""
    log = degradations if degradations is not None else default_log()
    report = IngestReport(deck=name, mode=mode)

    # ---- parse ------------------------------------------------------
    start = time.perf_counter()
    try:
        fault_point("ingest.parse")
        netlist = parse_spice(text, name=name, mode=mode,
                              diagnostics=report.diagnostics)
    except SpiceParseError as error:
        raise _refuse(report, DeckParseError(str(error))) from error
    except InjectedFaultError as error:
        raise _refuse(report, DeckParseError(
            f"parse aborted by injected fault: {error}")) from error
    report.timings_s["parse"] = time.perf_counter() - start
    report.netlist = _netlist_summary(netlist)

    # ---- classify ---------------------------------------------------
    classification = classify_deck(netlist, report.diagnostics)
    report.classification = classification.to_dict()
    if classification.category == "analog":
        raise _refuse(report, NonPDNDeckError(
            f"{name!r} is not a PDN deck: {classification.reason}"))
    if classification.category == "empty":
        raise _refuse(report, DeckParseError(
            f"{name!r} has no solvable content: {classification.reason}"))

    # ---- validate ---------------------------------------------------
    validation = validate_netlist(netlist, require_grid_names=False)
    for warning in validation.warnings:
        report.diagnostics.append(Diagnostic(
            severity="warning", code="validation", message=warning))
    if not validation.ok:
        for message in validation.errors:
            report.diagnostics.append(Diagnostic(
                severity="error", code="validation", message=message))
        raise _refuse(report, DeckValidationError(
            f"{name!r} is unsolvable: " + "; ".join(validation.errors)))

    # ---- golden solve ----------------------------------------------
    start = time.perf_counter()
    try:
        pdn = FactorizedPDN(netlist)
        solve = pdn.solve()
    except InjectedFaultError as error:
        raise _refuse(report, IngestSolveError(
            f"golden solve aborted by injected fault: {error}")) from error
    except Exception as error:
        raise _refuse(report, IngestSolveError(
            f"golden solve failed for {name!r}: {error}")) from error
    report.timings_s["solve"] = time.perf_counter() - start
    report.solve = {
        "vdd": solve.vdd,
        "worst_drop": solve.worst_drop,
        "solve_seconds": solve.solve_seconds,
        "method": pdn.resolved_method,
        "precond": pdn.active_precond,
        "nodes": pdn.size,
    }

    result = IngestResult(report=report, netlist=netlist,
                          classification=classification, solve=solve)
    report.outcome = "solved"

    # ---- rasterize (grid decks only) --------------------------------
    if classification.category == "pdn-coordinate-free":
        _degrade(report, log, "ingest.pipeline", "raster", "solve-only",
                 f"{name!r}: {classification.reason}")
    elif classification.category == "pdn-grid":
        # the node bounding box understates a die whose PDN does not
        # reach the edges; a caller who knows the true raster (contest
        # bundles, round trips) passes it explicitly
        shape = (raster_shape if raster_shape is not None
                 else netlist.statistics().shape_pixels)
        if shape[0] * shape[1] > raster_limit_px:
            _degrade(report, log, "ingest.pipeline", "raster", "solve-only",
                     f"{name!r}: raster {shape} exceeds the "
                     f"{raster_limit_px}-pixel guard")
        else:
            start = time.perf_counter()
            try:
                fault_point("ingest.rasterize")
                layer = min(netlist.layers())
                feature_maps = compute_feature_maps(netlist, shape)
                golden = rasterize_ir_map(netlist, solve, shape, layer=layer,
                                          smooth_sigma=smooth_sigma)
                case = CaseBundle(
                    name=name, kind="ingested", netlist=netlist,
                    feature_maps=feature_maps, ir_map=golden,
                    metadata={"vdd": float(solve.vdd),
                              "worst_drop": float(solve.worst_drop)})
            except Exception as error:
                _degrade(report, log, "ingest.pipeline", "raster",
                         "solve-only",
                         f"{name!r}: rasterization failed "
                         f"({type(error).__name__}: {error})")
            else:
                report.timings_s["rasterize"] = time.perf_counter() - start
                result.case = case
                result.golden_map = golden
                report.solve["raster_shape"] = list(shape)
                report.solve["raster_worst_drop"] = float(golden.max())

    # ---- predict ----------------------------------------------------
    if predictor is not None and result.case is not None:
        start = time.perf_counter()
        try:
            prediction, tat = predictor.predict_case(result.case)
        except Exception as error:
            _degrade(report, log, "ingest.predict", "predicted", "solved",
                     f"{name!r}: prediction failed "
                     f"({type(error).__name__}: {error})")
        else:
            report.timings_s["predict"] = time.perf_counter() - start
            result.prediction = prediction
            result.prediction_tat = tat
            report.outcome = "predicted"
            report.prediction = {
                "worst_drop": float(prediction.max()),
                "tat_seconds": float(tat),
                "shape": list(prediction.shape),
            }
    return result


def ingest_deck(path: str, mode: str = "tolerant",
                predictor: Optional[IRPredictor] = None,
                raster_limit_px: int = DEFAULT_RASTER_LIMIT_PX,
                smooth_sigma: float = 1.0,
                raster_shape: Optional[Tuple[int, int]] = None,
                degradations: Optional[DegradationLog] = None) -> IngestResult:
    """Ingest a SPICE deck file end to end (see module docstring).

    Returns an :class:`IngestResult` whose ``report.outcome`` is
    ``"predicted"`` (full pipeline) or ``"solved"`` (degraded to the
    golden solve); raises a typed :class:`IngestError` subclass —
    carrying the stamped report — for every refusal.
    """
    report = IngestReport(deck=str(path), mode=mode)

    def read() -> str:
        fault_point("ingest.read")
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    start = time.perf_counter()
    try:
        text = retry_with_backoff(read, retries=READ_RETRIES,
                                  policy=READ_POLICY, retry_on=(OSError,),
                                  key=str(path))
    except FileNotFoundError as error:
        raise _refuse(report, DeckReadError(
            f"deck {path!r} does not exist")) from error
    except UnicodeDecodeError as error:
        raise _refuse(report, DeckReadError(
            f"deck {path!r} is not text (binary or wrong encoding): "
            f"{error}")) from error
    except (OSError, InjectedFaultError) as error:
        raise _refuse(report, DeckReadError(
            f"deck {path!r} could not be read: {error}")) from error
    read_seconds = time.perf_counter() - start

    name = os.path.splitext(os.path.basename(str(path)))[0]
    try:
        result = ingest_text(
            text, name=name, mode=mode, predictor=predictor,
            raster_limit_px=raster_limit_px, smooth_sigma=smooth_sigma,
            raster_shape=raster_shape, degradations=degradations)
    except IngestError as error:
        if error.report is not None:
            error.report.deck = str(path)
            error.report.timings_s["read"] = read_seconds
        raise
    result.report.deck = str(path)
    result.report.timings_s["read"] = read_seconds
    return result
