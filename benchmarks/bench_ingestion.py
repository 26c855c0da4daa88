"""Ingestion front door — parity gates.

Gating (``-m 'not perf'``, the ``ingest.parity`` registry entry):

* **golden-solve parity** — a written suite case re-ingested through
  :func:`repro.ingest.ingest_deck` re-solves to *bit-equal* node
  voltages and reproduces the committed golden IR map to <= 1e-9 V;
* **prediction parity** — the prediction produced inside the pipeline
  is bit-identical to ``predict_case`` on the adapted case;
* **typed refusals** — every deck in the malformed corpus
  (``tests/fixtures/spice/malformed/``) is refused with a typed
  :class:`~repro.ingest.IngestError`; zero untyped escapes;
* **exact quarantine accounting** — a mixed suite build adopts the
  servable deck, quarantines the rest with their codes, and leaves the
  generated cases bit-identical to a deck-free build.

Ingest speed is measured end to end on real-size decks by the perfbench
``ingest_large`` workload (the ``perfbench`` registry entry).
"""

import os
import pathlib

import numpy as np
from conftest import emit, recorder

from repro.core.pipeline import IRPredictor
from repro.core.registry import MODEL_REGISTRY
from repro.data.io import write_case
from repro.data.synthesis import SynthesisSettings, make_suite
from repro.ingest import IngestError, ingest_deck
from repro.solver.factorized import FactorizedPDN
from repro.train.loader import CasePreprocessor
from repro.train.seed import seed_everything

REC = recorder("ingestion", "parity")

FIXTURES = (pathlib.Path(__file__).resolve().parent.parent
            / "tests" / "fixtures" / "spice")
CORPUS = FIXTURES / "malformed"
GOLDEN_SIGMA = SynthesisSettings().golden_smooth_sigma
PARITY_TOL_V = 1e-9
MODEL = "LMM-IR (Ours)"


def _reingest(case, directory):
    """Write ``case`` to ``directory`` and push its deck back through
    the front door with the known raster geometry."""
    write_case(case, str(directory))
    return ingest_deck(os.path.join(str(directory), "netlist.sp"),
                       raster_shape=case.ir_map.shape,
                       smooth_sigma=GOLDEN_SIGMA)


def _predictor(bench_suite):
    spec = MODEL_REGISTRY[MODEL]
    seed_everything(0)
    model = spec.build()
    model.eval()
    preprocessor = CasePreprocessor(
        channels=spec.channels, target_edge=32, num_points=64,
        use_pointcloud=spec.uses_pointcloud)
    preprocessor.fit(list(bench_suite.training_cases))
    return IRPredictor(model, preprocessor, tta_samples=1)


# ----------------------------------------------------------------------
# Gating: golden-solve and prediction parity through the front door
# ----------------------------------------------------------------------
def test_roundtrip_solve_parity(bench_suite, tmp_path, artifact_dir):
    cases = (list(bench_suite.fake_cases)[:2]
             + list(bench_suite.real_cases)[:1]
             + list(bench_suite.hidden_cases)[:1])
    worst_map_diff = 0.0
    rows = []
    for case in cases:
        result = _reingest(case, tmp_path / case.name)
        reference = FactorizedPDN(case.netlist).solve()
        assert result.solve.node_voltages == reference.node_voltages, \
            f"{case.name}: re-ingested solve is not bit-equal"
        assert result.case is not None and result.case.kind == "ingested"
        map_diff = float(np.abs(result.golden_map - case.ir_map).max())
        worst_map_diff = max(worst_map_diff, map_diff)
        assert map_diff < PARITY_TOL_V, f"{case.name}: {map_diff:.2e} V"
        rows.append(f"  {case.name:<18} ({case.kind:<6}) "
                    f"bit-equal voltages | map |diff| {map_diff:.2e} V")

    REC.check("ingest_solve_bit_parity", True)
    REC.check("ingest_golden_map_parity", worst_map_diff < PARITY_TOL_V)
    REC.metric("golden_map_max_diff_v", worst_map_diff, unit="V")
    emit(artifact_dir, "ingestion_parity.txt", "\n".join(
        [f"Ingest round-trip parity ({len(cases)} cases, "
         f"sigma={GOLDEN_SIGMA}):"] + rows))


def test_prediction_parity(bench_suite, tmp_path):
    predictor = _predictor(bench_suite)
    case = list(bench_suite.hidden_cases)[0]
    write_case(case, str(tmp_path / case.name))
    result = ingest_deck(
        os.path.join(str(tmp_path / case.name), "netlist.sp"),
        predictor=predictor, raster_shape=case.ir_map.shape,
        smooth_sigma=GOLDEN_SIGMA)
    assert result.report.outcome == "predicted"
    direct, _ = predictor.predict_case(result.case)
    assert np.array_equal(result.prediction, direct), \
        "pipeline prediction differs from direct predict_case"
    REC.check("ingest_prediction_bit_parity", True)


# ----------------------------------------------------------------------
# Gating: the malformed corpus stays inside the refusal taxonomy
# ----------------------------------------------------------------------
def test_malformed_corpus_typed_refusals(artifact_dir):
    decks = sorted(p for p in CORPUS.iterdir() if p.is_file())
    assert decks, f"malformed corpus missing at {CORPUS}"
    codes = {}
    escapes = []
    for deck in decks:
        try:
            ingest_deck(str(deck))
        except IngestError as error:
            codes[deck.name] = error.code
        except Exception as error:  # pragma: no cover - the failure mode
            escapes.append((deck.name, type(error).__name__))
        else:
            codes[deck.name] = "(ingested)"
    assert not escapes, f"untyped escapes: {escapes}"
    assert all(code != "(ingested)" for code in codes.values()), codes

    REC.check("corpus_zero_untyped_escapes", not escapes)
    REC.check("corpus_all_refusals_typed", True)
    REC.metric("corpus_decks", len(decks), unit="decks")
    REC.annotate(corpus_codes=codes)
    width = max(len(name) for name in codes)
    emit(artifact_dir, "ingestion_corpus.txt", "\n".join(
        [f"Malformed corpus ({len(decks)} decks, zero untyped escapes):"]
        + [f"  {name:<{width}}  refused [{code}]"
           for name, code in sorted(codes.items())]))


def test_quarantine_accounting(tmp_path):
    good = str(FIXTURES / "pdn_small.sp")
    analog = str(FIXTURES / "comparator.sp")
    broken = str(CORPUS / "truncated.sp")
    suite_args = dict(num_fake=1, num_real=1, num_hidden=1, seed=11)

    mixed = make_suite(ingest_decks=[good, analog, broken], **suite_args)
    clean = make_suite(**suite_args)

    assert [case.name for case in mixed.ingested_cases] == ["pdn_small"]
    assert {(r.name, r.code) for r in mixed.quarantined} == \
        {("comparator", "non-pdn"), ("truncated", "validate")}
    identical = all(
        np.array_equal(ours.ir_map, theirs.ir_map)
        for ours, theirs in zip(
            mixed.fake_cases + mixed.real_cases + mixed.hidden_cases,
            clean.fake_cases + clean.real_cases + clean.hidden_cases))
    assert identical, "a quarantined deck perturbed the generated cases"

    REC.check("quarantine_exact_accounting", True)
    REC.check("quarantine_generated_cases_bit_identical", identical)
