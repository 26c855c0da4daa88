"""``python -m repro.ingest deck.sp`` — the hardened ingestion front door.

Takes a raw SPICE deck from *anywhere* and drives it deck → parse →
classify → validate → golden solve → rasterize → model prediction,
printing a machine-readable :class:`~repro.ingest.report.IngestReport`
as JSON.  A deck the pipeline cannot serve is *refused with a typed
reason* — the report carries the error code and the structured
diagnostics, the exit code is 2, and there is never a traceback.

By default a small LMM-IR predictor is trained on a synthesized suite
first (sized by the ``REPRO_BENCH_*`` / ``REPRO_EVAL_*`` environment
knobs, tiny defaults) so the report includes a real model prediction;
``--no-predict`` skips training and stops at the golden solve.

``--corpus DIR`` sweeps every file in a directory instead — the
malformed-deck gauntlet: each deck's outcome (or typed refusal code) is
printed, and the run fails only if any deck escapes the taxonomy with
an untyped exception.

Exit codes: 0 — ingested (predicted or solved), 2 — typed refusal,
1 — usage error or (corpus mode) an untyped escape.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import Optional

from repro import knobs
from repro.ingest.diagnostics import IngestError
from repro.ingest.pipeline import DEFAULT_RASTER_LIMIT_PX, ingest_deck
from repro.ingest.report import IngestReport


def build_predictor():
    """Train a small LMM-IR predictor on a synthesized suite.

    Sized for a CLI demo: ``REPRO_BENCH_*`` controls the suite,
    ``REPRO_EVAL_*`` the training regime (defaults here are far below
    the harness defaults — this is a front-door smoke, not Table III).
    """
    from repro.data.synthesis import make_suite
    from repro.eval.harness import EvalConfig, train_predictor

    suite = make_suite(
        num_fake=knobs.read("REPRO_BENCH_FAKE", 3),
        num_real=knobs.read("REPRO_BENCH_REAL", 2),
        num_hidden=knobs.read("REPRO_BENCH_HIDDEN", 1),
        seed=knobs.read("REPRO_BENCH_SEED", 0))
    config = EvalConfig.from_env(
        epochs=knobs.read("REPRO_EVAL_EPOCHS", 2),
        pretrain_epochs=knobs.read("REPRO_EVAL_PRETRAIN", 0),
        target_edge=knobs.read("REPRO_EVAL_EDGE", 32),
        num_points=knobs.read("REPRO_EVAL_POINTS", 64))
    predictor, _ = train_predictor("LMM-IR (Ours)", suite, config)
    return predictor


def _emit(report: IngestReport, path: Optional[str]) -> None:
    if path:
        report.save(path)
        print(f"report written to {path}")
    else:
        print(report.to_json())


def run_one(args) -> int:
    predictor = None
    if not args.no_predict:
        print("training a small LMM-IR predictor "
              "(--no-predict to skip) ...", file=sys.stderr, flush=True)
        predictor = build_predictor()
    try:
        result = ingest_deck(
            args.deck, mode=args.mode, predictor=predictor,
            raster_limit_px=args.raster_limit,
            smooth_sigma=args.smooth_sigma)
    except IngestError as error:
        report = error.report or IngestReport(deck=args.deck, mode=args.mode)
        report.refuse(error.code, str(error))
        _emit(report, args.report)
        print(f"refused [{error.code}]: {error}", file=sys.stderr)
        return 2
    _emit(result.report, args.report)
    return 0


def run_corpus(args) -> int:
    decks = sorted(
        os.path.join(args.corpus, entry)
        for entry in os.listdir(args.corpus)
        if os.path.isfile(os.path.join(args.corpus, entry)))
    if not decks:
        print(f"no decks found in {args.corpus!r}", file=sys.stderr)
        return 1
    outcomes = {}
    escapes = 0
    for deck in decks:
        label = os.path.basename(deck)
        try:
            result = ingest_deck(deck, mode=args.mode,
                                 raster_limit_px=args.raster_limit,
                                 smooth_sigma=args.smooth_sigma)
        except IngestError as error:
            outcomes[label] = f"refused [{error.code}]"
        except Exception:
            outcomes[label] = "UNTYPED ESCAPE"
            escapes += 1
            traceback.print_exc()
        else:
            outcomes[label] = result.report.outcome
    width = max(len(name) for name in outcomes)
    for name, outcome in outcomes.items():
        print(f"{name:<{width}}  {outcome}")
    refusals = sum(1 for o in outcomes.values() if o.startswith("refused"))
    print(json.dumps({"decks": len(decks), "refused": refusals,
                      "ingested": len(decks) - refusals - escapes,
                      "untyped_escapes": escapes}))
    if escapes:
        print(f"FAIL: {escapes} deck(s) escaped the typed-refusal "
              f"taxonomy", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ingest", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("deck", nargs="?",
                        help="SPICE deck to ingest")
    parser.add_argument("--corpus", metavar="DIR",
                        help="ingest every file in DIR (no prediction); "
                             "fail only on untyped exceptions")
    parser.add_argument("--mode", choices=("strict", "tolerant"),
                        default="tolerant", help="parse mode")
    parser.add_argument("--report", metavar="PATH",
                        help="write the JSON report here instead of stdout")
    parser.add_argument("--no-predict", action="store_true",
                        help="stop at the golden solve (skip model training)")
    parser.add_argument("--raster-limit", type=int,
                        default=DEFAULT_RASTER_LIMIT_PX,
                        help="max raster pixels before degrading to "
                             "solve-only")
    parser.add_argument("--smooth-sigma", type=float, default=1.0,
                        help="golden-map Gaussian smoothing (pixels)")
    args = parser.parse_args(argv)

    if bool(args.deck) == bool(args.corpus):
        parser.error("give exactly one of: a deck path, or --corpus DIR")
    if args.corpus:
        return run_corpus(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
