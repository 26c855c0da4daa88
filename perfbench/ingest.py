"""``ingest_large``: SPICE decks of large grid PDNs through the front door.

The inputs are blocks of SPICE decks written before any timing: one grid
PDN per distinct die edge of :data:`LADDER_UM` (2.5k to 28k nodes, most
decks small), each block holding every ladder entry once in a
seed-shuffled order.  Every deck scales each load current of
its grid by its own seed-derived factor, so no two decks share content
(every prediction misses the ``PreparedCaseCache``, as a new deck would)
while the node counts, and so the cost mix, are the same for every seed.
Set-up (timed for ``setup_s``) is the program's: fit the shipped
predictor (``build_spec``, as ``repro.serve`` does) and warm it on one
small deck.

The timed part is a closed loop with one caller: ``ingest_deck(path,
predictor=...)`` deck after deck over whole blocks, as many as fill
``--seconds`` at :data:`BLOCK_SECONDS` a block (a fixed count for a given
``--seconds``, so the prep cache, and with it peak RSS, holds the same
decks on a slow host as on a fast one).  A garbage collection before each
deck (untimed) starts every deck from the same heap.  Each deck must come
out ``"predicted"``, its golden solve must pass
``audit_solution(...).assert_physical()``, and its map must equal a
direct ``predict_case`` on the adapted case (one deck per block also
against a second predictor, on a copy of the case without its memoised
point cloud, so that check repeats the whole preprocessing).

The traced run splits its time between one untraced block (for the
``IngestReport`` stage timings) and two replays of that block, each
through a fresh predictor from the same spec: one untraced, one with
spans around each stage and layer.  Every replayed map must equal the
timed one, and the per-deck wall difference of the two replays is the
tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import IRPredictor
from repro.data.synthesis import make_suite
from repro.ingest import IngestError, ingest_deck
from repro.metrics.timing import percentile
from repro.pdn.generator import PDNConfig, generate_pdn
from repro.pdn.templates import contest_stack
from repro.serve.__main__ import build_spec
from repro.solver.checks import audit_solution
from repro.spice.elements import CurrentSource
from repro.spice.netlist import Netlist

import layers
from common import (
    Outcome,
    Tracer,
    instrumented,
    peak_rss_mb,
    reconcile,
    timed_setup,
)
from serving import EDGE, MODEL, POINTS, TRAINING, forward_ms

#: Die edges of one block of decks, µm (2545 to 27561 grid nodes).  The
#: middle of the mix is four decks of one size (160 µm, 6971 nodes), so
#: the median deck is the median of several like decks rather than one
#: deck that a garbage collection may or may not land in.
LADDER_UM = (96, 112, 128, 160, 160, 160, 160, 208, 256, 320)
#: Ingest time of one block on a 2-vCPU x86-64 box; a run ingests
#: ``round(--seconds / BLOCK_SECONDS)`` blocks (at least one).
BLOCK_SECONDS = 8.5
#: The set-up is short (~0.5 s), so its median takes more repeats.
SETUP_REPEATS = 7
REPORT_STAGES = ("read", "parse", "solve", "rasterize", "predict")
STAGE_METRICS = {"read": "ingest.read", "parse": "spice.parse",
                 "solve": "ingest.solve", "rasterize": "ingest.rasterize",
                 "predict": "ingest.predict"}


@dataclass
class Decks:
    blocks: List[List[Tuple[str, int]]]   # (path, ladder index)
    warm: str


@dataclass
class Predictor:
    spec: object
    predictor: IRPredictor


def _base_grid(edge: float, rng: np.random.Generator) -> Netlist:
    config = PDNConfig(
        stack=contest_stack(), width_um=edge, height_um=edge,
        num_pads=int(rng.integers(4, 10)),
        pad_placement=str(rng.choice(["grid", "random"])),
        hotspots=int(rng.integers(2, 6)),
        background=float(rng.uniform(0.3, 0.6)),
        current_fraction=float(rng.uniform(0.5, 0.8)),
        tap_spacing_um=4.0, seed=int(rng.integers(0, 2 ** 31)))
    return generate_pdn(config).netlist


def _writer(netlist: Netlist):
    """Deck writer for load variants of one grid: the resistor and supply
    lines are rendered once, only the current sources per deck."""
    resistors = "\n".join(r.spice_line() for r in netlist.resistors)
    supplies = "\n".join(v.spice_line() for v in netlist.voltage_sources)
    loads = netlist.current_sources

    def write(path: str, rng: np.random.Generator) -> None:
        scale = rng.uniform(0.5, 1.5, size=len(loads))
        currents = "\n".join(
            CurrentSource(s.name, s.node, s.value * f).spice_line()
            for s, f in zip(loads, scale))
        with open(path, "w") as handle:
            handle.write(f"* {os.path.basename(path)}\n{resistors}\n"
                         f"{currents}\n{supplies}\n.end\n")
    return write


def _decks(seed: int, blocks: int, workdir: str) -> Decks:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1D6E]))
    writers = {edge: _writer(_base_grid(float(edge), rng))
               for edge in sorted(set(LADDER_UM))}
    warm = os.path.join(workdir, "warm.sp")
    writers[LADDER_UM[0]](warm, rng)
    written = []
    for block in range(blocks):
        decks = []
        for index in rng.permutation(len(LADDER_UM)):
            path = os.path.join(workdir, f"b{block:02d}_{index:02d}_"
                                         f"{LADDER_UM[index]}um.sp")
            writers[LADDER_UM[index]](path, rng)
            decks.append((path, int(index)))
        written.append(decks)
    return Decks(written, warm)


def _predictor(seed: int, warm: str) -> Predictor:
    suite = make_suite(num_hidden=0, seed=seed, **TRAINING)
    spec = build_spec(MODEL, EDGE, POINTS, suite)
    predictor = spec.build()
    warmed = ingest_deck(warm, predictor=predictor)
    if warmed.outcome != "predicted":
        raise RuntimeError(f"warm-up deck ended {warmed.outcome!r}")
    return Predictor(spec, predictor)


def _digest(prediction: np.ndarray) -> str:
    return hashlib.sha256(prediction.tobytes()).hexdigest()


def _check(result, predictor: IRPredictor,
           reference: Optional[IRPredictor], outcome: Outcome,
           name: str) -> None:
    if result.outcome != "predicted":
        outcome.fail(f"{name}: outcome {result.outcome!r}, not predicted")
        return
    try:
        audit_solution(result.netlist, result.solve).assert_physical()
    except AssertionError as error:
        outcome.fail(f"{name}: golden solve not physical: {error}")
    direct, _ = predictor.predict_case(result.case)
    if not np.array_equal(result.prediction, direct):
        outcome.fail(f"{name}: ingested map differs from predict_case")
    if reference is not None:
        fresh, _ = reference.predict_case(replace(result.case,
                                                  _point_cloud=None))
        if not np.array_equal(result.prediction, fresh):
            outcome.fail(f"{name}: ingested map differs from a fresh "
                         f"predictor's predict_case")


def _warmed(spec, warm: str) -> IRPredictor:
    """A fresh predictor from ``spec``, its plans compiled on ``warm``."""
    predictor = spec.build()
    ingest_deck(warm, predictor=predictor)
    return predictor


def _replay_pass(block, predictor: IRPredictor, maps: Dict[str, str],
                 outcome: Outcome, tracer: Optional[Tracer] = None):
    """Ingest ``block`` deck by deck, as spans of ``tracer`` if one is
    given; every map must equal the timed ingestion's.  Returns
    ``(per-deck wall seconds, adapted cases)``."""
    walls, cases = {}, []
    for path, _ in block:
        gc.collect()
        with (tracer.item(os.path.basename(path)) if tracer
              else nullcontext()):
            start = time.perf_counter()
            try:
                result = ingest_deck(path, predictor=predictor)
            except IngestError as error:
                outcome.fail(f"replay {path}: refused: {error}")
                continue
            finally:
                walls[path] = time.perf_counter() - start
        if result.case is not None:
            cases.append(result.case)
        if (result.prediction is None
                or _digest(result.prediction) != maps.get(path)):
            outcome.fail(f"replay {path}: map differs from the timed "
                         f"ingestion")
    outcome.attempted += len(block)
    return walls, cases


def _replay(decks: Decks, spec, maps: Dict[str, str],
            outcome: Outcome) -> None:
    """The first block through a fresh predictor untraced, then through
    another one under spans; the wall difference per deck is the tracing
    overhead."""
    block = decks.blocks[0]
    untraced, _ = _replay_pass(block, _warmed(spec, decks.warm), maps,
                               outcome)
    predictor = _warmed(spec, decks.warm)
    engine, cache = predictor.engine, predictor.prep_cache
    plans, hits, misses = engine.plan_count, cache.hits, cache.misses
    tracer, cg = Tracer(), []
    with instrumented(tracer, layers.INGEST), layers.cg_iterations(cg):
        traced, cases = _replay_pass(block, predictor, maps, outcome, tracer)
    lookups = (cache.hits - hits) + (cache.misses - misses)
    ratio = (cache.hits - hits) / lookups if lookups else 0.0
    compiled = engine.plan_count - plans
    outcome.metric("train.loader.prep_cache_hit_ratio", ratio, "ratio")
    outcome.metric("infer.plans_compiled", compiled, "count")
    if ratio != 0.0:
        outcome.problem(f"replay prep-cache hit ratio {ratio:.3f}: a deck "
                        f"repeated content")
    if compiled:
        outcome.problem(f"replay compiled {compiled} new plan(s)")
    outcome.metric("solver.iterations", sum(cg) / len(block), "count")
    reconcile(outcome, tracer, sum(traced.values()), len(block),
              layers.names(layers.INGEST))
    outcome.metric("trace.overhead_ms", 1e3 * float(np.mean(
        [traced[path] - untraced[path] for path, _ in block])), "ms")
    forward_ms(predictor, cases, outcome)


def run(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    outcome = Outcome()
    blocks = 1 if trace else max(1, int(round(seconds / BLOCK_SECONDS)))
    decks = _decks(seed, blocks, workdir)
    built, setup_s = timed_setup(lambda: _predictor(seed, decks.warm),
                                 repeats=SETUP_REPEATS)
    reference = built.spec.build()
    walls: Dict[str, float] = {}
    stages = {stage: [] for stage in REPORT_STAGES}
    untimed, maps = [], {}
    for number, block in enumerate(decks.blocks):
        checked = (3 * number + seed) % len(LADDER_UM)
        for path, index in block:
            outcome.attempted += 1
            gc.collect()
            start = time.perf_counter()
            try:
                result = ingest_deck(path, predictor=built.predictor)
            except IngestError as error:
                outcome.fail(f"{path}: refused: {error}")
                continue
            walls[path] = wall = time.perf_counter() - start
            timings = result.report.timings_s
            for stage in REPORT_STAGES:
                stages[stage].append(timings.get(stage, 0.0))
            untimed.append(wall - sum(timings.values()))
            _check(result, built.predictor,
                   reference if index == checked else None, outcome, path)
            if result.prediction is not None:
                maps[path] = _digest(result.prediction)
    if not walls:
        outcome.problem("no deck was ingested")
        return outcome

    if not trace:
        latencies = list(walls.values())
        outcome.metric("setup_s", setup_s, "s")
        outcome.metric("throughput_per_s", len(latencies) / sum(latencies),
                       "1/s")
        outcome.metric("latency_p50_ms", percentile(latencies, 50) * 1e3,
                       "ms")
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MiB")
        return outcome

    for stage, values in stages.items():
        outcome.metric(f"{STAGE_METRICS[stage]}_ms",
                       float(np.mean(values)) * 1e3, "ms")
    outcome.metric("ingest.untimed_ms", float(np.mean(untimed)) * 1e3, "ms")
    _replay(decks, built.spec, maps, outcome)
    return outcome
