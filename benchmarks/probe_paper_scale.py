"""Paper-scale ingest probe: one grid deck of about a million nodes.

A measurement, not a benchmark workload.  LMM-IR feeds netlists of
hundreds of thousands to millions of nodes straight into the model;
perfbench's ``ingest_large`` stops at 28k nodes.  This script writes one
contest-style grid deck (``pdn/generator.py`` + ``spice/writer.py``) and
then runs it through the stages ``ingest_deck`` runs, one by one, printing
each stage's wall time and the process's peak RSS after it::

    python benchmarks/probe_paper_scale.py write --edge-um 1900 --out deck.sp
    python benchmarks/probe_paper_scale.py ingest deck.sp

Node count grows with the square of the die edge: 160 µm is 6,971 nodes,
1,900 µm about a million.  Run ``ingest`` in a fresh process, so the peak
RSS is the ingest's alone; the stages use only public names, so the same
command measures any commit (``PYTHONPATH=<checkout>/src``).  Prediction
is left out: the model samples a fixed-size point cloud, and its feature
stack is the ``features`` stage below.

When the solve runs CG (above ``REPRO_SOLVER_DIRECT_LIMIT`` nodes, 400k
by default), ``ingest`` also splits ``solver.solve`` into preconditioner
set-up and iterations and, for multigrid, prints the hierarchy it built:
rows and nonzeros per level and the operator complexity (all levels'
nonzeros over the finest level's).  ``REPRO_SOLVER_DIRECT_LIMIT=1``
forces that path on a small deck.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import numpy as np

from repro.features.stack import compute_feature_maps
from repro.ingest.classify import classify_deck
from repro.pdn.generator import PDNConfig, generate_pdn
from repro.pdn.templates import contest_stack
from repro.solver.conductance import assemble_system
from repro.solver.factorized import FactorizedPDN
from repro.solver.multigrid import MultigridPreconditioner
from repro.solver.rasterize import rasterize_ir_map
from repro.spice.parser import parse_spice
from repro.spice.validate import validate_netlist
from repro.spice.writer import write_spice_file


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write(edge_um: float, seed: int, out: str) -> None:
    """One grid deck of ``edge_um`` µm square, as perfbench builds its grids."""
    rng = np.random.default_rng(seed)
    config = PDNConfig(
        stack=contest_stack(), width_um=edge_um, height_um=edge_um,
        num_pads=int(rng.integers(4, 10)), pad_placement="grid",
        hotspots=4, background=0.4, current_fraction=0.7,
        tap_spacing_um=4.0, seed=seed)
    start = time.perf_counter()
    netlist = generate_pdn(config).netlist
    write_spice_file(netlist, out)
    print(json.dumps({"deck": out, "edge_um": edge_um,
                      "nodes": netlist.num_nodes,
                      "write_s": round(time.perf_counter() - start, 1)}))


def cg_split(pdn: FactorizedPDN, solve_ms: float) -> dict:
    """Set-up vs iteration time of a CG solve, plus the multigrid
    hierarchy the solve built (read, never rebuilt)."""
    setup_ms = 1e3 * pdn.factor_seconds
    split = {"setup_ms": round(setup_ms, 1),
             "iterate_ms": round(solve_ms - setup_ms, 1)}
    preconditioner = pdn.preconditioner
    if isinstance(preconditioner, MultigridPreconditioner):
        nnz = [level.matrix.nnz for level in preconditioner.levels]
        split["levels"] = [
            {"rows": rows, "nnz": count}
            for rows, count in zip(preconditioner.level_sizes(), nnz)]
        split["operator_complexity"] = round(sum(nnz) / nnz[0], 3)
    return split


def ingest(path: str) -> None:
    """The stages of ``ingest_text`` in order, each timed."""
    stages = {}

    def stage(layer, run):
        start = time.perf_counter()
        result = run()
        stages[layer] = {"ms": round(1e3 * (time.perf_counter() - start), 1),
                         "peak_rss_mb": round(_peak_rss_mb(), 1)}
        return result

    with open(path, encoding="utf-8") as handle:
        text = stage("read", handle.read)
    netlist = stage("spice.parse", lambda: parse_spice(
        text, name="probe", mode="tolerant", diagnostics=[]))
    del text
    classification = stage("ingest.classify", lambda: classify_deck(netlist))
    report = stage("spice.validate", lambda: validate_netlist(
        netlist, require_grid_names=False))
    if not report.ok or classification.category != "pdn-grid":
        raise SystemExit(f"deck not ingestible: {classification.reason}; "
                         f"{report.errors}")
    system = stage("solver.assemble", lambda: assemble_system(netlist))
    pdn = FactorizedPDN(netlist, system=system)
    solve = stage("solver.solve", pdn.solve)
    shape = netlist.statistics().shape_pixels
    stage("features.maps", lambda: compute_feature_maps(netlist, shape))
    stage("solver.rasterize", lambda: rasterize_ir_map(
        netlist, solve, shape, layer=min(netlist.layers())))
    report = {
        "deck": path, "nodes": netlist.num_nodes,
        "method": pdn.resolved_method, "precond": pdn.active_precond,
        "worst_drop": solve.worst_drop, "stages": stages,
        "peak_rss_mb": round(_peak_rss_mb(), 1)}
    if pdn.resolved_method == "cg":
        report["cg"] = cg_split(pdn, stages["solver.solve"]["ms"])
    print(json.dumps(report, indent=1))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    writer = commands.add_parser("write", help="write one grid deck")
    writer.add_argument("--edge-um", type=float, default=1900.0)
    writer.add_argument("--seed", type=int, default=1)
    writer.add_argument("--out", required=True)
    reader = commands.add_parser("ingest", help="ingest a deck stage by stage")
    reader.add_argument("deck")
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.edge_um, args.seed, args.out)
    else:
        ingest(args.deck)


if __name__ == "__main__":
    main()
