"""Where each traced replay puts its span boundaries.

A target is ``(owner, attribute, span name)``: a function patched in the
namespace of the module that calls it, or a method patched on its class
(see :func:`common.instrumented`).  Several targets may share a span
name; their self times add up under that layer.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.core.pipeline as core_pipeline
import repro.data.synthesis as synthesis
import repro.ingest.pipeline as ingest_pipeline
import repro.solver.factorized as factorized
import repro.train.loader as loader
from repro.data.case import CaseBundle
from repro.features.normalize import ChannelNormalizer, TargetScaler
from repro.infer.engine import InferenceEngine
from repro.solver.factorized import FactorizedPDN
from repro.spice.netlist import Netlist
from repro.train.loader import CasePreprocessor

#: Node-name parsing behind every netlist geometry query (bounding box,
#: layers, statistics), whichever layer asks.
NETLIST = ((Netlist, "parsed_nodes", "spice.nodes"),)

#: ``IRPredictor.predict_case`` / ``predict_many``: preprocessing (cache
#: lookup, feature stack, point cloud), compiled forward, finalize.
PREDICT = (
    (CasePreprocessor, "prepare", "train.loader.prepare"),
    (CaseBundle, "features", "features.stack"),
    (ChannelNormalizer, "transform", "features.stack"),
    (loader, "adjust_stack", "features.stack"),
    (CaseBundle, "point_cloud", "pointcloud.encode"),
    (loader, "fit_to_count", "pointcloud.fit"),
    (InferenceEngine, "run", "infer.forward"),
    (core_pipeline, "restore_map", "core.finalize"),
    (TargetScaler, "inverse", "core.finalize"),
)

#: The golden solver, wherever it is constructed.
SOLVER = (
    (factorized, "assemble_system", "solver.assemble"),
    (factorized, "splu", "solver.factor"),
    (FactorizedPDN, "solve", "solver.solve"),
)

#: ``ingest_deck`` stages, plus the solver and predictor underneath.
INGEST = (
    (ingest_pipeline, "retry_with_backoff", "ingest.read"),
    (ingest_pipeline, "parse_spice", "spice.parse"),
    (ingest_pipeline, "classify_deck", "ingest.classify"),
    (ingest_pipeline, "validate_netlist", "spice.validate"),
    (ingest_pipeline, "compute_feature_maps", "features.maps"),
    (ingest_pipeline, "rasterize_ir_map", "solver.rasterize"),
) + SOLVER + PREDICT + NETLIST

#: ``stream_suite``: PDN generation, factor-once solves, feature maps,
#: golden rasters and case writes.
SUITE = (
    (synthesis, "generate_pdn_template", "pdn.template"),
    (synthesis, "instantiate_pdn_case", "pdn.instantiate"),
    (synthesis, "generate_pdn", "pdn.generate"),
    (synthesis, "effective_distance_map", "features.maps"),
    (synthesis, "pdn_density_map", "features.maps"),
    (synthesis, "voltage_source_map", "features.maps"),
    (synthesis, "resistance_map", "features.maps"),
    (synthesis, "current_map", "features.maps"),
    (synthesis, "current_source_map", "features.maps"),
    (synthesis, "compute_feature_maps", "features.maps"),
    (synthesis, "rasterize_ir_map", "solver.rasterize"),
    (synthesis, "write_case", "data.io.write"),
) + SOLVER + NETLIST


def names(targets) -> list:
    """Distinct span names of ``targets``, in first-seen order."""
    seen = []
    for _, _, name in targets:
        if name not in seen:
            seen.append(name)
    return seen


@contextmanager
def cg_iterations(counts: list):
    """Append the iteration count of every block-CG solve to ``counts``
    (direct LU solves run none)."""
    original = factorized.block_cg

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        counts.append(int(result.iterations.max(initial=0)))
        return result

    factorized.block_cg = counting
    try:
        yield counts
    finally:
        factorized.block_cg = original
