"""``repro.pdn`` — synthetic power-delivery-network generation.

Substitutes for the contest/BeGAN benchmark data (see EXPERIMENTS.md,
"Substitutions"): layer stacks, grid topology with vias and macro
blockages, synthetic power maps, and full case generation.
"""

from repro.pdn.generator import (
    PDNCase,
    PDNConfig,
    PDNTemplate,
    generate_pdn,
    generate_pdn_template,
    instantiate_pdn_case,
    prune_unreachable,
)
from repro.pdn.grid import Blockage, GridConfig, build_grid, layer_nodes
from repro.pdn.layers import LayerStack, MetalLayer
from repro.pdn.power import hotspot_centers, synthetic_power_map
from repro.pdn.templates import HIDDEN_CASE_SPECS, HiddenCaseSpec, contest_stack, small_stack

__all__ = [
    "MetalLayer", "LayerStack",
    "GridConfig", "Blockage", "build_grid", "layer_nodes",
    "synthetic_power_map", "hotspot_centers",
    "PDNConfig", "PDNCase", "PDNTemplate", "generate_pdn",
    "generate_pdn_template", "instantiate_pdn_case", "prune_unreachable",
    "small_stack", "contest_stack", "HIDDEN_CASE_SPECS", "HiddenCaseSpec",
]
