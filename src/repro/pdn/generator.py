"""Synthetic PDN case generation (the BeGAN-style data substitute).

Assembles a full solvable PDN: resistive grid (:mod:`repro.pdn.grid`),
current sources sampled from a synthetic power map
(:mod:`repro.pdn.power`), and voltage-source pads on the top layer.
Distribution-level randomisation ("fake" vs "real" case styles) lives in
:mod:`repro.data.synthesis`; this module is deterministic given a config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.pdn.grid import Blockage, GridConfig, build_grid, layer_nodes
from repro.pdn.layers import LayerStack
from repro.pdn.power import synthetic_power_map
from repro.spice.netlist import Netlist
from repro.spice.nodes import NodeName, format_node

__all__ = [
    "PDNConfig", "PDNCase", "PDNTemplate", "generate_pdn",
    "generate_pdn_template", "instantiate_pdn_case", "prune_unreachable",
]


@dataclass
class PDNConfig:
    """Full description of one synthetic PDN case."""

    stack: LayerStack
    width_um: float
    height_um: float
    vdd: float = 1.1
    total_current: float = 2.0
    num_pads: int = 4
    pad_placement: str = "grid"
    hotspots: int = 4
    background: float = 0.4
    current_fraction: float = 0.7
    tap_spacing_um: Optional[float] = None
    via_dropout: float = 0.0
    blockages: Sequence[Blockage] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self):
        if self.num_pads < 1:
            raise ValueError("need at least one pad")
        if self.pad_placement not in ("grid", "random", "edge"):
            raise ValueError(f"unknown pad placement {self.pad_placement!r}")
        if not 0.0 < self.current_fraction <= 1.0:
            raise ValueError("current_fraction must be in (0, 1]")
        if self.total_current <= 0:
            raise ValueError("total_current must be positive")

    @property
    def map_shape(self) -> Tuple[int, int]:
        """(rows, cols) of the 1 µm raster covering the die."""
        return (int(round(self.height_um)) + 1, int(round(self.width_um)) + 1)


@dataclass
class PDNCase:
    """A generated case: the netlist plus its provenance."""

    name: str
    netlist: Netlist
    power_density: np.ndarray
    pad_nodes: List[str]
    config: PDNConfig


def generate_pdn(config: PDNConfig, name: Optional[str] = None) -> PDNCase:
    """Generate a complete, solvable PDN case from a config."""
    rng = np.random.default_rng(config.seed)
    grid_config = GridConfig(
        stack=config.stack,
        width_um=config.width_um,
        height_um=config.height_um,
        rail_tap_spacing_um=config.tap_spacing_um,
        via_dropout=config.via_dropout,
        blockages=tuple(config.blockages),
        seed=config.seed,
    )
    netlist = build_grid(grid_config)
    netlist.name = name or f"pdn_seed{config.seed}"

    power = synthetic_power_map(
        config.map_shape, rng,
        hotspots=config.hotspots, background=config.background,
    )
    _attach_current_sources(netlist, power, config, rng)
    pad_nodes = _attach_pads(netlist, config, rng)
    prune_unreachable(netlist)
    return PDNCase(
        name=netlist.name,
        netlist=netlist,
        power_density=power,
        pad_nodes=pad_nodes,
        config=config,
    )


@dataclass
class PDNTemplate:
    """The case-independent half of a PDN case: grid plus pads, no loads.

    The conductance matrix of the nodal system depends only on resistors
    and supply placement, so every case instantiated from one template
    shares a factorisation (see
    :class:`repro.solver.factorized.FactorizedPDN`) through the
    per-process :class:`~repro.solver.factorized.FactorizedCache` LRU.
    The netlist here is
    already pruned; per-case current sources attach to surviving nodes
    only, so instantiated cases never need re-pruning.
    """

    name: str
    netlist: Netlist
    pad_nodes: List[str]
    config: PDNConfig


def generate_pdn_template(config: PDNConfig,
                          name: Optional[str] = None) -> PDNTemplate:
    """Build the shared geometry of a case family: grid + pads, pruned.

    Deterministic given ``config`` — shards and workers that need the same
    template regenerate it independently and get bit-identical grids.
    """
    rng = np.random.default_rng(config.seed)
    grid_config = GridConfig(
        stack=config.stack,
        width_um=config.width_um,
        height_um=config.height_um,
        rail_tap_spacing_um=config.tap_spacing_um,
        via_dropout=config.via_dropout,
        blockages=tuple(config.blockages),
        seed=config.seed,
    )
    netlist = build_grid(grid_config)
    netlist.name = name or f"pdn_template{config.seed}"
    pad_nodes = _attach_pads(netlist, config, rng)
    prune_unreachable(netlist)
    return PDNTemplate(name=netlist.name, netlist=netlist,
                       pad_nodes=pad_nodes, config=config)


def instantiate_pdn_case(template: PDNTemplate, config: PDNConfig,
                         rng: np.random.Generator,
                         name: Optional[str] = None) -> PDNCase:
    """Attach a fresh load pattern to a template's grid.

    ``config`` carries the per-case load knobs (``hotspots``,
    ``background``, ``current_fraction``, ``total_current``) on top of the
    template's geometry; ``rng`` drives the power map and tap selection.
    The returned case's netlist shares the (immutable) grid elements with
    the template but owns its current-source list.
    """
    netlist = Netlist(name or template.name)
    netlist.resistors = list(template.netlist.resistors)
    netlist.voltage_sources = list(template.netlist.voltage_sources)
    power = synthetic_power_map(
        config.map_shape, rng,
        hotspots=config.hotspots, background=config.background,
    )
    _attach_current_sources(netlist, power, config, rng)
    return PDNCase(
        name=netlist.name,
        netlist=netlist,
        power_density=power,
        pad_nodes=list(template.pad_nodes),
        config=config,
    )


def _attach_current_sources(netlist: Netlist, power: np.ndarray,
                            config: PDNConfig, rng: np.random.Generator) -> None:
    rail_layer = config.stack.bottom.index
    candidates = layer_nodes(netlist, rail_layer)
    if not candidates:
        raise ValueError("grid has no bottom-layer nodes to load")
    count = max(1, int(round(len(candidates) * config.current_fraction)))
    chosen_indices = rng.choice(len(candidates), size=count, replace=False)
    chosen = [candidates[i] for i in sorted(chosen_indices)]

    rows, cols = power.shape
    # vectorized density lookup: the per-node Python loop dominated case
    # instantiation on large grids (hundreds of thousands of taps)
    ys = np.fromiter((node.y_um for node in chosen), dtype=float,
                     count=len(chosen))
    xs = np.fromiter((node.x_um for node in chosen), dtype=float,
                     count=len(chosen))
    row_idx = np.minimum(np.round(ys).astype(np.int64), rows - 1)
    col_idx = np.minimum(np.round(xs).astype(np.int64), cols - 1)
    weights = power[row_idx, col_idx]
    # per-instance activity jitter on top of the density field
    weights = weights * rng.uniform(0.5, 1.5, size=len(chosen))
    total = weights.sum()
    if total <= 0:
        weights = np.ones(len(chosen))
        total = float(len(chosen))
    currents = weights / total * config.total_current

    for node, current in zip(chosen, currents):
        if current > 0:
            netlist.add_current_source(format_node(node), float(current))


def _attach_pads(netlist: Netlist, config: PDNConfig,
                 rng: np.random.Generator) -> List[str]:
    top_layer = config.stack.top.index
    candidates = layer_nodes(netlist, top_layer)
    if not candidates:
        raise ValueError("grid has no top-layer nodes for pads")
    count = min(config.num_pads, len(candidates))

    if config.pad_placement == "random":
        picked = [candidates[i]
                  for i in rng.choice(len(candidates), size=count, replace=False)]
    elif config.pad_placement == "edge":
        picked = _nearest_unique(candidates, _edge_targets(config, count))
    else:  # grid
        picked = _nearest_unique(candidates, _grid_targets(config, count))

    pad_names = []
    for node in picked:
        node_name = format_node(node)
        netlist.add_voltage_source(node_name, config.vdd)
        pad_names.append(node_name)
    return pad_names


def _grid_targets(config: PDNConfig, count: int) -> List[Tuple[float, float]]:
    """Roughly square lattice of (x, y) pad targets covering the die."""
    per_side = int(np.ceil(np.sqrt(count)))
    xs = np.linspace(config.width_um * 0.15, config.width_um * 0.85, per_side)
    ys = np.linspace(config.height_um * 0.15, config.height_um * 0.85, per_side)
    targets = [(x, y) for y in ys for x in xs]
    return targets[:count]


def _edge_targets(config: PDNConfig, count: int) -> List[Tuple[float, float]]:
    """Pad targets spread along the die boundary (wire-bond style)."""
    perimeter_positions = np.linspace(0.0, 4.0, count, endpoint=False)
    targets = []
    for t in perimeter_positions:
        side, frac = int(t), t - int(t)
        if side == 0:
            targets.append((frac * config.width_um, 0.0))
        elif side == 1:
            targets.append((config.width_um, frac * config.height_um))
        elif side == 2:
            targets.append(((1 - frac) * config.width_um, config.height_um))
        else:
            targets.append((0.0, (1 - frac) * config.height_um))
    return targets


def _nearest_unique(candidates: List[NodeName],
                    targets: List[Tuple[float, float]]) -> List[NodeName]:
    """Greedily match each target to its nearest unused candidate node."""
    positions = np.array([(n.x_um, n.y_um) for n in candidates])
    used: set = set()
    picked = []
    for tx, ty in targets:
        distances = np.hypot(positions[:, 0] - tx, positions[:, 1] - ty)
        for index in np.argsort(distances):
            if int(index) not in used:
                used.add(int(index))
                picked.append(candidates[int(index)])
                break
    return picked


def prune_unreachable(netlist: Netlist) -> int:
    """Drop elements with no resistive path to a supply; return #nodes removed.

    Aggressive blockages can strand grid islands; stranded nodes make the
    conductance matrix singular, so they are removed before solving.
    """
    table = netlist.node_table()
    floating = table.unreachable_mask()
    count = int(floating.sum())
    if not count:
        return 0
    keep_r = ~floating[table.resistor_nodes].any(axis=1)
    keep_i = ~floating[table.current_nodes]
    keep_v = ~floating[table.voltage_nodes]
    netlist.resistors = [r for r, keep in zip(netlist.resistors, keep_r) if keep]
    netlist.current_sources = [i for i, keep in zip(netlist.current_sources, keep_i)
                               if keep]
    netlist.voltage_sources = [v for v, keep in zip(netlist.voltage_sources, keep_v)
                               if keep]
    return count
