"""PDN grid topology construction.

Builds the resistive mesh of a multi-layer power grid: stripes per layer
(alternating routing direction), wire-segment resistors along each stripe,
and via resistors at stripe crossings between adjacent layers.  Rectangular
*blockages* (hard macros) punch holes into the lower layers, which is the
main source of IR hotspot diversity in the synthetic benchmark suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.pdn.layers import HORIZONTAL, LayerStack, MetalLayer
from repro.spice.netlist import Netlist
from repro.spice.nodes import DBU_PER_UM, NodeName, format_node

__all__ = ["Blockage", "GridConfig", "build_grid", "layer_nodes"]


@dataclass(frozen=True)
class Blockage:
    """Rectangular region (µm) where low-layer PDN stripes are removed."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise ValueError(f"degenerate blockage {self}")

    def contains(self, x_um: float, y_um: float) -> bool:
        return self.xmin <= x_um <= self.xmax and self.ymin <= y_um <= self.ymax


@dataclass
class GridConfig:
    """Parameters of :func:`build_grid`."""

    stack: LayerStack
    width_um: float
    height_um: float
    net: int = 1
    rail_tap_spacing_um: Optional[float] = None
    via_dropout: float = 0.0
    blockages: Sequence[Blockage] = field(default_factory=tuple)
    blockage_max_layer: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.width_um <= 0 or self.height_um <= 0:
            raise ValueError("die dimensions must be positive")
        if not 0.0 <= self.via_dropout < 1.0:
            raise ValueError(f"via_dropout must be in [0, 1), got {self.via_dropout}")


def _to_dbu(value_um: float) -> int:
    return int(round(value_um * DBU_PER_UM))


def _stripe_cross_positions(stack: LayerStack, layer_pos: int,
                            config: GridConfig) -> List[float]:
    """Along-stripe node coordinates for a layer: where adjacent layers cross."""
    layer = stack.layers[layer_pos]
    extent = config.width_um if layer.direction == HORIZONTAL else config.height_um
    positions: Set[float] = set()
    for neighbour_pos in (layer_pos - 1, layer_pos + 1):
        if 0 <= neighbour_pos < len(stack.layers):
            positions.update(stack.layers[neighbour_pos].stripe_positions(extent))
    if layer_pos == 0 and config.rail_tap_spacing_um:
        taps = np.arange(0.0, extent + 1e-9, config.rail_tap_spacing_um)
        positions.update(round(float(t), 6) for t in taps)
    # de-duplicate at database resolution: distinct floats that round to the
    # same DBU would otherwise produce a self-loop resistor
    by_dbu = {}
    for position in positions:
        if 0.0 <= position <= extent + 1e-9:
            by_dbu.setdefault(_to_dbu(position), position)
    return [by_dbu[key] for key in sorted(by_dbu)]


def _node_key(layer: MetalLayer, stripe_um: float, along_um: float) -> Tuple[int, int, int]:
    if layer.direction == HORIZONTAL:
        x_um, y_um = along_um, stripe_um
    else:
        x_um, y_um = stripe_um, along_um
    return (layer.index, _to_dbu(x_um), _to_dbu(y_um))


def _is_blocked(layer: MetalLayer, x_dbu: int, y_dbu: int, config: GridConfig) -> bool:
    if layer.index > config.blockage_max_layer or not config.blockages:
        return False
    x_um, y_um = x_dbu / DBU_PER_UM, y_dbu / DBU_PER_UM
    return any(b.contains(x_um, y_um) for b in config.blockages)


def build_grid(config: GridConfig) -> Netlist:
    """Construct the resistive mesh (no sources; the generator adds them)."""
    stack = config.stack
    rng = np.random.default_rng(config.seed)
    netlist = Netlist(name="grid")
    node_sets: Dict[int, Set[Tuple[int, int]]] = {layer.index: set() for layer in stack}

    # 1. nodes + wire segments per stripe
    for layer_pos, layer in enumerate(stack.layers):
        stripe_extent = (config.height_um if layer.direction == HORIZONTAL
                         else config.width_um)
        along_positions = _stripe_cross_positions(stack, layer_pos, config)
        for stripe_um in layer.stripe_positions(stripe_extent):
            previous: Optional[Tuple[int, int, int]] = None
            previous_along: Optional[float] = None
            for along_um in along_positions:
                key = _node_key(layer, stripe_um, along_um)
                _, x_dbu, y_dbu = key
                if _is_blocked(layer, x_dbu, y_dbu, config):
                    previous, previous_along = None, None  # break the rail
                    continue
                node_sets[layer.index].add((x_dbu, y_dbu))
                if previous is not None:
                    length = along_um - previous_along
                    if length > 1e-9:
                        netlist.add_resistor(
                            _format_key(config.net, previous),
                            _format_key(config.net, key),
                            length * layer.ohms_per_um,
                        )
                previous, previous_along = key, along_um

    # 2. vias at crossings of adjacent layers
    for lower, upper in stack.adjacent_pairs():
        horizontal, vertical = ((lower, upper) if lower.direction == HORIZONTAL
                                else (upper, lower))
        for y_um in horizontal.stripe_positions(config.height_um):
            for x_um in vertical.stripe_positions(config.width_um):
                position = (_to_dbu(x_um), _to_dbu(y_um))
                if (position not in node_sets[lower.index]
                        or position not in node_sets[upper.index]):
                    continue
                if config.via_dropout and rng.random() < config.via_dropout:
                    continue
                netlist.add_resistor(
                    _format_key(config.net, (lower.index, *position)),
                    _format_key(config.net, (upper.index, *position)),
                    lower.via_ohms_up,
                )

    return netlist


def _format_key(net: int, key: Tuple[int, int, int]) -> str:
    layer_index, x_dbu, y_dbu = key
    return format_node(NodeName(net=net, layer=layer_index, x=x_dbu, y=y_dbu))


def layer_nodes(netlist: Netlist, layer: int) -> List[NodeName]:
    """All parsed nodes of a netlist living on ``layer``, sorted by (y, x)."""
    table = netlist.node_table()
    table.require_grid()
    columns = table.columns
    rows = np.flatnonzero(columns.layer == layer)
    rows = rows[np.lexsort((columns.x[rows], columns.y[rows]))]  # stable
    return [NodeName(*fields) for fields in zip(
        columns.net[rows].tolist(), columns.layer[rows].tolist(),
        columns.x[rows].tolist(), columns.y[rows].tolist())]
