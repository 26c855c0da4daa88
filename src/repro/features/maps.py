"""Circuit-modality feature maps scattered from netlist elements.

Implements the contest's given features plus the paper's three *extra*
maps (§III-A): voltage-source map, current-source map and resistance map.
All maps are 1 µm-per-pixel rasters in (row=y, col=x) orientation, built
from the netlist's node table (:meth:`~repro.spice.netlist.Netlist.node_table`)
with element contributions summed in element order.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.spice.netlist import Netlist, NodeTable

__all__ = [
    "map_shape_for",
    "current_map",
    "current_source_map",
    "voltage_source_map",
    "resistance_map",
]


def map_shape_for(netlist: Netlist) -> Tuple[int, int]:
    """Default raster shape: the netlist bounding box at 1 µm per pixel."""
    return netlist.statistics().shape_pixels


_SPREAD_BATCH = 1 << 20
"""Covered pixels expanded at once by :func:`resistance_map` (bounds its
memory on decks of long wires)."""


def _source_pixels(table: NodeTable, nodes: np.ndarray,
                   shape: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """Flat clamped raster index of each non-ground node in ``nodes``, and
    the mask of ``nodes`` that are not ground."""
    table.require_grid(nodes)
    on_grid = nodes >= 0
    rows, cols = table.columns.take(nodes[on_grid]).pixels(shape)
    return rows * shape[1] + cols, on_grid


def current_map(netlist: Netlist, shape: Optional[Tuple[int, int]] = None,
                power_density: Optional[np.ndarray] = None) -> np.ndarray:
    """The contest's current map.

    When the generating power-density field is available (synthetic cases)
    the map is the smooth demand field scaled to the netlist's total
    current — mirroring how the contest derives it from instance power
    rather than from the lumped PDN taps.  Otherwise falls back to
    scattering the current-source values.
    """
    shape = shape or map_shape_for(netlist)
    total = sum(netlist.node_table().currents.tolist())  # one by one, not pairwise
    if power_density is not None:
        if power_density.shape != shape:
            raise ValueError(
                f"power density shape {power_density.shape} != raster {shape}"
            )
        density_sum = power_density.sum()
        if density_sum <= 0:
            raise ValueError("power density must have positive mass")
        return power_density / density_sum * total
    return current_source_map(netlist, shape)


def current_source_map(netlist: Netlist,
                       shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """Paper extra feature: lumped tap currents at their exact positions."""
    shape = shape or map_shape_for(netlist)
    table = netlist.node_table()
    pixels, on_grid = _source_pixels(table, table.current_nodes, shape)
    raster = np.zeros(shape)
    np.add.at(raster.reshape(-1), pixels,
              table.currents[on_grid])
    return raster


def voltage_source_map(netlist: Netlist,
                       shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """Paper extra feature: supply voltage scattered at pad positions."""
    shape = shape or map_shape_for(netlist)
    table = netlist.node_table()
    pixels, on_grid = _source_pixels(table, table.voltage_nodes, shape)
    raster = np.zeros(shape)
    np.maximum.at(raster.reshape(-1), pixels,
                  table.voltages[on_grid])
    return raster


def resistance_map(netlist: Netlist,
                   shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """Paper extra feature: each resistor's value distributed over the
    grid cells its segment overlaps (vias land on a single pixel)."""
    shape = shape or map_shape_for(netlist)
    table = netlist.node_table()
    ends = table.resistor_nodes
    table.require_grid(ends)
    on_grid = (ends >= 0).all(axis=1)
    resistance = table.resistances[on_grid]
    ends = ends[on_grid]
    r0, c0 = table.columns.take(ends[:, 0]).pixels(shape)
    r1, c1 = table.columns.take(ends[:, 1]).pixels(shape)
    # PDN wire segments are axis-aligned: spread uniformly over the pixels
    # they cover (vias and sub-pixel segments land on one pixel);
    # non-axis-aligned segments (foreign netlists) go half to each end
    axis = (r0 == r1) | (c0 == c1)
    length = np.where(axis, np.abs(r1 - r0) + np.abs(c1 - c0) + 1, 2)
    share = np.where(axis, resistance / length, resistance / 2)
    # pixel k of a resistor is base + k * step (k < length)
    row_base = np.where(axis, np.minimum(r0, r1), r0)
    row_step = np.where(axis, r0 != r1, r1 - r0)
    col_base = np.where(axis, np.minimum(c0, c1), c0)
    col_step = np.where(axis, c0 != c1, c1 - c0)
    first = np.cumsum(length) - length  # offset of each resistor's pixels
    raster = np.zeros(shape)
    flat = raster.reshape(-1)
    start = 0
    while start < len(length):  # bounded batches; np.add.at sums in order
        stop = max(start + 1, int(np.searchsorted(
            first, first[start] + _SPREAD_BATCH)))
        segment = np.repeat(np.arange(start, stop), length[start:stop])
        k = np.arange(len(segment)) - (first[segment] - first[start])
        rows = row_base[segment] + k * row_step[segment]
        cols = col_base[segment] + k * col_step[segment]
        np.add.at(flat, rows * shape[1] + cols, share[segment])
        start = stop
    return raster
