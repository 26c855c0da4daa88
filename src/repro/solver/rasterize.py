"""Rasterising node-wise solver output into per-pixel IR-drop maps.

The contest's golden data is a 1 µm-per-pixel CSV map; node voltages only
exist at PDN nodes, so off-node pixels are filled by nearest-node
assignment followed by optional Gaussian smoothing (matching how the
public benchmark maps look: smooth basins around each hotspot).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy import ndimage

from repro.solver.static import IRSolveResult
from repro.spice.netlist import Netlist
from repro.spice.nodes import GROUND, NodeColumns, parse_node, parse_nodes

__all__ = ["rasterize_ir_map"]


def _columns_of(netlist: Netlist, names: List[str]) -> NodeColumns:
    """Parsed columns of ``names``: taken from the netlist's node table
    when all are its nodes, parsed otherwise.  Raises :func:`parse_node`'s
    error for the first foreign name."""
    index = netlist.node_index()
    rows = np.fromiter((index.get(name, -1) for name in names),
                       dtype=np.int64, count=len(names))
    if (rows >= 0).all():
        table = netlist.node_table()
        table.require_grid(rows)
        return table.columns.take(rows)
    columns = parse_nodes(names)
    foreign = ~columns.grid & (np.array(names, dtype=object) != GROUND)
    if foreign.any():
        parse_node(names[int(np.argmax(foreign))])
    return columns


def rasterize_ir_map(
    netlist: Netlist,
    result: IRSolveResult,
    shape: Optional[Tuple[int, int]] = None,
    layer: int = 1,
    smooth_sigma: float = 1.0,
) -> np.ndarray:
    """Build the golden IR-drop map from a solve result.

    Parameters
    ----------
    shape:
        Output raster (rows, cols); defaults to the netlist bounding box
        at 1 µm per pixel.
    layer:
        Metal layer whose nodes define the map (m1: where instances sit).
    smooth_sigma:
        Gaussian smoothing radius in pixels applied after nearest-node
        fill (0 disables).
    """
    if shape is None:
        stats = netlist.statistics()
        shape = stats.shape_pixels

    drops = result.ir_drop()
    columns = _columns_of(netlist, list(drops))
    on_layer = columns.grid & (columns.layer == layer)
    rows, cols = columns.take(on_layer).pixels(shape)
    pixels = rows * shape[1] + cols
    values = np.fromiter(drops.values(), dtype=float, count=len(drops))
    accumulator = np.zeros(shape)
    np.add.at(accumulator.reshape(-1), pixels, values[on_layer])  # in order
    counts = np.bincount(pixels, minlength=shape[0] * shape[1])
    counts = counts.reshape(shape).astype(float)

    filled = counts > 0
    if not filled.any():
        raise ValueError(f"no nodes on layer m{layer} to rasterise")
    values = np.zeros(shape)
    values[filled] = accumulator[filled] / counts[filled]

    # nearest-node fill for pixels without a PDN node
    if not filled.all():
        _, (near_rows, near_cols) = ndimage.distance_transform_edt(
            ~filled, return_indices=True
        )
        values = values[near_rows, near_cols]

    if smooth_sigma > 0:
        values = ndimage.gaussian_filter(values, sigma=smooth_sigma)
    return values
