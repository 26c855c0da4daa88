"""Effective distance to voltage sources (contest feature #2).

Defined in the paper (§III-A) as the reciprocal of the sum of inverse
Euclidean distances to all voltage sources:

    d_eff(p) = ( sum_s 1 / dist(p, s) )^-1

Pixels close to any pad get a small effective distance; the map is the
dominant predictor of the large-scale IR basin shape.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.features.maps import map_shape_for
from repro.spice.netlist import Netlist
from repro.spice.nodes import DBU_PER_UM

__all__ = ["effective_distance_map", "pad_positions_px"]

_MIN_DISTANCE_PX = 0.5
"""Clamp so a pixel containing a pad keeps a finite inverse distance."""


def pad_positions_px(netlist: Netlist) -> np.ndarray:
    """(row, col) float positions of all voltage sources."""
    table = netlist.node_table()
    pads = table.voltage_nodes
    table.require_grid(pads)
    pads = pads[pads >= 0]
    if not pads.size:
        raise ValueError("netlist has no voltage sources for a distance map")
    columns = table.columns.take(pads)
    return np.stack((columns.y / DBU_PER_UM, columns.x / DBU_PER_UM), axis=1)


def effective_distance_map(
    netlist: Netlist,
    shape: Optional[Tuple[int, int]] = None,
    positions: Optional[Sequence[Tuple[float, float]]] = None,
) -> np.ndarray:
    """Compute the effective-distance raster."""
    shape = shape or map_shape_for(netlist)
    pads = np.asarray(positions) if positions is not None else pad_positions_px(netlist)
    rows, cols = shape
    yy, xx = np.mgrid[0:rows, 0:cols]
    inverse_sum = np.zeros(shape)
    for pad_row, pad_col in pads:
        distance = np.hypot(yy - pad_row, xx - pad_col)
        np.maximum(distance, _MIN_DISTANCE_PX, out=distance)
        inverse_sum += 1.0 / distance
    return 1.0 / inverse_sum
