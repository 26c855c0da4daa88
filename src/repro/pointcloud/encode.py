"""Netlist → 3-D point cloud encoding (the paper's Fig. 3).

Each netlist element becomes one point carrying *all* of its attributes —
no rasterisation, no averaging, no information loss:

====== ======================================================
column meaning
====== ======================================================
0      x1 (normalised to [0, 1] by die width)
1      y1 (normalised by die height)
2      x2 (0 for single-node elements, i.e. sources)
3      y2
4      element value (per-type standardised; see notes)
5..7   one-hot element type (R, I, V)
8      originating layer / max layer
9      destination layer / max layer (0 for sources)
10     is-via flag (1 when layer1 != layer2)
====== ======================================================

Resistor values span orders of magnitude, so per-type standardisation
(log1p for R, z-score for I, raw/VDD for V) keeps the embedding
well-conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.spice.netlist import Netlist
from repro.spice.nodes import DBU_PER_UM

__all__ = ["POINT_FEATURES", "PointCloud", "encode_netlist"]

POINT_FEATURES = 11

_COL_X1, _COL_Y1, _COL_X2, _COL_Y2 = 0, 1, 2, 3
_COL_VALUE = 4
_COL_TYPE_R, _COL_TYPE_I, _COL_TYPE_V = 5, 6, 7
_COL_LAYER1, _COL_LAYER2 = 8, 9
_COL_IS_VIA = 10


@dataclass
class PointCloud:
    """Encoded netlist: (N, 11) float array plus provenance."""

    points: np.ndarray
    die_width_um: float
    die_height_um: float
    max_layer: int

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def of_type(self, kind: str) -> np.ndarray:
        """Rows of one element kind: 'R', 'I' or 'V'."""
        column = {"R": _COL_TYPE_R, "I": _COL_TYPE_I, "V": _COL_TYPE_V}[kind]
        return self.points[self.points[:, column] > 0.5]

    def vias(self) -> np.ndarray:
        return self.points[self.points[:, _COL_IS_VIA] > 0.5]


def encode_netlist(netlist: Netlist,
                   die_size_um: Optional[Tuple[float, float]] = None) -> PointCloud:
    """Losslessly encode every element of ``netlist`` as one point."""
    if die_size_um is None:
        xmin, ymin, xmax, ymax = netlist.bounding_box_um()
        width, height = max(xmax - xmin, 1e-9), max(ymax - ymin, 1e-9)
    else:
        width, height = die_size_um
        if width <= 0 or height <= 0:
            raise ValueError(f"die size must be positive, got {die_size_um}")
    max_layer = max(netlist.layers()) if netlist.num_nodes else 1

    table = netlist.node_table()
    columns = table.columns
    x_um, y_um = columns.x / DBU_PER_UM, columns.y / DBU_PER_UM
    layer = columns.layer / max_layer

    log_r = np.log1p(table.resistances)
    r_scale = max(float(log_r.max()), 1e-12) if log_r.size else 1.0

    currents = table.currents
    i_mean = float(currents.mean()) if currents.size else 0.0
    i_std = max(float(currents.std()), 1e-12) if currents.size else 1.0

    volts = table.voltages
    vdd = volts[0] if volts.size else 1.0

    def element_points(ends: np.ndarray, values: np.ndarray,
                       type_column: int) -> np.ndarray:
        """One row per element (``ends``: its node(s) per row) that has
        no ground endpoint; grounded elements carry no position."""
        kept = (ends >= 0).all(axis=1)
        ends = ends[kept]
        first = ends[:, 0]
        points = np.zeros((len(ends), POINT_FEATURES))
        points[:, _COL_X1] = x_um[first] / width
        points[:, _COL_Y1] = y_um[first] / height
        points[:, _COL_VALUE] = values[kept]
        points[:, type_column] = 1.0
        points[:, _COL_LAYER1] = layer[first]
        if ends.shape[1] == 2:  # resistors
            second = ends[:, 1]
            points[:, _COL_X2] = x_um[second] / width
            points[:, _COL_Y2] = y_um[second] / height
            points[:, _COL_LAYER2] = layer[second]
            points[:, _COL_IS_VIA] = columns.layer[first] != columns.layer[second]
        return points

    points = np.concatenate((
        element_points(table.resistor_nodes, log_r / r_scale, _COL_TYPE_R),
        element_points(table.current_nodes[:, None],
                       (currents - i_mean) / i_std, _COL_TYPE_I),
        element_points(table.voltage_nodes[:, None], volts / vdd, _COL_TYPE_V),
    ))

    return PointCloud(
        points=points,
        die_width_um=width,
        die_height_um=height,
        max_layer=max_layer,
    )
