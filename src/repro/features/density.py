"""PDN density map (contest feature #3).

BeGAN/IREDGe derive this from the mean PDN stripe spacing per region: a
dense grid region has low resistance per unit area and therefore less IR
drop.  We rasterise all PDN nodes, box-average the node count in a sliding
window, and report the local density (nodes per µm²).  ``as_spacing=True``
converts to the equivalent mean spacing (µm between grid resources), which
matches the contest's convention of larger values = sparser grid.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import ndimage

from repro.features.maps import map_shape_for
from repro.spice.netlist import Netlist

__all__ = ["pdn_density_map"]


def pdn_density_map(
    netlist: Netlist,
    shape: Optional[Tuple[int, int]] = None,
    window_px: int = 15,
    as_spacing: bool = False,
) -> np.ndarray:
    """Local PDN node density (or mean spacing) per pixel.

    Parameters
    ----------
    window_px:
        Side of the square averaging window (odd; even values are bumped).
    as_spacing:
        Report ``1 / sqrt(density)`` (mean spacing) instead of density.
    """
    if window_px < 1:
        raise ValueError(f"window must be >= 1, got {window_px}")
    if window_px % 2 == 0:
        window_px += 1
    shape = shape or map_shape_for(netlist)
    table = netlist.node_table()
    table.require_grid()
    rows, cols = table.columns.pixels(shape)
    counts = np.bincount(rows * shape[1] + cols,
                         minlength=shape[0] * shape[1]).reshape(shape).astype(float)

    density = ndimage.uniform_filter(counts, size=window_px, mode="nearest")
    if not as_spacing:
        return density
    floor = 1.0 / (window_px * window_px)  # at least one node in the window
    return 1.0 / np.sqrt(np.maximum(density, floor))
