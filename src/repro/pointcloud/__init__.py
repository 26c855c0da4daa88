"""``repro.pointcloud`` — the netlist modality.

Lossless element-wise encoding (paper Fig. 3) and token-count sampling
for fixed-size batches.
"""

from repro.pointcloud.encode import POINT_FEATURES, PointCloud, encode_netlist
from repro.pointcloud.sampling import (
    farthest_point_sample,
    fit_to_count,
    sample_grid,
    sample_random,
)

__all__ = [
    "encode_netlist", "PointCloud", "POINT_FEATURES",
    "sample_random", "sample_grid", "farthest_point_sample", "fit_to_count",
]
