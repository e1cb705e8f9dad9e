import math

import numpy as np
import pytest

from pillardet.config import PipelineConfig, config_from_dict
from pillardet.geometry import RotatedRect2D
from pillardet.grid import GridSpec, SparsePillarVolume


SMALL_CONFIG_DICT = {
    "grid": {"x_min": -12.8, "x_max": 12.8, "y_min": -12.8, "y_max": 12.8,
             "z_min": -2.0, "z_max": 4.0, "pillar_size": 0.1},
    "backbone_channels": [8, 16, 16, 32, 48],
    "neck_channels": 32,
    "head_channels": 24,
    "pool_channels": 32,
    "mlp_channels": [64, 64],
    "seg_hidden": 16,
    "seed": 0,
}

# wrongly typed JSON values, each with the field path its one error line names
ODD_VALUES = [
    ('{"neck_channels": [1]}', "neck_channels"),
    ('{"grid": []}', "grid"),
    ('{"top_k": {"vehicle": null}}', "top_k[vehicle]"),
    ('{"pool_stride": "abc"}', "pool_stride"),
    ('{"grid": {"x_min": -1e999}}', "grid.x_min"),
    ('{"pool_bottom_up_strides": [4, "x"]}', "pool_bottom_up_strides[1]"),
    ('{"neck_channels": 2.7}', "neck_channels"),
    ('{"seed": true}', "seed"),
    ('{"nms_iou": {"vehicle": NaN}}', "nms_iou[vehicle]"),
    ('{"weights_path": 5}', "weights_path"),
]


@pytest.fixture
def small_config() -> PipelineConfig:
    return config_from_dict(SMALL_CONFIG_DICT)


@pytest.fixture
def small_grid(small_config) -> GridSpec:
    return small_config.grid


def make_volume(rng: np.random.Generator, nx: int, ny: int, channels: int,
                density: float = 0.15) -> SparsePillarVolume:
    """Random sparse volume with sorted unique coords."""
    n = max(1, int(nx * ny * density))
    keys = np.sort(rng.choice(nx * ny, size=n, replace=False))
    coords = np.stack([keys // ny, keys % ny], axis=1)
    return SparsePillarVolume(1, nx, ny, coords, rng.normal(size=(n, channels)))


def footprint_margin(xy: np.ndarray, rect: RotatedRect2D) -> np.ndarray:
    """Least signed distance of each (..., 2) point to the four edge lines
    of ``rect``: > 0 inside, < 0 outside and 0 on the boundary.

    Built from edge cross products against ``rect.corners()``, so it shares
    nothing with ``geometry.points_in_rect``, which rotates each point into
    the rect frame. Corners and edges of an axis-aligned rect with dyadic
    fields are exact, so points on its boundary read exactly 0.
    """
    xy = np.asarray(xy, dtype=np.float64)
    corners = rect.corners()
    margin = np.full(xy.shape[:-1], np.inf)
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        cross = (bx - ax) * (xy[..., 1] - ay) - (by - ay) * (xy[..., 0] - ax)
        margin = np.minimum(margin, cross / math.hypot(bx - ax, by - ay))
    return margin
