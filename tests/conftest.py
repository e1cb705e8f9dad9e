import math

import pytest

from pillardet import geometry, verify
from pillardet.config import PipelineConfig, config_from_dict
from pillardet.grid import GridSpec


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


def half_cell_shifted(roi_grids):
    """``roi_grids`` with every point moved half a grid cell along its
    RoI's length."""
    def shifted(rois, grid_size):
        pts = roi_grids(rois, grid_size)
        for n, r in enumerate(rois):
            step = 0.5 * r.length / grid_size
            pts[n, ..., 0] += step * math.cos(r.yaw)
            pts[n, ..., 1] += step * math.sin(r.yaw)
        return pts
    return shifted


def iou_bounds(a, b):
    """The upper bounds on ``iou_3d(a, b)`` that the IoU screen of
    ``geometry.iou_3d_tables`` reads, pair k being (a[k], b[k])."""
    return geometry._iou_bounds(geometry._fields(a), geometry._fields(b))


def halve_iou_bound(monkeypatch):
    """The IoU bound of the screen in ``geometry.iou_3d_tables`` is halved,
    so the screen skips pairs at or above their threshold: pairs that
    suppress in NMS and that match in evaluation."""
    bounds = geometry._iou_bounds
    monkeypatch.setattr(geometry, "_iou_bounds",
                        lambda ra, rb: 0.5 * bounds(ra, rb))


def raise_sparse_conv_weight(monkeypatch):
    """``verify.sparse_conv2d`` with kernel weight [1, 1, 0, 0] raised by
    1e-3: the sparse side of the sparse-dense suite only."""
    sparse_conv2d = verify.sparse_conv2d

    def perturbed(volume, weight, *args, **kwargs):
        weight = weight.copy()
        weight[1, 1, 0, 0] += 1e-3
        return sparse_conv2d(volume, weight, *args, **kwargs)

    monkeypatch.setattr(verify, "sparse_conv2d", perturbed)
