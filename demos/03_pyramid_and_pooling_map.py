#!/usr/bin/env python3
"""Lateral connections: the proposal pyramid and the R-CNN pooling map.

Shows the two places the same merge recipe, one ``LateralMap`` (deconv
the coarse semantic map, densify the sparse volume, concatenate, blend
with a 3x3 conv), is used, and what the bottom-up branch contributes.
The pyramid is built densely; the pooling map is evaluated only at the
cells asked for, here every cell so that it can be checked against its
dense build and the two variants can be compared.
"""

from dataclasses import replace

import numpy as np

from pillardet import (SceneSpec, WeightStore, backbone_forward,
                       build_pooling_map, build_pyramid, generate_scene,
                       pillarize)
from pillardet.config import config_from_dict, weight_layout

cfg = config_from_dict({
    "grid": {"x_min": -25.6, "x_max": 25.6, "y_min": -25.6, "y_max": 25.6,
             "z_min": -2.0, "z_max": 4.0, "pillar_size": 0.1},
    "backbone_channels": [16, 32, 64, 128, 256],
    "neck_channels": 128,
    "pool_channels": 128,
    "seed": 4,
})
weights = WeightStore.seeded(weight_layout(cfg), cfg.seed)
cloud, _ = generate_scene(SceneSpec(seed=33), cfg.grid)
backbone = backbone_forward(pillarize(cloud, cfg.grid, weights),
                            weights, cfg.backbone_channels)

print("== building the proposal pyramid ==")
pyramid = build_pyramid(backbone, weights)
print(f"P4 = merge(C5 up, C4): {pyramid[8].height}x{pyramid[8].width} "
      f"@ stride 8, {pyramid[8].channels} channels")
print(f"P3 = merge(P4 up, C3): {pyramid[4].height}x{pyramid[4].width} "
      f"@ stride 4, {pyramid[4].channels} channels")
print("Vehicles are detected on P4 (coarse, large objects); pedestrians "
      "and\ncyclists on P3 (fine, small objects).")

print("\n== building the pooling map for box refinement ==")
pool = build_pooling_map(backbone, pyramid, weights, cfg.pool_stride,
                         cfg.bottom_up_strides)
print(f"pooling map: {pool.height}x{pool.width} @ stride {cfg.pool_stride} "
      f"({cfg.grid.cell_size(cfg.pool_stride):.1f} m cells), "
      f"{pool.channels} channels, nothing computed yet")
iy, ix = np.meshgrid(np.arange(pool.height), np.arange(pool.width),
                     indexing="ij")
iy, ix = iy.ravel(), ix.ravel()
corner = pool.at(np.array([0]), np.array([0]))
print(f"pool.at(0, 0) evaluates one cell: {corner.shape[1]} channels, "
      f"max {corner.max():.4f}")
shape = (pool.height, pool.width, pool.channels)
lazy = pool.at(iy, ix).reshape(shape)
gap = np.abs(pool.dense().data - lazy).max()
print(f"pool.at over all {pool.height * pool.width} cells vs pool.dense(), "
      f"the same map built whole: max |difference| {gap:.1e}")

print("\n== what the bottom-up branch adds ==")
# the semantics-only ablation is a config with no bottom-up volume; its
# blending kernel is the full one's upsampled slice, so the two maps
# differ only by what the volume adds
ablation = replace(cfg, pool_bottom_up_strides=())
ablation_weights = WeightStore({**dict(weights.items()), "neck.pool.conv.w":
                               weights.get("neck.pool.conv.w")[:, :, :cfg.pool_channels]})
ablated = build_pooling_map(backbone, pyramid, ablation_weights,
                            ablation.pool_stride, ablation.bottom_up_strides)
diff = np.abs(lazy - ablated.at(iy, ix).reshape(shape))
occupied = np.zeros((pool.height, pool.width), dtype=bool)
c3 = backbone.c3
occupied[c3.coords[:, 1], c3.coords[:, 0]] = True
print(f"semantic-only map differs from the full map on "
      f"{np.count_nonzero(diff.any(axis=-1))} of {pool.height * pool.width} "
      f"cells")
print(f"mean |difference| near occupied pillars: "
      f"{diff[occupied].mean():.4f}")
print(f"mean |difference| elsewhere:             "
      f"{diff[~occupied].mean():.4f}")
print("\nThe sparse bottom-up volume injects spatially precise detail "
      "exactly\nwhere geometry exists; the top-down path alone only carries "
      "smoothed\nsemantics.")
