#!/usr/bin/env python3
"""RoI grid pooling and second-stage refinement.

Places a G x G lattice inside a rotated proposal, samples the pooling map
bilinearly (with a finite-difference check of the analytic gradients),
and runs the refinement MLP end to end.
"""

import math

import numpy as np

from pillardet import Box3D, GridSpec, WeightStore, bilinear_sample, \
    roi_grids
from pillardet.grid import DenseFeatureMap
from pillardet.oracles import finite_difference_grad
from pillardet.rcnn import decode_residuals, encode_residuals, refine
from pillardet.rpn import Detection

spec = GridSpec(x_min=-4.0, x_max=4.0, y_min=-4.0, y_max=4.0,
                z_min=-2.0, z_max=4.0, pillar_size=0.5)

print("== grid points of a rotated RoI (G = 5) ==")
roi = Box3D(0.5, -0.3, 0.2, 3.0, 1.4, 1.5, 0.6)
pts = roi_grids([roi], 5)[0]
print(f"RoI {roi.length} x {roi.width} m at yaw {roi.yaw:.2f}")
print(f"lattice mean = ({pts[..., 0].mean():.6f}, {pts[..., 1].mean():.6f}) "
      f"== RoI center ({roi.cx}, {roi.cy})")
print(f"corner points inset by half a cell: first point "
      f"({pts[0, 0, 0]:.3f}, {pts[0, 0, 1]:.3f})")

print("\n== bilinear sampling with analytic gradients ==")
rng = np.random.default_rng(5)
data = rng.normal(size=(16, 16, 1))
m = DenseFeatureMap(1, data)
p = (0.63, -1.21)
pt = np.array([p])
value, sup = bilinear_sample(m, spec, pt)
corners = np.nonzero(sup.inside[0])[0]
print(f"sample at {p}: value {value[0, 0]:+.4f}, "
      f"{len(corners)} supporting cells")
analytic = np.zeros_like(data)
for k in corners:
    iy, ix, w = sup.iy[0, k], sup.ix[0, k], sup.weight[0, k]
    analytic[iy, ix, 0] = w
    print(f"  cell (iy={iy}, ix={ix}) weight {w:.4f}")
fd = finite_difference_grad(
    lambda x: bilinear_sample(DenseFeatureMap(1, x), spec, pt)[0][0, 0], data)
print(f"max |analytic - finite difference| over all {data.size} entries: "
      f"{np.abs(analytic - fd).max():.2e}")

print("\n== residual encode/decode round trip ==")
target = Box3D(0.9, -0.1, 0.35, 3.3, 1.5, 1.6, 0.75)
res = encode_residuals(roi, target)
back = decode_residuals(roi, res)
print(f"residuals: {np.round(res, 4)}")
print(f"decoded center error: {math.hypot(back.cx - target.cx, back.cy - target.cy):.2e} m")

print("\n== refinement head over a pooling map ==")
grid_size = 5
c_pool = 4
layout = {"rcnn.fc1.w": (grid_size ** 2 * c_pool, 32), "rcnn.fc1.b": (32,),
          "rcnn.fc2.w": (32, 32), "rcnn.fc2.b": (32,),
          "rcnn.cls.w": (32, 1), "rcnn.cls.b": (1,),
          "rcnn.reg.w": (32, 7), "rcnn.reg.b": (7,),
          "rcnn.seg.fc1.w": (c_pool, 8), "rcnn.seg.fc1.b": (8,),
          "rcnn.seg.fc2.w": (8, 1), "rcnn.seg.fc2.b": (1,)}
store = WeightStore.seeded(layout, 11)
pool_map = DenseFeatureMap(1, rng.normal(size=(16, 16, c_pool)))
proposals = [Detection(roi, 0, 0.8, iou_score=0.7),
             Detection(Box3D(-1.5, 1.0, 0, 2.0, 1.0, 1.2, -0.9), 0, 0.5,
                       iou_score=0.4)]
refined = refine(proposals, pool_map, spec, store, grid_size)
for before, after in zip(proposals, refined):
    shift = math.hypot(after.box.cx - before.box.cx,
                       after.box.cy - before.box.cy)
    print(f"  proposal score {before.score:.2f} -> refined score "
          f"{after.score:.3f}, center moved {shift:.3f} m")
print("\n(Seeded weights: the numbers are arbitrary but deterministic; the "
      "point\nis the mechanics, which the test suite pins against oracles.)")
