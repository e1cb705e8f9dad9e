#!/usr/bin/env python3
"""Rotated-box geometry: projection, containment, and IoU vs Monte Carlo.

Walks through the primitives everything else is built on, then spot-checks
the polygon-clipping IoU against a million-sample Monte-Carlo estimate.
"""

import math

import numpy as np

from pillardet import Box3D, RotatedRect2D, iou_3d, points_in_rect, \
    project_to_bev, rotated_iou_bev
from pillardet.oracles import mc_rotated_iou

print("== projecting a 3D box to its BEV footprint ==")
box = Box3D(cx=2.0, cy=-1.0, cz=0.4, length=4.6, width=2.1, height=1.7,
            yaw=0.35)
rect = project_to_bev(box)
print(f"box     center=({box.cx}, {box.cy}, {box.cz})  "
      f"size=({box.length} x {box.width} x {box.height})  yaw={box.yaw}")
print(f"footprint  center=({rect.cx}, {rect.cy})  "
      f"size=({rect.length} x {rect.width})  area={rect.area:.2f} m^2")
print(f"corners (CCW): {[tuple(round(v, 2) for v in c) for c in rect.corners()]}")

print("\n== point containment (boundary counts as inside) ==")
square = RotatedRect2D(0, 0, 1, 1, math.pi / 4)
points = [(0.0, 0.0), (0.6, 0.0), (0.6, 0.6)]
for p, inside in zip(points, points_in_rect(np.array(points), square)):
    print(f"  {p} in 45-degree unit square -> {inside}")

print("\n== clipping IoU vs Monte Carlo (10^6 samples per pair) ==")
cases = [
    ("identical rects", RotatedRect2D(0, 0, 4, 2, 0.3), RotatedRect2D(0, 0, 4, 2, 0.3)),
    ("half-offset unit squares", RotatedRect2D(0, 0, 1, 1, 0), RotatedRect2D(0.5, 0, 1, 1, 0)),
    ("unit squares at 45 degrees", RotatedRect2D(0, 0, 1, 1, 0), RotatedRect2D(0, 0, 1, 1, math.pi / 4)),
]
rng = np.random.default_rng(0)
for _ in range(4):
    a = RotatedRect2D(rng.uniform(-2, 2), rng.uniform(-2, 2),
                      rng.uniform(1, 5), rng.uniform(1, 5),
                      rng.uniform(-math.pi, math.pi))
    b = RotatedRect2D(a.cx + rng.uniform(-2, 2), a.cy + rng.uniform(-2, 2),
                      rng.uniform(1, 5), rng.uniform(1, 5),
                      rng.uniform(-math.pi, math.pi))
    cases.append(("random pair", a, b))

print(f"{'case':<28}{'clipped':>10}{'monte-carlo':>13}{'|diff|':>10}")
for name, a, b in cases:
    clip = rotated_iou_bev(a, b)
    mc = mc_rotated_iou(a, b, samples=1_000_000, seed=1)
    print(f"{name:<28}{clip:>10.5f}{mc:>13.5f}{abs(clip - mc):>10.1e}")

print("\n== 3D IoU adds the vertical overlap ==")
a = Box3D(0, 0, 0.0, 1, 1, 1, 0.0)
for dz in (0.0, 0.5, 1.0):
    b = Box3D(0, 0, dz, 1, 1, 1, 0.0)
    print(f"  unit cubes offset dz={dz}: iou_3d = {iou_3d(a, b):.4f}")
