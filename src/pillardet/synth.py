"""Synthetic scenes and a pseudo-detector for desk-scale validation.

Scenes place BEV-disjoint boxes of roughly vehicle / pedestrian / cyclist
proportions, sample LiDAR-like points on their surfaces, and sprinkle
ground clutter. A seeded jitter turns ground truth into scored detections
so NMS, rectification and the metrics can be exercised without any
trained weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import CLASS_IDS
from .geometry import (Box3D, _fields, _intersection_areas, _near, _to_world,
                       iou_3d, points_in_rect, project_to_bev)
from .grid import GridSpec, PointCloud
from .rpn import Detection

VEHICLE, PEDESTRIAN, CYCLIST = (CLASS_IDS[name] for name in
                                ("vehicle", "pedestrian", "cyclist"))

# nominal (length, width, height) per class, jittered +-20% at sampling
CLASS_SIZES = {
    VEHICLE: (4.6, 2.1, 1.7),
    PEDESTRIAN: (0.9, 0.9, 1.7),
    CYCLIST: (1.8, 0.8, 1.7),
}

POINTS_PER_OBJECT = (30, 200)   # surface points per object, inclusive

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 mixing step."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def scene_seed(master_seed: int, index: int) -> int:
    """Per-scene seed derived from the master seed."""
    return splitmix64((master_seed & _MASK64) + index * _GOLDEN)


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one deterministic synthetic scene."""

    seed: int = 0
    counts: dict = field(default_factory=lambda: {VEHICLE: 6, PEDESTRIAN: 4,
                                                  CYCLIST: 3})
    noise_density: float = 0.05        # clutter points per square meter
    max_attempts: int = 200            # placement tries per object


def _sample_surface_points(row: np.ndarray, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Uniform samples on the surface of the box in a (1, 9)
    :func:`~pillardet.geometry._fields` row (LiDAR hits exteriors)."""
    l, w, h = row[0, 2], row[0, 3], row[0, 8]
    areas = np.array([w * h, w * h, l * h, l * h, l * w, l * w])
    face = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, n)
    v = rng.uniform(-0.5, 0.5, n)
    # per point: its face's axis (+-x, +-y, top/bottom), then u's and v's
    axes = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])[face // 2].T
    local = np.empty((n, 3))
    rows = np.arange(n)
    local[rows, axes[0]] = 0.5 - face % 2  # +0.5 on even faces, -0.5 on odd
    local[rows, axes[1]] = u
    local[rows, axes[2]] = v
    local *= (l, w, h)
    x, y = _to_world(row[:, :, None], local[None, :, 0], local[None, :, 1])
    return np.column_stack([x[0], y[0], row[0, 7] + local[:, 2]])


def points_in_box(xyz: np.ndarray, box: Box3D) -> np.ndarray:
    """Inclusive 3D containment mask for an (N, 3) point array."""
    return (points_in_rect(xyz[:, :2], project_to_bev(box))
            & (np.abs(xyz[:, 2] - box.cz) <= 0.5 * box.height))


def generate_scene(spec: SceneSpec,
                   grid: GridSpec = GridSpec()) -> tuple[PointCloud, list[Box3D]]:
    """Deterministically build one scene: surface-sampled objects over clutter.

    Boxes are rejection-sampled until pairwise BEV-disjoint; exhausting the
    attempt budget raises with the number placed so far. Ground-truth
    ``num_points`` is the recount of cloud points inside each box.
    """
    rng = np.random.default_rng(spec.seed)
    boxes: list[Box3D] = []
    total = sum(spec.counts.values())
    table = np.empty((total, 9))    # field rows of the placed boxes
    jitter = 0.2
    for class_id in sorted(spec.counts):
        base = CLASS_SIZES[class_id]
        for _ in range(spec.counts[class_id]):
            placed = False
            for _attempt in range(spec.max_attempts):
                l, w, h = (d * rng.uniform(1 - jitter, 1 + jitter)
                           for d in base)
                margin = 0.5 * math.hypot(l, w) + grid.pillar_size
                if (grid.x_max - grid.x_min <= 2 * margin
                        or grid.y_max - grid.y_min <= 2 * margin):
                    break
                cx = rng.uniform(grid.x_min + margin, grid.x_max - margin)
                cy = rng.uniform(grid.y_min + margin, grid.y_max - margin)
                lift = max(1e-9, min(0.3, grid.z_max - grid.z_min - h - 1e-6))
                cz = grid.z_min + 0.5 * h + rng.uniform(0.0, lift)
                yaw = rng.uniform(-math.pi, math.pi)
                cand = Box3D(cx, cy, cz, l, w, h, yaw, class_id=class_id)
                row, placed_rows = _fields([cand]), table[:len(boxes)]
                # only placed boxes whose circumcircles touch the candidate's
                # can overlap it
                near = _near(row, placed_rows)[1]
                if not len(near) or not (_intersection_areas(
                        row.repeat(len(near), 0), placed_rows[near]) > 0.0).any():
                    table[len(boxes)] = row[0]
                    boxes.append(cand)
                    placed = True
                    break
            if not placed:
                raise RuntimeError(
                    f"box placement budget exhausted after {len(boxes)} of "
                    f"{total} objects"
                )

    chunks = []
    for k in range(len(boxes)):
        n = int(rng.integers(POINTS_PER_OBJECT[0], POINTS_PER_OBJECT[1] + 1))
        xyz = _sample_surface_points(table[k:k + 1], n, rng)
        chunks.append(np.column_stack([xyz, rng.random(n)]))

    area = (grid.x_max - grid.x_min) * (grid.y_max - grid.y_min)
    n_noise = int(spec.noise_density * area)
    if n_noise:
        noise = np.column_stack([
            rng.uniform(grid.x_min, grid.x_max, n_noise),
            rng.uniform(grid.y_min, grid.y_max, n_noise),
            rng.uniform(grid.z_min, min(grid.z_min + 0.3, grid.z_max), n_noise),
            rng.random(n_noise),
        ])
        chunks.append(noise)

    data = np.concatenate(chunks) if chunks else np.zeros((0, 4))
    cloud = PointCloud(data)
    counted = [replace(b, num_points=int(np.count_nonzero(
        points_in_box(cloud.xyz, b)))) for b in boxes]
    return cloud, counted


@dataclass(frozen=True)
class JitterSpec:
    """Noise model of the pseudo-detector."""

    sigma_center: float = 0.0
    sigma_z: float = 0.0
    sigma_size: float = 0.0
    sigma_yaw: float = 0.0
    yaw_flip_prob: float = 0.0   # exact pi flips: IoU intact, heading ruined
    false_positives: int = 0


def jitter_detections(gt: list[Box3D], noise: JitterSpec, seed: int,
                      grid: GridSpec = GridSpec()) -> list[Detection]:
    """Perturb ground truth into scored detections.

    Scores equal the 3D IoU against the source box, so they are monotone
    in localization quality by construction. Optional false positives are
    dropped anywhere in range with a random low score.
    """
    rng = np.random.default_rng(seed)
    boxes: list[Box3D] = []
    for g in gt:
        yaw = g.yaw + rng.normal(0.0, noise.sigma_yaw) if noise.sigma_yaw else g.yaw
        if noise.yaw_flip_prob and rng.random() < noise.yaw_flip_prob:
            yaw += math.pi
        box = Box3D(
            g.cx + rng.normal(0.0, noise.sigma_center) if noise.sigma_center else g.cx,
            g.cy + rng.normal(0.0, noise.sigma_center) if noise.sigma_center else g.cy,
            g.cz + rng.normal(0.0, noise.sigma_z) if noise.sigma_z else g.cz,
            g.length * math.exp(rng.normal(0.0, noise.sigma_size)) if noise.sigma_size else g.length,
            g.width * math.exp(rng.normal(0.0, noise.sigma_size)) if noise.sigma_size else g.width,
            g.height * math.exp(rng.normal(0.0, noise.sigma_size)) if noise.sigma_size else g.height,
            yaw, class_id=g.class_id)
        boxes.append(box)
    dets = [Detection(box, g.class_id, score, iou_score=score)
            for box, g, score in zip(boxes, gt, iou_3d(boxes, gt).tolist())]

    for _ in range(noise.false_positives):
        class_id = int(rng.integers(0, 3))
        l, w, h = CLASS_SIZES[class_id]
        margin = 0.5 * math.hypot(l, w) + 0.1
        box = Box3D(rng.uniform(grid.x_min + margin, grid.x_max - margin),
                    rng.uniform(grid.y_min + margin, grid.y_max - margin),
                    grid.z_min + 0.5 * h,
                    l, w, h, rng.uniform(-math.pi, math.pi), class_id=class_id)
        score = float(rng.uniform(0.05, 0.5))
        dets.append(Detection(box, class_id, score, iou_score=score))
    return dets
