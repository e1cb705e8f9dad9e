"""Second-stage refinement: rotated RoI grid pooling on the BEV plane.

A G x G lattice of points is placed inside each proposal's rotated
footprint, features are bilinearly interpolated from the pooling map, and
a small MLP predicts a confidence logit plus seven box residuals. The
sampler asks the map for its values once, at the distinct cells under
the grid points, so a lazily evaluated :class:`~pillardet.fpn.LateralMap`
computes only those cells.
An auxiliary per-grid-point segmentation head (training only) checks that
the pooled features carry enough structure to separate foreground from
background.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (Box3D, _fields, _to_world, exp_extent, iou_3d_matrix,
                       normalize_angle, points_in_rect, project_to_bev)
from .fpn import LateralMap
from .grid import DenseFeatureMap, GridSpec, gemm_rows, relu
from .rpn import Detection, _sigmoid
from .weights import WeightStore

# anything with stride, height, width, channels, dtype and
# ``at(iy, ix) -> (K, C)``
FeatureSource = DenseFeatureMap | LateralMap

N_RESIDUALS = 7  # dx/d, dy/d, dz/h, log-size ratios (3), dyaw

# points bilinear_sample blends per step
_BLEND_ROWS = 2048


@dataclass(frozen=True)
class SampledProposals:
    """A seeded training sample of RoIs with IoU-derived labels."""

    rois: tuple[Box3D, ...]
    gt_index: np.ndarray           # (N,), -1 for negatives
    iou: np.ndarray                # (N,) best 3D IoU against gt
    positive: np.ndarray           # (N,) bool
    confidence_target: np.ndarray  # (N,) clamp(2*iou - 0.5, 0, 1)
    regression_target: np.ndarray  # (N, 7), zeros for negatives

    def __len__(self) -> int:
        return len(self.rois)


def roi_grids(rois: list[Box3D], grid_size: int) -> np.ndarray:
    """Evenly spaced G x G points in each rotated RoI, as (N, G, G, 2).

    Index [n, i, j] walks RoI n's length axis with i and its width axis
    with j; points are inset by half a grid cell so G = 1 lands on the
    center.
    """
    rows = _fields(rois)[:, :, None, None]
    offset = -0.5 + (np.arange(grid_size) + 0.5) / grid_size
    lx = offset[:, None] * rows[:, 2]
    ly = offset[None, :] * rows[:, 3]
    return np.stack(_to_world(rows, lx, ly), axis=-1)


@dataclass(frozen=True)
class BilinearSupport:
    """The four lattice cells under each sampled point, as (M, 4) arrays.

    Corner k of point i is cell (``iy[i, k]``, ``ix[i, k]``) with weight
    ``weight[i, k]``; ``inside`` marks the corners that lie on the map.
    The sample is linear in the map, so each inside weight is also the
    analytic gradient of every output channel w.r.t. that cell.
    """

    iy: np.ndarray
    ix: np.ndarray
    weight: np.ndarray
    inside: np.ndarray


def _bilinear_support(m: FeatureSource, spec: GridSpec,
                     pts: np.ndarray) -> BilinearSupport:
    """The four lattice cells (cell centers) under each of the (M, 2) BEV
    points, with their bilinear weights."""
    cell = spec.cell_size(m.stride)
    # lattice coordinates are clipped to one cell beyond the map, so a
    # far-away point casts to an integer without overflow; beyond that
    # cell a point blends zeros with or without the clip
    u = np.clip((pts[:, 0] - spec.x_min) / cell - 0.5, -1.0, m.width)
    v = np.clip((pts[:, 1] - spec.y_min) / cell - 0.5, -1.0, m.height)
    ix0 = np.floor(u).astype(np.int64)
    iy0 = np.floor(v).astype(np.int64)
    tx, ty = u - ix0, v - iy0
    iy = iy0[:, None] + np.array([0, 0, 1, 1])
    ix = ix0[:, None] + np.array([0, 1, 0, 1])
    weight = np.stack([(1 - ty) * (1 - tx), (1 - ty) * tx,
                       ty * (1 - tx), ty * tx], axis=1)
    inside = (iy >= 0) & (iy < m.height) & (ix >= 0) & (ix < m.width)
    return BilinearSupport(iy, ix, weight, inside)


def bilinear_sample(m: FeatureSource, spec: GridSpec,
                    pts: np.ndarray) -> tuple[np.ndarray, BilinearSupport]:
    """Interpolate the map at (M, 2) BEV points -> (M, C) values.

    Corners off the map blend with zeros. The distinct on-map corner cells
    are looked up with one ``m.at`` call. Also returns the corners and
    weights used, which double as the analytic gradient. Each corner's
    product with its float64 weight is formed in float64 and rounded to
    the map's dtype; the sum runs in the map's dtype.
    """
    sup = _bilinear_support(m, spec, pts)
    # keyed ix * height + iy; an off-map corner keys past every cell, so
    # it reads the slot after the last cell's: a zero row
    n_cells = m.height * m.width
    cells, corner_slot = np.unique(
        np.where(sup.inside, sup.ix * m.height + sup.iy, n_cells),
        return_inverse=True)
    corner_slot = corner_slot.reshape(sup.inside.shape)
    cells = cells[cells < n_cells]
    values = np.zeros((len(cells) + 1, m.channels), m.dtype)
    values[:-1] = m.at(cells % m.height, cells // m.height)
    # blend a chunk of points at a time, scaling each corner gather in
    # place: one chunk-sized gather is live, not (M, C); every slot is
    # valid, and mode="clip" lets `take` skip its own output buffer
    out = np.zeros((len(pts), m.channels), m.dtype)
    corner = np.empty((min(len(pts), _BLEND_ROWS), m.channels), m.dtype)
    for i in range(0, len(pts), _BLEND_ROWS):
        o = out[i:i + _BLEND_ROWS]
        c = corner[:len(o)]
        for k in range(4):
            np.take(values, corner_slot[i:i + len(o), k], axis=0, out=c, mode="clip")
            c *= sup.weight[i:i + len(o), k, None]
            o += c
    return out, sup


def pool_roi_features(rois: list[Box3D], m: FeatureSource, spec: GridSpec,
                      grid_size: int) -> np.ndarray:
    """Pooled grid-point features for every RoI: (N, G, G, C)."""
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    if not rois:
        return np.zeros((0, grid_size, grid_size, m.channels), m.dtype)
    pts = roi_grids(rois, grid_size).reshape(-1, 2)
    feats, _ = bilinear_sample(m, spec, pts)
    return feats.reshape(len(rois), grid_size, grid_size, m.channels)


def encode_residuals(roi: Box3D, target: Box3D) -> np.ndarray:
    """Box residuals of ``target`` relative to ``roi``.

    Center deltas are world-frame, normalized by the RoI BEV diagonal
    (z by the RoI height); sizes are log ratios; yaw is the wrapped
    difference.
    """
    d = roi.bev_diagonal
    return np.array([
        (target.cx - roi.cx) / d,
        (target.cy - roi.cy) / d,
        (target.cz - roi.cz) / roi.height,
        math.log(target.length / roi.length),
        math.log(target.width / roi.width),
        math.log(target.height / roi.height),
        normalize_angle(target.yaw - roi.yaw),
    ])


def decode_residuals(roi: Box3D, residuals: np.ndarray) -> Box3D:
    """Inverse of :func:`encode_residuals`; log ratios go through the
    clamped :func:`~pillardet.geometry.exp_extent`. Residuals are read as
    Python floats, so the box is float64 whatever their dtype."""
    d = roi.bev_diagonal
    r = np.asarray(residuals, dtype=np.float64).tolist()
    return Box3D(roi.cx + r[0] * d, roi.cy + r[1] * d,
                 roi.cz + r[2] * roi.height,
                 roi.length * exp_extent(r[3]), roi.width * exp_extent(r[4]),
                 roi.height * exp_extent(r[5]),
                 roi.yaw + r[6], class_id=roi.class_id)


def rcnn_forward(rois: list[Box3D], m: FeatureSource, spec: GridSpec,
                 weights: WeightStore, grid_size: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared MLP over flattened RoI grids.

    Returns (confidence logits (N,), residuals (N, 7), pooled grid
    features (N, G, G, C)); RoIs never interact, not even in rounding.
    """
    pooled = pool_roi_features(rois, m, spec, grid_size)
    x = pooled.reshape(len(rois), -1)
    x = relu(gemm_rows(x, weights.get("rcnn.fc1.w"), weights.get("rcnn.fc1.b")))
    x = relu(gemm_rows(x, weights.get("rcnn.fc2.w"), weights.get("rcnn.fc2.b")))
    logits = gemm_rows(x, weights.get("rcnn.cls.w"), weights.get("rcnn.cls.b"))[:, 0]
    residuals = gemm_rows(x, weights.get("rcnn.reg.w"), weights.get("rcnn.reg.b"))
    return logits, residuals, pooled


def seg_forward(pooled: np.ndarray, weights: WeightStore) -> np.ndarray:
    """Per-grid-point foreground logits from pooled features: (N, G, G)."""
    n, g, _, c = pooled.shape
    x = relu(gemm_rows(pooled.reshape(-1, c), weights.get("rcnn.seg.fc1.w"),
                       weights.get("rcnn.seg.fc1.b")))
    x = gemm_rows(x, weights.get("rcnn.seg.fc2.w"), weights.get("rcnn.seg.fc2.b"))
    return x.reshape(n, g, g)


def confidence_target(iou: np.ndarray) -> np.ndarray:
    """IoU-derived soft label: 0 below 0.25, 1 above 0.75, linear between."""
    return np.clip(2.0 * np.asarray(iou) - 0.5, 0.0, 1.0)


def sample_proposals(proposals: list[Box3D], gt: list[Box3D], seed: int,
                     sample_size: int = 128) -> SampledProposals:
    """Draw up to ``sample_size`` RoIs aiming for a 1:1 positive ratio.

    Positives overlap some ground-truth box with 3D IoU >= 0.55 and
    carry their best-IoU box for targets. When one pool is short, the
    other fills up to the cap. Selection uses only the seeded generator.
    """
    n = len(proposals)
    if n == 0 or not gt:
        iou = np.zeros(n)
        gt_idx = np.full(n, -1, dtype=np.int64)
    else:
        matrix = iou_3d_matrix(proposals, gt)
        iou = matrix.max(axis=1)
        gt_idx = matrix.argmax(axis=1)
    positive = iou >= 0.55

    rng = np.random.default_rng(seed)
    pos_pool = np.nonzero(positive)[0]
    neg_pool = np.nonzero(~positive)[0]
    half = sample_size // 2
    take_pos = min(half, len(pos_pool))
    take_neg = min(sample_size - take_pos, len(neg_pool))
    if take_neg < half:
        take_pos = min(sample_size - take_neg, len(pos_pool))
    sel_pos = rng.permutation(pos_pool)[:take_pos]
    sel_neg = rng.permutation(neg_pool)[:take_neg]
    sel = np.concatenate([sel_pos, sel_neg]).astype(np.int64)

    rois = tuple(proposals[i] for i in sel)
    sel_iou = iou[sel]
    sel_pos_mask = positive[sel]
    sel_gt = np.where(sel_pos_mask, gt_idx[sel], -1)
    reg = np.zeros((len(sel), N_RESIDUALS))
    for row, (i, is_pos) in enumerate(zip(sel, sel_pos_mask)):
        if is_pos:
            reg[row] = encode_residuals(proposals[i], gt[gt_idx[i]])
    return SampledProposals(rois, sel_gt, sel_iou, sel_pos_mask,
                            confidence_target(sel_iou), reg)


def aux_seg_labels(rois: list[Box3D], gt: list[Box3D],
                   grid_size: int) -> np.ndarray:
    """Binary foreground labels for the grid points of each RoI, (N, G, G).

    A point is foreground iff it falls inside (boundary included) the BEV
    footprint of any ground-truth box; footprints never overlap, so labels
    are unambiguous.
    """
    pts = roi_grids(rois, grid_size)
    fg = np.zeros(pts.shape[:-1], dtype=bool)
    for g in gt:
        fg |= points_in_rect(pts, project_to_bev(g))
    return fg.astype(np.float64)


def _bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    return (np.maximum(logits, 0.0) - logits * targets
            + np.log1p(np.exp(-np.abs(logits))))


def _smooth_l1(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


@dataclass(frozen=True)
class RcnnLossParts:
    confidence: float
    regression: float
    seg: float


def rcnn_loss(conf_logits: np.ndarray, residuals: np.ndarray,
              seg_logits: np.ndarray, batch: SampledProposals,
              seg_labels: np.ndarray) -> RcnnLossParts:
    """Confidence BCE over every sampled RoI, smooth-L1 regression over
    positives (normalized by their count), BCE segmentation over all grid
    points of all sampled RoIs."""
    n = len(batch)
    if n == 0:
        return RcnnLossParts(0.0, 0.0, 0.0)
    conf = float(_bce_with_logits(conf_logits, batch.confidence_target).mean())
    n_pos = int(np.count_nonzero(batch.positive))
    if n_pos:
        diff = residuals[batch.positive] - batch.regression_target[batch.positive]
        reg = float(_smooth_l1(diff).sum()) / n_pos
    else:
        reg = 0.0
    seg = float(_bce_with_logits(seg_logits, seg_labels).mean())
    return RcnnLossParts(conf, reg, seg)


@dataclass(frozen=True)
class LossReport:
    """Total training loss and its components.

    ``total`` is the plain sum rpn (in ascending stride order) + rcnn +
    seg with equal weights and no hidden scaling; ``rcnn`` is confidence
    plus regression.
    """

    rpn: dict[int, float]
    rcnn_confidence: float
    rcnn_regression: float
    rcnn: float
    seg: float
    total: float

    @classmethod
    def build(cls, rpn: dict[int, float],
              rcnn_parts: RcnnLossParts) -> "LossReport":
        rcnn = rcnn_parts.confidence + rcnn_parts.regression
        total = sum(rpn[s] for s in sorted(rpn)) + rcnn + rcnn_parts.seg
        return cls(dict(rpn), rcnn_parts.confidence, rcnn_parts.regression,
                   rcnn, rcnn_parts.seg, total)


def refine(proposals: list[Detection], m: FeatureSource, spec: GridSpec,
           weights: WeightStore, grid_size: int) -> list[Detection]:
    """Decode residuals onto the proposals and rescore with the MLP head.

    Without proposals the map is never read. Non-finite head outputs
    (extreme weights overflowing the maps' dtype) raise ``ValueError``.
    """
    if not proposals:
        return []
    boxes = [d.box for d in proposals]
    logits, residuals, _ = rcnn_forward(boxes, m, spec, weights, grid_size)
    if not (np.isfinite(logits).all() and np.isfinite(residuals).all()):
        raise ValueError("refine: the R-CNN logits or residuals hold "
                         "non-finite values")
    out = []
    for d, score, r in zip(proposals, _sigmoid(logits).tolist(), residuals):
        refined = decode_residuals(d.box, r)
        out.append(Detection(refined, d.class_id, score,
                             iou_score=d.iou_score, rectified_score=score))
    return out
