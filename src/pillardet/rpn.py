"""Center-based proposal generation on the feature pyramid.

Each pyramid level carries the classes whose objects match its scale
(vehicles on the stride-8 map, pedestrians and cyclists on stride 4). A
level head predicts per-class center heatmaps plus shared regression maps:
sub-cell offset (2), z (1), log extents (3), heading as (sin, cos), and a
predicted-IoU channel used for score rectification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box3D, exp_extent, iou_3d, iou_3d_tables
from .grid import DenseFeatureMap, GridSpec, dense_conv2d, gemm_rows
from .weights import WeightStore

# regression channel order: [off_x, off_y, z, log_l, log_w, log_h, sin, cos]
N_REG = 8
_HM_CLAMP = 1e-4


@dataclass(frozen=True)
class Detection:
    """One scored box. ``rectified_score`` defaults to the raw score."""

    box: Box3D
    class_id: int
    score: float
    iou_score: float = 0.0
    rectified_score: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.rectified_score is None:
            object.__setattr__(self, "rectified_score", self.score)
        for name in ("score", "iou_score", "rectified_score"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class HeadOutput:
    """Per-level head maps. Heatmap is post-sigmoid, reg/iou are raw."""

    stride: int
    class_ids: tuple[int, ...]
    heatmap: np.ndarray   # (H, W, n_classes)
    reg: np.ndarray       # (H, W, 8)
    iou: np.ndarray       # (H, W, 1)


@dataclass(frozen=True)
class RpnTargets:
    """Training targets for one level: Gaussian heatmaps plus regression
    values defined at positive center cells."""

    stride: int
    class_ids: tuple[int, ...]
    heatmap: np.ndarray   # (H, W, n_classes)
    reg: np.ndarray       # (H, W, 8), zero away from positives
    mask: np.ndarray      # (H, W) bool, True at object centers


def gaussian_radius(length_cells: float, width_cells: float) -> float:
    """Splat radius guaranteeing 0.1 IoU for shifted corners."""
    h, w = length_cells, width_cells
    min_overlap = 0.1
    a1 = 1.0
    b1 = h + w
    c1 = w * h * (1 - min_overlap) / (1 + min_overlap)
    r1 = (b1 + math.sqrt(max(0.0, b1 * b1 - 4 * a1 * c1))) / 2
    a2 = 4.0
    b2 = 2 * (h + w)
    c2 = (1 - min_overlap) * w * h
    r2 = (b2 + math.sqrt(max(0.0, b2 * b2 - 4 * a2 * c2))) / 2
    a3 = 4.0 * min_overlap
    b3 = -2 * min_overlap * (h + w)
    c3 = (min_overlap - 1) * w * h
    r3 = (b3 + math.sqrt(max(0.0, b3 * b3 - 4 * a3 * c3))) / 2
    return min(r1, r2, r3)


def draw_gaussian(heatmap: np.ndarray, cx: int, cy: int, radius: int) -> None:
    """Max-splat a unit-peak Gaussian of the given integer radius."""
    h, w = heatmap.shape
    sigma = (2 * radius + 1) / 6.0
    y0, y1 = max(0, cy - radius), min(h, cy + radius + 1)
    x0, x1 = max(0, cx - radius), min(w, cx + radius + 1)
    ys = np.arange(y0, y1) - cy
    xs = np.arange(x0, x1) - cx
    patch = np.exp(-(ys[:, None] ** 2 + xs[None, :] ** 2) / (2 * sigma * sigma))
    np.maximum(heatmap[y0:y1, x0:x1], patch, out=heatmap[y0:y1, x0:x1])


def encode_targets(gt: list[Box3D], stride: int, spec: GridSpec,
                   class_ids: tuple[int, ...]) -> RpnTargets:
    """Build heatmap/regression targets for one level.

    Objects of other classes are ignored here (they belong to another
    level); objects whose center falls outside the range are skipped.
    """
    cell = spec.cell_size(stride)
    nx, ny = spec.nx // stride, spec.ny // stride
    n_cls = len(class_ids)
    heatmap = np.zeros((ny, nx, n_cls))
    reg = np.zeros((ny, nx, N_REG))
    mask = np.zeros((ny, nx), dtype=bool)
    cls_slot = {c: i for i, c in enumerate(class_ids)}

    for box in gt:
        slot = cls_slot.get(box.class_id)
        if slot is None:
            continue
        fx = (box.cx - spec.x_min) / cell
        fy = (box.cy - spec.y_min) / cell
        if not (0 <= fx < nx and 0 <= fy < ny):
            continue
        ix, iy = int(fx), int(fy)
        radius = max(2, int(gaussian_radius(box.length / cell, box.width / cell)))
        draw_gaussian(heatmap[:, :, slot], ix, iy, radius)
        heatmap[iy, ix, slot] = 1.0
        reg[iy, ix] = (fx - ix, fy - iy, box.cz,
                       math.log(box.length), math.log(box.width),
                       math.log(box.height), math.sin(box.yaw), math.cos(box.yaw))
        mask[iy, ix] = True
    return RpnTargets(stride, class_ids, heatmap, reg, mask)


def targets_as_predictions(targets: RpnTargets) -> HeadOutput:
    """View targets as an exact head output (zero IoU channel)."""
    h, w = targets.mask.shape
    return HeadOutput(targets.stride, targets.class_ids,
                      targets.heatmap.copy(), targets.reg.copy(),
                      np.zeros((h, w, 1)))


def _focal_loss(pred_hm: np.ndarray, target_hm: np.ndarray) -> tuple[float, int]:
    """Penalty-reduced focal loss (alpha 2, beta 4), CenterNet style."""
    p = np.clip(pred_hm, _HM_CLAMP, 1.0 - _HM_CLAMP)
    pos = target_hm == 1.0
    n_pos = int(np.count_nonzero(pos))
    pos_term = -np.sum(((1.0 - p) ** 2 * np.log(p))[pos])
    neg_w = (1.0 - target_hm[~pos]) ** 4
    neg_term = -np.sum(neg_w * (p[~pos] ** 2) * np.log(1.0 - p[~pos]))
    return (pos_term + neg_term) / max(1, n_pos), n_pos


def rpn_loss(preds: dict[int, HeadOutput],
             targets: dict[int, RpnTargets]) -> tuple[float, dict[int, dict[str, float]]]:
    """Sum of per-level losses plus a per-level, per-term breakdown.

    Heatmaps take the focal term; regression is an L1 over the eight
    channels at positive cells, normalized by the positive count.
    """
    total = 0.0
    breakdown: dict[int, dict[str, float]] = {}
    for stride in sorted(preds):
        pred, tgt = preds[stride], targets[stride]
        if pred.heatmap.shape != tgt.heatmap.shape or pred.reg.shape != tgt.reg.shape:
            raise ValueError(f"level {stride}: prediction/target shape mismatch")
        focal, n_pos = _focal_loss(pred.heatmap, tgt.heatmap)
        if n_pos:
            l1 = float(np.abs(pred.reg[tgt.mask] - tgt.reg[tgt.mask]).sum()) / n_pos
        else:
            l1 = 0.0
        breakdown[stride] = {"heatmap": float(focal), "regression": l1,
                             "positives": n_pos}
        total += float(focal) + l1
    return total, breakdown


class _HeadSink:
    """Output sink of a head's shared 3x3 conv: each band it receives
    (``sink[y0:y1] = rows``) goes through ReLU and the 1x1 heads, as one
    ``gemm_rows`` product against their kernels side by side; only the
    heads' raw maps are kept, as one (H, W, n_out) array."""

    def __init__(self, shape: tuple[int, int, int], kernel: np.ndarray,
                 bias: np.ndarray, dtype):
        self.shape = shape
        self._kernel, self._bias = kernel, bias
        self.maps = np.empty(shape[:2] + kernel.shape[1:],
                             np.result_type(dtype, kernel, bias))

    def __setitem__(self, rows: slice, band: np.ndarray) -> None:
        x = np.maximum(band, 0.0).reshape(-1, self.shape[2])
        y = gemm_rows(x, self._kernel, self._bias)
        self.maps[rows] = y.reshape(band.shape[:2] + self._kernel.shape[1:])


def rpn_forward(pyramid: dict[int, DenseFeatureMap], weights: WeightStore,
                level_classes: dict[int, tuple[int, ...]]
                ) -> dict[int, HeadOutput]:
    """Apply the center head to each pyramid level that detects a class.

    A level's head is a shared 3x3 conv + ReLU, then 1x1 convs to the
    heatmap logits, the regression maps and the IoU channel. The 1x1 convs
    run on each band of the shared conv as it is written
    (:class:`_HeadSink`), so the shared map is never whole.
    """
    out: dict[int, HeadOutput] = {}
    for stride, classes in sorted(level_classes.items()):
        fmap = pyramid[stride]
        prefix = f"rpn.s{stride}"
        shared_w = weights.get(f"{prefix}.shared.w")
        shared_b = weights.get(f"{prefix}.shared.b")
        names = ("hm", "reg", "iou")
        sink = _HeadSink(
            fmap.data.shape[:2] + shared_w.shape[3:],
            np.concatenate([weights.get(f"{prefix}.{n}.w") for n in names], axis=1),
            np.concatenate([weights.get(f"{prefix}.{n}.b") for n in names]),
            np.result_type(fmap.data, shared_w, shared_b))
        maps = dense_conv2d(fmap.data, shared_w, shared_b, out=sink).maps
        n = len(classes)
        out[stride] = HeadOutput(stride, classes, _sigmoid(maps[:, :, :n]),
                                 maps[:, :, n:n + N_REG], maps[:, :, n + N_REG:])
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _local_peaks(hm: np.ndarray) -> np.ndarray:
    """Cells strictly greater than all eight neighbors.

    Plateaus produce no peaks, so constant maps (e.g. from an empty scene)
    decode to an empty proposal list.
    """
    h, w = hm.shape
    padded = np.full((h + 2, w + 2), -np.inf, hm.dtype)
    padded[1:-1, 1:-1] = hm
    nbr = np.full_like(hm, -np.inf)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            np.maximum(nbr, padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w], out=nbr)
    return (hm > nbr) & (hm > 0.0)


def decode_proposals(heads: dict[int, HeadOutput], spec: GridSpec,
                     top_k: dict[int, int]) -> list[Detection]:
    """Decode per-class peaks into boxes.

    A peak's center decodes as (cell + offset) * cell_size + range_min,
    so a zero offset lands on the cell's minimum corner. Log extents are
    clamped by :func:`~pillardet.geometry.exp_extent`. The predicted-IoU
    channel is squashed through a sigmoid when read. Map values are read
    as Python floats, so boxes are float64 whatever the maps' dtype.
    """
    dets: list[Detection] = []
    for stride in sorted(heads):
        head = heads[stride]
        cell = spec.cell_size(stride)
        for slot, class_id in enumerate(head.class_ids):
            hm = head.heatmap[:, :, slot]
            peaks = _local_peaks(hm)
            iy, ix = np.nonzero(peaks)
            if len(iy) == 0:
                continue
            scores = hm[iy, ix]
            order = np.lexsort((ix, iy, -scores))[:top_k[class_id]]
            for idx in order:
                r, c = int(iy[idx]), int(ix[idx])
                reg = head.reg[r, c].tolist()
                cx = spec.x_min + (c + reg[0]) * cell
                cy = spec.y_min + (r + reg[1]) * cell
                box = Box3D(cx, cy, reg[2],
                            exp_extent(reg[3]), exp_extent(reg[4]),
                            exp_extent(reg[5]),
                            math.atan2(reg[6], reg[7]), class_id=class_id)
                w_iou = float(_sigmoid(head.iou[r, c, 0]))
                dets.append(Detection(box, class_id, float(scores[idx]), w_iou))
    return dets


def rectify(score: float, iou_score: float, beta: float) -> float:
    """Blend classification and predicted-IoU scores: S^(1-b) * W^b."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return (score ** (1.0 - beta)) * (iou_score ** beta)


def rectify_detections(dets: list[Detection],
                       beta: dict[int, float]) -> list[Detection]:
    return [Detection(d.box, d.class_id, d.score, d.iou_score,
                      rectify(d.score, d.iou_score, beta[d.class_id]))
            for d in dets]


def check_iou_threshold(class_id, threshold: float) -> None:
    """Reject an IoU threshold outside (0, 1]: a greedy scan at or below 0
    would take the zero IoU of far pairs, which are never clipped."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"IoU threshold for class {class_id} must be in "
                         f"(0, 1], got {threshold}")


def nms_3d(dets: list[Detection],
           iou_thresholds: dict[int, float]) -> list[Detection]:
    """Class-wise greedy NMS on 3D IoU, ordered by rectified score.

    Ties break toward the earlier input index. Survivors are returned in
    descending score order. Each class's boxes, in score order, are one
    ``(boxes,)`` group of a single :func:`iou_3d_tables` call, so all
    classes' near pairs are clipped at once, each class's screened at its
    threshold: a pair whose IoU bound falls short of it holds 0. The
    greedy scan then reads the suppressions, the cells above the
    threshold, from each class's table.
    """
    for class_id, thr in iou_thresholds.items():
        check_iou_threshold(class_id, thr)
    by_class: dict[int, list[int]] = {}
    for i, d in enumerate(dets):
        by_class.setdefault(d.class_id, []).append(i)
    classes = sorted(by_class)
    orders = [sorted(by_class[c], key=lambda i: (-dets[i].rectified_score, i))
              for c in classes]
    # clip with this module's iou_3d, which a tracer may patch; the scan
    # reads only cells above the threshold, so the rest may be screened
    tables = iou_3d_tables([([dets[i].box for i in order],) for order in orders],
                           clip=iou_3d,
                           at_least=[iou_thresholds[c] for c in classes])
    kept_idx: list[int] = []
    for class_id, order, table in zip(classes, orders, tables):
        suppresses: list[list[int]] = [[] for _ in order]
        p, q = np.nonzero(table > iou_thresholds[class_id])
        for a, b in zip(p.tolist(), q.tolist()):
            suppresses[a].append(b)
        alive = [True] * len(order)
        for pos, i in enumerate(order):
            if alive[pos]:
                kept_idx.append(i)
                for later in suppresses[pos]:
                    alive[later] = False
    kept_idx.sort(key=lambda i: (-dets[i].rectified_score, i))
    return [dets[i] for i in kept_idx]
