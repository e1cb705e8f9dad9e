"""Average precision and heading-weighted average precision.

Detections are greedily matched to same-class ground truth by descending
score; the precision/recall curve is integrated at evenly spaced recall
points. APH reuses the same matches but lets each true positive contribute
1 - heading_error/pi to the precision numerator, so APH <= AP always.

Difficulty levels follow the point-count convention: LEVEL_1 keeps boxes
with more than five points, LEVEL_2 keeps boxes with at least one.
Detections matched to a box excluded by the level filter are ignored
entirely (neither TP nor FP). The match does not depend on the level, so
:func:`evaluate_levels` matches each class in each scene once and scores
both levels from that one match list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box3D, heading_delta, iou_3d
from .rpn import Detection

LEVELS = ("L1", "L2")
RECALL_POINTS = 101  # evenly spaced recall values the P/R curve is read at


@dataclass(frozen=True)
class MatchResult:
    """Per-detection match against one scene's ground truth."""

    det_index: int
    gt_index: int | None
    heading_error: float           # radians in [0, pi], 0.0 when unmatched


@dataclass(frozen=True)
class ClassMetrics:
    ap: float
    aph: float
    num_gt: int
    valid: bool                    # False when the class has no ground truth


def _keep_mask(gt: Sequence[Box3D], level: str) -> list[bool]:
    """Which boxes count at ``level``: LEVEL_1 needs more than five LiDAR
    points, LEVEL_2 at least one."""
    if level not in LEVELS:
        raise ValueError(f"unknown difficulty level '{level}'")
    fewest = 6 if level == "L1" else 1
    return [b.num_points >= fewest for b in gt]


def split_difficulty(gt: Sequence[Box3D], level: str) -> list[Box3D]:
    """Filter ground truth by LiDAR point count for a difficulty level."""
    return [b for b, keep in zip(gt, _keep_mask(gt, level)) if keep]


def match_detections(dets: Sequence[Detection], gt: Sequence[Box3D],
                     iou_threshold: float) -> list[MatchResult]:
    """Greedy score-ordered matching of one class within one scene.

    Each detection takes the highest-IoU still-unmatched ground-truth box
    with IoU >= threshold; ties in score break toward the earlier index.
    Pairs whose BEV circumcircles cannot touch are skipped without
    clipping: their IoU is exactly zero, below every threshold.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].rectified_score, i))
    taken = [False] * len(gt)
    radii = [0.5 * g.bev_diagonal for g in gt]
    results = []
    for i in order:
        box = dets[i].box
        radius = 0.5 * box.bev_diagonal
        best_j, best_iou = None, -1.0
        for j, g in enumerate(gt):
            if taken[j]:
                continue
            reach = radius + radii[j]
            if (box.cx - g.cx) ** 2 + (box.cy - g.cy) ** 2 > reach * reach:
                continue
            v = iou_3d(box, g)
            if v >= iou_threshold and v > best_iou:
                best_j, best_iou = j, v
        if best_j is None:
            results.append(MatchResult(i, None, 0.0))
        else:
            taken[best_j] = True
            delta = heading_delta(dets[i].box.yaw, gt[best_j].yaw)
            results.append(MatchResult(i, best_j, delta))
    return results


def evaluate_levels(det_scenes: Sequence[Sequence[Detection]],
                    gt_scenes: Sequence[Sequence[Box3D]],
                    iou_thresholds: dict[int, float]
                    ) -> dict[str, dict[int, ClassMetrics]]:
    """AP/APH per class at both difficulty levels over a set of scenes."""
    for cls, thr in iou_thresholds.items():
        if not 0.0 < thr <= 1.0:
            raise ValueError(f"IoU threshold for class {cls} must be in (0, 1]")
    if len(det_scenes) != len(gt_scenes):
        raise ValueError("detection/ground-truth scene counts differ")
    report: dict[str, dict[int, ClassMetrics]] = {level: {} for level in LEVELS}
    for class_id in sorted(iou_thresholds):
        # (score, is_tp, heading_weight) per non-ignored detection, per level
        records: dict[str, list[tuple[float, bool, float]]] = {
            level: [] for level in LEVELS}
        num_gt = dict.fromkeys(LEVELS, 0)
        for dets, gt in zip(det_scenes, gt_scenes):
            cls_dets = [d for d in dets if d.class_id == class_id]
            cls_gt = [g for g in gt if g.class_id == class_id]
            matches = match_detections(cls_dets, cls_gt,
                                       iou_thresholds[class_id])
            for level in LEVELS:
                keep = _keep_mask(cls_gt, level)
                num_gt[level] += sum(keep)
                for m in matches:
                    score = cls_dets[m.det_index].rectified_score
                    if m.gt_index is None:
                        records[level].append((score, False, 0.0))
                    elif keep[m.gt_index]:
                        records[level].append(
                            (score, True, 1.0 - m.heading_error / math.pi))
                    # matched to a filtered-out box: ignored
        for level in LEVELS:
            report[level][class_id] = _class_metrics(records[level],
                                                     num_gt[level])
    return report


def _class_metrics(records: list[tuple[float, bool, float]],
                   num_gt: int) -> ClassMetrics:
    """One class at one level from its (score, is_tp, heading_weight)
    records."""
    if num_gt == 0:
        return ClassMetrics(0.0, 0.0, 0, False)
    records.sort(key=lambda r: -r[0])
    tp = np.cumsum([1.0 if r[1] else 0.0 for r in records])
    hw = np.cumsum([r[2] for r in records])
    ranks = np.arange(1, len(records) + 1)
    return ClassMetrics(_interpolated_area(tp / num_gt, tp / ranks),
                        _interpolated_area(tp / num_gt, hw / ranks),
                        num_gt, True)


def _interpolated_area(recall: np.ndarray, precision: np.ndarray) -> float:
    """Mean of max-precision-at-recall>=r over evenly spaced recall values."""
    acc = 0.0
    for r in np.linspace(0.0, 1.0, RECALL_POINTS):
        mask = recall >= r - 1e-12
        acc += float(precision[mask].max()) if np.any(mask) else 0.0
    return acc / RECALL_POINTS
