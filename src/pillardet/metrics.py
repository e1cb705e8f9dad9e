"""Average precision and heading-weighted average precision.

Detections are greedily matched to same-class ground truth by descending
score; the precision/recall curve is integrated at evenly spaced recall
points. APH reuses the same matches but lets each true positive contribute
1 - heading_error/pi to the precision numerator, so APH <= AP always.

Difficulty levels follow the point-count convention: LEVEL_1 keeps boxes
with more than five points, LEVEL_2 keeps boxes with at least one.
Detections matched to a box excluded by the level filter are ignored
entirely (neither TP nor FP).
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
class EvalConfig:
    iou_thresholds: dict[int, float]
    difficulty: str = "L1"

    def __post_init__(self):
        if self.difficulty not in LEVELS:
            raise ValueError(f"difficulty must be one of {LEVELS}")
        for cls, thr in self.iou_thresholds.items():
            if not 0.0 < thr <= 1.0:
                raise ValueError(f"IoU threshold for class {cls} must be in (0, 1]")


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
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].rectified_score, i))
    taken = [False] * len(gt)
    results = []
    for i in order:
        best_j, best_iou = None, -1.0
        for j, g in enumerate(gt):
            if taken[j]:
                continue
            v = iou_3d(dets[i].box, g)
            if v >= iou_threshold and v > best_iou:
                best_j, best_iou = j, v
        if best_j is None:
            results.append(MatchResult(i, None, 0.0))
        else:
            taken[best_j] = True
            delta = heading_delta(dets[i].box.yaw, gt[best_j].yaw)
            results.append(MatchResult(i, best_j, delta))
    return results


def compute_ap_aph(det_scenes: Sequence[Sequence[Detection]],
                   gt_scenes: Sequence[Sequence[Box3D]],
                   cfg: EvalConfig) -> dict[int, ClassMetrics]:
    """AP and APH per class over a set of scenes at one difficulty."""
    if len(det_scenes) != len(gt_scenes):
        raise ValueError("detection/ground-truth scene counts differ")
    class_ids = sorted(cfg.iou_thresholds)
    out: dict[int, ClassMetrics] = {}
    for class_id in class_ids:
        # (score, is_tp, heading_weight) per non-ignored detection
        records: list[tuple[float, bool, float]] = []
        num_gt = 0
        for dets, gt in zip(det_scenes, gt_scenes):
            cls_dets = [d for d in dets if d.class_id == class_id]
            cls_gt = [g for g in gt if g.class_id == class_id]
            keep = _keep_mask(cls_gt, cfg.difficulty)
            num_gt += sum(keep)
            for m in match_detections(cls_dets, cls_gt,
                                      cfg.iou_thresholds[class_id]):
                score = cls_dets[m.det_index].rectified_score
                if m.gt_index is None:
                    records.append((score, False, 0.0))
                elif keep[m.gt_index]:
                    records.append((score, True, 1.0 - m.heading_error / math.pi))
                # matched to a filtered-out box: ignored
        if num_gt == 0:
            out[class_id] = ClassMetrics(0.0, 0.0, 0, False)
            continue
        records.sort(key=lambda r: -r[0])
        tp = np.cumsum([1.0 if r[1] else 0.0 for r in records])
        hw = np.cumsum([r[2] for r in records])
        ranks = np.arange(1, len(records) + 1)
        recall = tp / num_gt if len(records) else np.zeros(0)
        precision = tp / ranks if len(records) else np.zeros(0)
        wprecision = hw / ranks if len(records) else np.zeros(0)
        out[class_id] = ClassMetrics(
            _interpolated_area(recall, precision),
            _interpolated_area(recall, wprecision),
            num_gt, True)
    return out


def _interpolated_area(recall: np.ndarray, precision: np.ndarray) -> float:
    """Mean of max-precision-at-recall>=r over evenly spaced recall values."""
    acc = 0.0
    for r in np.linspace(0.0, 1.0, RECALL_POINTS):
        mask = recall >= r - 1e-12
        acc += float(precision[mask].max()) if np.any(mask) else 0.0
    return acc / RECALL_POINTS


def evaluate_levels(det_scenes, gt_scenes, iou_thresholds: dict[int, float]
                    ) -> dict[str, dict[int, ClassMetrics]]:
    """AP/APH per class for both difficulty levels."""
    report = {}
    for level in LEVELS:
        cfg = EvalConfig(iou_thresholds, difficulty=level)
        report[level] = compute_ap_aph(det_scenes, gt_scenes, cfg)
    return report
