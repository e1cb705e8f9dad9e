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

from .geometry import Box3D, heading_delta, iou_3d, iou_3d_tables
from .rpn import Detection, check_iou_threshold

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
                     iou_threshold: float,
                     ious: np.ndarray) -> list[MatchResult]:
    """Greedy score-ordered matching of one class within one scene.

    Each detection takes the highest-IoU still-unmatched ground-truth box
    with IoU >= threshold; ties in score break toward the earlier index.
    ``ious`` is the (len(dets), len(gt)) IoU table of the pairs, as
    :func:`iou_3d_tables` or :func:`iou_3d_matrix` gives it; a table of
    another shape is a ``ValueError``.
    """
    # the class of the boxes matched, for the error message
    check_iou_threshold(next((x.class_id for x in (*dets, *gt)), None),
                        iou_threshold)
    if np.shape(ious) != (len(dets), len(gt)):
        raise ValueError(f"IoU table shape {np.shape(ious)} is not "
                         f"{(len(dets), len(gt))}, (detections, ground truth)")
    # per detection: (gt index, IoU) of the pairs above threshold
    candidates: list[list[tuple[int, float]]] = [[] for _ in dets]
    i, j = np.nonzero(ious >= iou_threshold)
    for di, gj, v in zip(i.tolist(), j.tolist(), ious[i, j].tolist()):
        candidates[di].append((gj, v))
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].rectified_score, i))
    taken = [False] * len(gt)
    results = []
    for i in order:
        best_j, best_iou = None, -1.0
        for j, v in candidates[i]:
            if not taken[j] and v > best_iou:
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
    """AP/APH per class at both difficulty levels over a set of scenes.

    Each class in each scene is one ``(detection boxes, ground truth)``
    group of a single :func:`iou_3d_tables` call, so the near pairs of
    all of them are clipped at once, each group's screened at its class's
    threshold: a pair whose IoU bound falls short of it holds 0.
    :func:`match_detections` then reads its class and scene's table, whose
    cells at or above the threshold, the only ones it reads, are exact.
    """
    for cls, thr in iou_thresholds.items():
        check_iou_threshold(cls, thr)
    if len(det_scenes) != len(gt_scenes):
        raise ValueError("detection/ground-truth scene counts differ")
    # per class, per scene: detections and ground truth of that class
    groups = {class_id: [([d for d in dets if d.class_id == class_id],
                          [g for g in gt if g.class_id == class_id])
                         for dets, gt in zip(det_scenes, gt_scenes)]
              for class_id in sorted(iou_thresholds)}
    # clip with this module's iou_3d, which a tracer may patch; the match
    # reads only cells at or above the threshold, so the rest may be screened
    tables = iter(iou_3d_tables([([d.box for d in cls_dets], cls_gt)
                                 for scenes in groups.values()
                                 for cls_dets, cls_gt in scenes],
                                clip=iou_3d,
                                at_least=[iou_thresholds[class_id]
                                          for class_id, scenes in groups.items()
                                          for _ in scenes]))
    report: dict[str, dict[int, ClassMetrics]] = {level: {} for level in LEVELS}
    for class_id, scenes in groups.items():
        # (score, is_tp, heading_weight) per non-ignored detection, per level
        records: dict[str, list[tuple[float, bool, float]]] = {
            level: [] for level in LEVELS}
        num_gt = dict.fromkeys(LEVELS, 0)
        for cls_dets, cls_gt in scenes:
            matches = match_detections(cls_dets, cls_gt,
                                       iou_thresholds[class_id], next(tables))
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
    """Mean of max-precision-at-recall>=r over evenly spaced recall values.

    ``recall`` never decreases along the curve, so the points at recall
    >= r are a suffix of it: each maximum is one read of the suffix
    maxima, 0 past the end. The values are summed left to right.
    """
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    first = np.searchsorted(recall, np.linspace(0.0, 1.0, RECALL_POINTS) - 1e-12)
    return float(np.add.accumulate(best[first])[-1]) / RECALL_POINTS
