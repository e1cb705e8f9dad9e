import math
import re

import numpy as np
import pytest

from conftest import halve_iou_bound, iou_bounds
from pillardet import geometry, metrics, rpn
from pillardet.geometry import (Box3D, _fields, _near, heading_delta, iou_3d,
                                iou_3d_matrix)
from pillardet.metrics import (ClassMetrics, MatchResult, evaluate_levels,
                               match_detections, split_difficulty)
from pillardet.rpn import Detection, nms_3d, rectify_detections

THRESHOLDS = {0: 0.7, 1: 0.5, 2: 0.5}


def box(cx, cy, yaw=0.0, cls=0, num_points=50):
    return Box3D(cx, cy, 0.0, 4.0, 2.0, 1.5, yaw, class_id=cls,
                 num_points=num_points)


def det(b, score, cls=None):
    cls = b.class_id if cls is None else cls
    return Detection(b, cls, score, iou_score=score)


def perfect_dets(gt):
    return [det(Box3D(g.cx, g.cy, g.cz, g.length, g.width, g.height, g.yaw,
                      class_id=g.class_id), 1.0) for g in gt]


class TestSplitDifficulty:
    def test_five_points_excluded_from_l1_only(self):
        g = box(0, 0, num_points=5)
        assert split_difficulty([g], "L1") == []
        assert split_difficulty([g], "L2") == [g]

    def test_zero_points_excluded_from_both(self):
        g = box(0, 0, num_points=0)
        assert split_difficulty([g], "L1") == []
        assert split_difficulty([g], "L2") == []

    def test_six_points_in_both(self):
        g = box(0, 0, num_points=6)
        assert split_difficulty([g], "L1") == [g]
        assert split_difficulty([g], "L2") == [g]

    def test_l1_subset_of_l2(self):
        rng = np.random.default_rng(0)
        gt = [box(i * 10.0, 0, num_points=int(rng.integers(0, 12)))
              for i in range(30)]
        l1 = set(id(g) for g in split_difficulty(gt, "L1"))
        l2 = set(id(g) for g in split_difficulty(gt, "L2"))
        assert l1 <= l2


class TestMatching:
    def test_each_gt_matched_at_most_once(self):
        gt = [box(0, 0)]
        dets = [det(gt[0], 0.9), det(gt[0], 0.8)]
        results = match_detections(dets, gt, 0.7,
                                   iou_3d_matrix([d.box for d in dets], gt))
        matched = [r for r in results if r.gt_index is not None]
        assert len(matched) == 1 and matched[0].det_index == 0

    def test_heading_error_range(self):
        gt = [box(0, 0, yaw=0.0)]
        d = det(box(0, 0, yaw=2.8), 1.0)
        (r,) = match_detections([d], gt, 0.5, iou_3d_matrix([d.box], gt))
        assert 0.0 <= r.heading_error <= math.pi
        assert r.heading_error == pytest.approx(2.8)

    @pytest.mark.parametrize("wrong", [lambda t: t[:, :2],
                                       lambda t: np.pad(t, ((0, 0), (0, 2))),
                                       lambda t: t.T],
                             ids=["2x2", "2x5", "3x2"])
    def test_iou_table_must_be_dets_by_gt(self, wrong):
        # 2 detections on ground-truth boxes 0 and 2 of 3: a (2, 2) table
        # would leave detection 1 unmatched, a (2, 5) one would be read as
        # it is, a (3, 2) one would index past its rows
        gt = [box(0, 0), box(20, 0), box(40, 0)]
        dets = [det(gt[0], 0.9), det(gt[2], 0.8)]
        right = iou_3d_matrix([d.box for d in dets], gt)
        assert [r.gt_index for r in match_detections(dets, gt, 0.7, right)] \
            == [0, 2]
        table = wrong(right)
        with pytest.raises(ValueError, match=re.escape(
                f"shape {table.shape} is not (2, 3)")):
            match_detections(dets, gt, 0.7, table)


class TestApAph:
    def test_perfect_detections_score_one_on_both_levels(self):
        gt = [box(0, 0), box(12, 0), box(0, 12, cls=1), box(12, 12, cls=2)]
        report = evaluate_levels([perfect_dets(gt)], [gt], THRESHOLDS)
        for level in ("L1", "L2"):
            for cls in (0, 1, 2):
                assert report[level][cls].ap == 1.0
                assert report[level][cls].aph == 1.0

    def test_heading_flip_kills_aph_not_ap(self):
        gt = [box(0, 0, yaw=0.4), box(12, 0, yaw=-1.0)]
        flipped = [det(Box3D(g.cx, g.cy, g.cz, g.length, g.width, g.height,
                             g.yaw + math.pi, class_id=g.class_id), 1.0)
                   for g in gt]
        result = evaluate_levels([flipped], [gt], THRESHOLDS)["L1"][0]
        assert result.ap == 1.0
        assert result.aph == 0.0

    def test_one_tp_one_fp_gives_half(self):
        # hand-enumerated: FP at rank 1, TP at rank 2 -> precision envelope
        # is 0.5 at every recall point, so the 101-point mean is exactly 0.5
        gt = [box(0, 0)]
        dets = [det(box(40, 40), 0.9), det(gt[0], 0.8)]
        result = evaluate_levels([dets], [gt], THRESHOLDS)["L1"][0]
        assert result.ap == 0.5
        assert result.aph == 0.5

    def test_zero_gt_flagged(self):
        result = evaluate_levels([[det(box(0, 0), 0.9)]], [[]],
                                 THRESHOLDS)["L1"]
        assert result[0] == ClassMetrics(0.0, 0.0, 0, False)

    def test_empty_detections_zero_ap(self):
        gt = [box(0, 0)]
        result = evaluate_levels([[]], [gt], THRESHOLDS)["L1"][0]
        assert result.ap == 0.0 and result.valid

    def test_aph_never_exceeds_ap(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            gt = [box(i * 11.0, 0, yaw=rng.uniform(-math.pi, math.pi),
                      num_points=int(rng.integers(1, 20))) for i in range(5)]
            dets = []
            for g in gt:
                if rng.random() < 0.8:
                    dets.append(det(Box3D(
                        g.cx + rng.uniform(-0.4, 0.4), g.cy, g.cz, g.length,
                        g.width, g.height, g.yaw + rng.uniform(-1.5, 1.5),
                        class_id=0), float(rng.random())))
            for level in ("L1", "L2"):
                m = evaluate_levels([dets], [gt], THRESHOLDS)[level][0]
                assert m.aph <= m.ap + 1e-12

    def test_score_transform_invariance(self):
        rng = np.random.default_rng(2)
        gt = [box(i * 11.0, 0) for i in range(6)]
        dets = []
        for g in gt[:4]:
            dets.append(det(g, float(rng.uniform(0.2, 0.9))))
        dets.append(det(box(50, 50), 0.35))
        base = evaluate_levels([dets], [gt], THRESHOLDS)["L1"][0]
        squashed = [Detection(d.box, d.class_id, d.score, d.iou_score,
                              d.rectified_score ** 3) for d in dets]
        after = evaluate_levels([squashed], [gt], THRESHOLDS)["L1"][0]
        assert after.ap == base.ap and after.aph == base.aph

    def test_duplicate_lower_scored_match_cannot_raise_ap(self):
        gt = [box(0, 0), box(12, 0)]
        dets = [det(gt[0], 0.9), det(gt[1], 0.8)]
        base = evaluate_levels([dets], [gt], THRESHOLDS)["L1"][0]
        with_dup = dets + [det(gt[0], 0.5)]
        after = evaluate_levels([with_dup], [gt], THRESHOLDS)["L1"][0]
        assert after.ap <= base.ap + 1e-12

    def test_detection_of_filtered_gt_is_ignored(self):
        # one solid box plus one below the L1 point cut; detecting the
        # filtered one must not count as a false positive at L1
        solid = box(0, 0, num_points=50)
        sparse = box(12, 0, num_points=3)
        dets = [det(sparse, 0.95), det(solid, 0.9)]
        report = evaluate_levels([dets], [[solid, sparse]], THRESHOLDS)
        l1 = report["L1"][0]
        assert l1.ap == 1.0
        l2 = report["L2"][0]
        assert l2.ap == 1.0  # at L2 both boxes count and both are found

    def test_multi_scene_pooling(self):
        gt_a, gt_b = [box(0, 0)], [box(0, 0)]
        dets_a = [det(gt_a[0], 0.9)]
        dets_b = []  # second scene missed
        m = evaluate_levels([dets_a, dets_b], [gt_a, gt_b],
                            THRESHOLDS)["L1"][0]
        assert m.num_gt == 2
        # one TP at precision 1, recall stuck at 0.5: 51 of 101 points hit
        assert m.ap == pytest.approx(51 / 101)

    def test_matches_each_scene_and_class_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return match_detections(*args)

        monkeypatch.setattr(metrics, "match_detections", counting)
        gt = [box(0, 0), box(12, 0, cls=1, num_points=3)]
        scenes = 3
        evaluate_levels([perfect_dets(gt)] * scenes, [gt] * scenes, THRESHOLDS)
        assert len(calls) == scenes * len(THRESHOLDS)

    @pytest.mark.parametrize("threshold", [0.0, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        gt = [box(0, 0)]
        with pytest.raises(ValueError, match="must be in"):
            evaluate_levels([perfect_dets(gt)], [gt],
                            {**THRESHOLDS, 1: threshold})

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, math.nan])
    def test_match_rejects_threshold_outside_unit_interval(self, threshold):
        # at 0 a far pair's zero IoU would match
        gt = [box(0, 0, cls=2), box(30, 0, cls=2)]
        dets = perfect_dets(gt)[:1]
        with pytest.raises(ValueError, match=r"class 2 must be in \(0, 1\]"):
            match_detections(dets, gt, threshold,
                             iou_3d_matrix([d.box for d in dets], gt))


def interpolated_area_loop(recall, precision):
    """The area as one masked maximum per recall point, summed in a Python
    float: the reference the one-pass version must equal bit for bit."""
    acc = 0.0
    for r in np.linspace(0.0, 1.0, metrics.RECALL_POINTS):
        mask = recall >= r - 1e-12
        acc += float(precision[mask].max()) if np.any(mask) else 0.0
    return acc / metrics.RECALL_POINTS


def pr_curves(is_tp, heading_weight, num_gt):
    """(recall, AP precision, APH precision) of records ranked by score."""
    tp = np.cumsum(np.asarray(is_tp, dtype=float))
    hw = np.cumsum(np.where(is_tp, heading_weight, 0.0))
    ranks = np.arange(1, len(tp) + 1)
    return tp / num_gt, tp / ranks, hw / ranks


class TestInterpolatedArea:
    @pytest.mark.parametrize("is_tp, num_gt", [
        ([], 3),                                # no detection
        ([True] * 7, 7),                        # all TP: area 1
        ([True] * 4, 9),                        # all TP, recall short of 1
        ([False] * 5, 2),                       # all FP: area 0
        ([True, True, False, False, False, True], 3),  # precision plateau
        ([False, True] * 6, 6),
    ])
    def test_edge_curves_match_loop(self, is_tp, num_gt):
        weight = np.linspace(0.2, 1.0, len(is_tp))
        recall, ap_prec, aph_prec = pr_curves(is_tp, weight, num_gt)
        for prec in (ap_prec, aph_prec):
            assert (metrics._interpolated_area(recall, prec).hex()
                    == interpolated_area_loop(recall, prec).hex())

    def test_random_curves_match_loop_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(0, 120))
            num_gt = int(rng.integers(1, 80))
            is_tp = rng.random(n) < rng.random()
            is_tp[np.cumsum(is_tp) > num_gt] = False  # one TP per GT at most
            recall, ap_prec, aph_prec = pr_curves(is_tp, rng.random(n), num_gt)
            for prec in (ap_prec, aph_prec):
                assert (metrics._interpolated_area(recall, prec).hex()
                        == interpolated_area_loop(recall, prec).hex())

    def test_recall_exactly_at_each_threshold_matches_loop(self):
        recall = np.linspace(0.0, 1.0, metrics.RECALL_POINTS) - 1e-12
        precision = np.linspace(1.0, 0.0, metrics.RECALL_POINTS) ** 2
        assert (metrics._interpolated_area(recall, precision).hex()
                == interpolated_area_loop(recall, precision).hex())

    def test_all_tp_is_one_and_all_fp_is_zero(self):
        recall, prec, _ = pr_curves([True] * 5, np.ones(5), 5)
        assert metrics._interpolated_area(recall, prec) == 1.0
        recall, prec, _ = pr_curves([False] * 5, np.ones(5), 5)
        assert metrics._interpolated_area(recall, prec) == 0.0


def clip_every_pair(dets, gt, iou_threshold, ious):
    """The greedy match without the circumcircle skip: every det-GT pair
    is clipped, here, whatever IoUs the caller passes."""
    every_pair = iou_3d([d.box for d in dets for _ in gt],
                        list(gt) * len(dets)).reshape(len(dets), len(gt))
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].rectified_score, i))
    taken = [False] * len(gt)
    results = []
    for i in order:
        best_j, best_iou = None, -1.0
        for j, g in enumerate(gt):
            if not taken[j]:
                v = every_pair[i, j]
                if v >= iou_threshold and v > best_iou:
                    best_j, best_iou = j, v
        if best_j is None:
            results.append(MatchResult(i, None, 0.0))
        else:
            taken[best_j] = True
            results.append(MatchResult(
                i, best_j, heading_delta(dets[i].box.yaw, gt[best_j].yaw)))
    return results


def random_scene_set(rng):
    """1-3 scenes of jittered, far and false detections; each scene also
    has detections whose BEV circumcircle exactly touches a GT box's (3 x 4
    and 6 x 8 footprints have diagonals 5 and 10, centers 7.5 m apart)."""
    det_scenes, gt_scenes = [], []
    for _ in range(int(rng.integers(1, 4))):
        gt, dets = [], []
        for _ in range(int(rng.integers(1, 9))):
            cls = int(rng.integers(0, 3))
            g = Box3D(float(rng.integers(-20, 21)), float(rng.integers(-20, 21)),
                      0.0, 3.0, 4.0, 1.5, float(rng.uniform(-math.pi, math.pi)),
                      class_id=cls, num_points=int(rng.integers(0, 12)))
            gt.append(g)
            for _ in range(int(rng.integers(0, 3))):
                b = Box3D(g.cx + rng.normal(0, 0.3), g.cy + rng.normal(0, 0.3),
                          rng.normal(0, 0.1), g.length * rng.uniform(0.8, 1.2),
                          g.width * rng.uniform(0.8, 1.2), g.height,
                          g.yaw + rng.normal(0, 0.3), class_id=cls)
                dets.append(det(b, float(rng.uniform(0.05, 1.0))))
            if rng.random() < 0.5:
                touching = Box3D(g.cx + 7.5, g.cy, 0.0, 6.0, 8.0, 1.5, 0.0,
                                 class_id=cls)
                dets.append(det(touching, float(rng.uniform(0.05, 1.0))))
        for _ in range(int(rng.integers(0, 6))):
            b = Box3D(rng.uniform(-25, 25), rng.uniform(-25, 25), 0.0, 4.0,
                      2.0, 1.5, rng.uniform(-math.pi, math.pi),
                      class_id=int(rng.integers(0, 3)))
            dets.append(det(b, float(rng.uniform(0.05, 1.0))))
        det_scenes.append(dets)
        gt_scenes.append(gt)
    return det_scenes, gt_scenes


def report_hex(report):
    return {level: {c: (m.ap.hex(), m.aph.hex(), m.num_gt, m.valid)
                    for c, m in classes.items()}
            for level, classes in report.items()}


def far_pair_sets():
    """The 40 random scene sets the far-pair and screen tests share."""
    rng = np.random.default_rng(941)
    return [random_scene_set(rng) for _ in range(40)]


def circles_touch(a, b):
    """(near, touching) of the BEV circumcircles of two boxes given as
    (cx, cy, length, width)."""
    reach = 0.5 * (math.hypot(a[2], a[3]) + math.hypot(b[2], b[3]))
    dist2 = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
    return dist2 <= reach * reach, dist2 == reach * reach


class TestFarPairSkip:
    def test_same_ap_aph_as_clipping_every_pair(self, monkeypatch):
        sets = far_pair_sets()
        fast = [report_hex(evaluate_levels(d, g, THRESHOLDS)) for d, g in sets]
        monkeypatch.setattr(metrics, "match_detections", clip_every_pair)
        ref = [report_hex(evaluate_levels(d, g, THRESHOLDS)) for d, g in sets]
        assert fast == ref

    def test_far_pairs_are_not_clipped(self, monkeypatch):
        clipped, screened = [], []

        def counting(a, b):
            clipped.extend(zip(a, b))   # one call clips a whole batch
            return iou_3d(a, b)

        bounds = geometry._iou_bounds

        def spying(ra, rb):
            # the rows of the near pairs that reach the IoU screen
            screened.extend(zip(ra[:, :4].tolist(), rb[:, :4].tolist()))
            return bounds(ra, rb)

        monkeypatch.setattr(metrics, "iou_3d", counting)
        monkeypatch.setattr(geometry, "_iou_bounds", spying)
        rng = np.random.default_rng(942)
        pairs = 0
        for _ in range(40):
            det_scenes, gt_scenes = random_scene_set(rng)
            evaluate_levels(det_scenes, gt_scenes, THRESHOLDS)
            pairs += sum(sum(d.class_id == g.class_id for d in dets for g in gt)
                         for dets, gt in zip(det_scenes, gt_scenes))
        for a, b in clipped:
            assert circles_touch((a.cx, a.cy, a.length, a.width),
                                 (b.cx, b.cy, b.length, b.width))[0]
        # exactly touching pairs are near: they reach the screen, not the clip
        touching = 0
        for a, b in screened:
            near, touch = circles_touch(a, b)
            assert near
            touching += touch
        assert touching > 0 and len(clipped) < pairs / 2


class TestEvalScreen:
    """Evaluation clips only the same-class det-GT near pairs whose IoU
    bound reaches their class's eval threshold less the screen's slack."""

    def test_clips_only_pairs_whose_bound_reaches_the_threshold(
            self, monkeypatch):
        clipped = []

        def counting(a, b):
            clipped.extend(zip(a, b))   # one call clips a whole batch
            return iou_3d(a, b)

        monkeypatch.setattr(metrics, "iou_3d", counting)
        # scene of each detection box and each GT box, by identity
        det_scene, gt_scene = {}, {}
        sets, near = far_pair_sets(), 0
        for det_scenes, gt_scenes in sets:
            evaluate_levels(det_scenes, gt_scenes, THRESHOLDS)
            for dets, gt in zip(det_scenes, gt_scenes):
                det_scene.update((id(d.box), id(dets)) for d in dets)
                gt_scene.update((id(g), id(dets)) for g in gt)
                for c in THRESHOLDS:
                    i, _ = _near(_fields([d.box for d in dets if d.class_id == c]),
                                 _fields([g for g in gt if g.class_id == c]))
                    near += len(i)
        a, b = [p[0] for p in clipped], [p[1] for p in clipped]
        assert [det_scene[id(x)] for x in a] == [gt_scene[id(y)] for y in b]
        assert [x.class_id for x in a] == [y.class_id for y in b]
        thr = np.array([THRESHOLDS[x.class_id] for x in a])
        assert (iou_bounds(a, b) >= thr - geometry._BOUND_SLACK).all()
        # the screen keeps pairs that end below their threshold too
        ious = iou_3d(a, b)
        assert (ious < thr).any() and (ious >= thr).any()
        assert 0 < len(clipped) < near

    def test_a_halved_bound_changes_some_report(self, monkeypatch):
        sets = far_pair_sets()
        halve_iou_bound(monkeypatch)
        screened = [report_hex(evaluate_levels(d, g, THRESHOLDS))
                    for d, g in sets]
        monkeypatch.setattr(metrics, "match_detections", clip_every_pair)
        ref = [report_hex(evaluate_levels(d, g, THRESHOLDS)) for d, g in sets]
        assert screened != ref


class TestPrecomputedIous:
    def test_one_batched_clip_per_set(self, monkeypatch):
        batches = []

        def counting(a, b):
            batches.append(len(a))
            return iou_3d(a, b)

        monkeypatch.setattr(metrics, "iou_3d", counting)
        rng = np.random.default_rng(944)
        det_scenes, gt_scenes = random_scene_set(rng)
        evaluate_levels(det_scenes, gt_scenes, THRESHOLDS)
        assert len(batches) == 1 and batches[0] > 0


class TestTracedClipCalls:
    """A tracer counts clips by patching ``rpn.iou_3d`` and
    ``metrics.iou_3d``, and matches by patching ``metrics.match_detections``:
    NMS and evaluation must clip through those names, once per call."""

    def test_one_clip_per_nms_and_per_evaluation(self, monkeypatch):
        calls = {"rpn": 0, "metrics": 0, "match": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(rpn, "iou_3d", counting("rpn", rpn.iou_3d))
        monkeypatch.setattr(metrics, "iou_3d", counting("metrics", metrics.iou_3d))
        monkeypatch.setattr(metrics, "match_detections",
                            counting("match", metrics.match_detections))
        rng = np.random.default_rng(945)
        det_scenes, gt_scenes = random_scene_set(rng)
        kept = []
        for dets in det_scenes:
            before = dict(calls)
            kept.append(nms_3d(rectify_detections(dets, {0: 0.68, 1: 0.68, 2: 0.68}),
                               {0: 0.8, 1: 0.55, 2: 0.55}))
            assert calls == {**before, "rpn": before["rpn"] + 1}
        calls.update(rpn=0, match=0)
        evaluate_levels(kept, gt_scenes, THRESHOLDS)
        assert calls == {"rpn": 0, "metrics": 1,
                         "match": len(gt_scenes) * len(THRESHOLDS)}
