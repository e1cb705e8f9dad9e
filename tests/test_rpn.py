import dataclasses
import math

import numpy as np
import pytest

from conftest import iou_bounds
from pillardet import geometry, grid, rpn
from pillardet.config import weight_layout
from pillardet.geometry import Box3D, _fields, _near, iou_3d
from pillardet.grid import DenseFeatureMap, GridSpec, dense_conv2d
from pillardet.oracles import exhaustive_nms
from pillardet.rpn import (Detection, HeadOutput, decode_proposals,
                           encode_targets, gaussian_radius, nms_3d, rectify,
                           rectify_detections, rpn_forward, rpn_loss,
                           targets_as_predictions)
from pillardet.verify import clustered_detections
from pillardet.weights import WeightStore

SPEC = GridSpec(x_min=-12.8, x_max=12.8, y_min=-12.8, y_max=12.8,
                z_min=-2.0, z_max=4.0, pillar_size=0.1)
VEH, PED, CYC = 0, 1, 2


def vehicle(cx, cy, yaw=0.3, cz=0.0):
    return Box3D(cx, cy, cz, 4.6, 2.1, 1.7, yaw, class_id=VEH)


class TestEncodeTargets:
    def test_single_object_peak_is_exactly_one(self):
        t = encode_targets([vehicle(0.0, 0.0)], 8, SPEC, (VEH,))
        assert np.count_nonzero(t.heatmap == 1.0) == 1
        assert t.mask.sum() == 1

    def test_distant_objects_keep_independent_peaks(self):
        gt = [vehicle(-8.0, -8.0), vehicle(8.0, 8.0)]
        t = encode_targets(gt, 8, SPEC, (VEH,))
        assert np.count_nonzero(t.heatmap == 1.0) == 2
        assert t.mask.sum() == 2

    def test_overlapping_gaussians_take_per_cell_max(self):
        gt = [vehicle(0.0, 0.0), vehicle(3.0, 0.0)]
        separate = [encode_targets([g], 8, SPEC, (VEH,)).heatmap for g in gt]
        merged = encode_targets(gt, 8, SPEC, (VEH,)).heatmap
        np.testing.assert_allclose(merged, np.maximum(*separate), atol=1e-12)

    def test_offset_target_in_unit_square(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = vehicle(rng.uniform(-10, 10), rng.uniform(-10, 10))
            t = encode_targets([g], 8, SPEC, (VEH,))
            off = t.reg[t.mask][0, :2]
            assert np.all(off >= 0.0) and np.all(off < 1.0)

    def test_center_outside_range_skipped(self):
        t = encode_targets([vehicle(50.0, 0.0)], 8, SPEC, (VEH,))
        assert t.mask.sum() == 0

    def test_other_class_ignored_on_this_level(self):
        ped = Box3D(0, 0, 0, 0.9, 0.9, 1.7, 0.0, class_id=PED)
        t = encode_targets([ped], 8, SPEC, (VEH,))
        assert t.mask.sum() == 0

    def test_radius_floor_two(self):
        # a pedestrian at stride 4 is ~2 cells wide; the floor keeps radius 2
        assert max(2, int(gaussian_radius(2.2, 2.2))) >= 2


class TestHeads:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_heads_match_unfused_formula(self, monkeypatch, small_config,
                                               dtype):
        store = WeightStore.seeded(weight_layout(small_config), 3)
        store = WeightStore({n: a.astype(dtype) for n, a in store.items()})
        rng = np.random.default_rng(3)
        c = small_config.neck_channels
        pyramid = {s: DenseFeatureMap(s, rng.normal(size=(n, n, c)).astype(dtype))
                   for s, n in ((4, 64), (8, 32))}
        # the shared convs run in several chunks of bands
        monkeypatch.setattr(grid, "_CHUNK_BYTES", 4 << 10)
        heads = rpn_forward(pyramid, store, small_config.level_classes)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for s, fmap in pyramid.items():
            p = f"rpn.s{s}"
            shared = np.maximum(dense_conv2d(fmap.data, store.get(f"{p}.shared.w"),
                                             store.get(f"{p}.shared.b")), 0.0)

            def head(name):
                return shared @ store.get(f"{p}.{name}.w") + store.get(f"{p}.{name}.b")

            expected = (0.5 * (1.0 + np.tanh(0.5 * head("hm"))), head("reg"),
                        head("iou"))
            got = (heads[s].heatmap, heads[s].reg, heads[s].iou)
            assert heads[s].class_ids == small_config.level_classes[s]
            for g, e in zip(got, expected):
                assert g.shape == e.shape and g.dtype == e.dtype == dtype
                np.testing.assert_allclose(g, e, rtol=tol, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_sigmoid_has_the_bits_of_the_formula(self, dtype):
        # the heads squash their maps' heatmap channels, decoding a few
        # cells' IoU channel
        maps = np.random.default_rng(4).normal(0, 6, (60, 70, 11)).astype(dtype)
        for x in (maps[:, :, :2], maps[[3, 5, 9], [4, 4, 60], 10]):
            formula = 0.5 * (1.0 + np.tanh(0.5 * x))
            assert rpn._sigmoid(x).tobytes() == formula.tobytes()
            alone = [rpn._sigmoid(v[None])[0] for v in x.ravel()]
            assert alone == formula.ravel().tolist()


class TestRpnLoss:
    def targets(self):
        gt = [vehicle(1.0, 2.0), vehicle(-6.0, 4.0, yaw=-1.1)]
        return {8: encode_targets(gt, 8, SPEC, (VEH,))}

    def test_perfect_prediction_is_near_zero(self):
        # the focal optimum: probability 1 at center cells, 0 elsewhere,
        # clamped into [1e-4, 1 - 1e-4]; regression exactly on target
        t = self.targets()
        hm = np.where(t[8].heatmap == 1.0, 1.0 - 1e-4, 1e-4)
        pred = HeadOutput(8, (VEH,), hm, t[8].reg.copy(),
                          np.zeros_like(t[8].heatmap))
        total, breakdown = rpn_loss({8: pred}, t)
        assert 0.0 <= total < 1e-3
        assert breakdown[8]["positives"] == 2

    def test_no_positives_gives_zero_regression(self):
        t = {8: encode_targets([], 8, SPEC, (VEH,))}
        h, w, _ = t[8].heatmap.shape
        pred = HeadOutput(8, (VEH,), np.full((h, w, 1), 0.3),
                          np.zeros((h, w, 8)), np.zeros((h, w, 1)))
        total, breakdown = rpn_loss({8: pred}, t)
        assert breakdown[8]["regression"] == 0.0
        assert breakdown[8]["heatmap"] > 0.0

    def test_l1_homogeneity(self):
        t = self.targets()
        base = targets_as_predictions(t[8])
        rng = np.random.default_rng(1)
        delta = rng.normal(size=base.reg.shape)
        one = HeadOutput(8, (VEH,), base.heatmap, base.reg + delta, base.iou)
        two = HeadOutput(8, (VEH,), base.heatmap, base.reg + 2 * delta, base.iou)
        _, b1 = rpn_loss({8: one}, t)
        _, b2 = rpn_loss({8: two}, t)
        assert b2[8]["regression"] == pytest.approx(2 * b1[8]["regression"],
                                                    rel=1e-12)

    def test_shape_mismatch_rejected(self):
        t = self.targets()
        pred = HeadOutput(8, (VEH,), np.zeros((4, 4, 1)), np.zeros((4, 4, 8)),
                          np.zeros((4, 4, 1)))
        with pytest.raises(ValueError):
            rpn_loss({8: pred}, t)

    def test_loss_summed_over_levels(self):
        gt = [vehicle(1.0, 2.0),
              Box3D(3.0, -4.0, 0, 0.9, 0.9, 1.7, 0.5, class_id=PED)]
        targets = {8: encode_targets(gt, 8, SPEC, (VEH,)),
                   4: encode_targets(gt, 4, SPEC, (PED, CYC))}
        preds = {s: targets_as_predictions(t) for s, t in targets.items()}
        total, breakdown = rpn_loss(preds, targets)
        assert total == pytest.approx(
            sum(b["heatmap"] + b["regression"] for b in breakdown.values()))


class TestDecode:
    def paint(self, gt, stride, classes):
        return targets_as_predictions(encode_targets(gt, stride, SPEC, classes))

    def test_paint_decode_round_trip(self):
        gt = [vehicle(1.27, -3.64, yaw=0.83, cz=0.4),
              vehicle(-7.05, 6.3, yaw=-2.5, cz=-0.2)]
        heads = {8: self.paint(gt, 8, (VEH,))}
        dets = decode_proposals(heads, SPEC, {VEH: 200, PED: 150, CYC: 150})
        assert len(dets) == 2
        dets = sorted(dets, key=lambda d: d.box.cx)
        for d, g in zip(dets, sorted(gt, key=lambda b: b.cx)):
            assert d.box.cx == pytest.approx(g.cx, abs=1e-5)
            assert d.box.cy == pytest.approx(g.cy, abs=1e-5)
            assert d.box.cz == pytest.approx(g.cz, abs=1e-9)
            assert d.box.length == pytest.approx(g.length, rel=1e-9)
            assert d.box.yaw == pytest.approx(g.yaw, abs=1e-6)
            assert d.score == 1.0

    def test_all_zero_heatmap_decodes_empty(self):
        h = SPEC.ny // 8
        head = HeadOutput(8, (VEH,), np.zeros((h, h, 1)), np.zeros((h, h, 8)),
                          np.zeros((h, h, 1)))
        assert decode_proposals({8: head}, SPEC, {VEH: 200}) == []

    def test_constant_heatmap_has_no_peaks(self):
        h = SPEC.ny // 8
        head = HeadOutput(8, (VEH,), np.full((h, h, 1), 0.4),
                          np.zeros((h, h, 8)), np.zeros((h, h, 1)))
        assert decode_proposals({8: head}, SPEC, {VEH: 200}) == []

    def test_zero_offset_peak_decodes_to_cell_corner(self):
        # decode convention: center = range_min + (cell + offset) * cell_size
        h = SPEC.ny // 8
        hm = np.zeros((h, h, 1))
        hm[0, 0, 0] = 0.9
        reg = np.zeros((h, h, 8))
        reg[0, 0] = [0, 0, 0.5, math.log(4.0), math.log(2.0), math.log(1.5),
                     0.0, 1.0]
        head = HeadOutput(8, (VEH,), hm, reg, np.zeros((h, h, 1)))
        (det,) = decode_proposals({8: head}, SPEC, {VEH: 10})
        assert det.box.cx == pytest.approx(SPEC.x_min, abs=1e-12)
        assert det.box.cy == pytest.approx(SPEC.y_min, abs=1e-12)

    def test_top_k_caps_per_class(self):
        rng = np.random.default_rng(2)
        h = SPEC.ny // 8
        hm = rng.random((h, h, 1))
        head = HeadOutput(8, (VEH,), hm, np.zeros((h, h, 8)),
                          np.zeros((h, h, 1)))
        dets = decode_proposals({8: head}, SPEC, {VEH: 5})
        assert len(dets) == 5
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)


class TestRectify:
    def test_beta_zero_keeps_score(self):
        for s, w in ((0.9, 0.1), (0.2, 0.8), (0.0, 0.7)):
            assert rectify(s, w, 0.0) == s

    def test_beta_one_swaps_to_iou(self):
        assert rectify(0.9, 0.25, 1.0) == 0.25

    def test_geometric_mean_case(self):
        assert rectify(0.64, 0.25, 0.5) == pytest.approx(0.4, abs=1e-12)

    def test_zero_power_zero_is_one(self):
        assert rectify(0.0, 0.5, 0.0) == 0.0 ** 1.0 * 1.0  # S^1 * W^0
        assert rectify(0.5, 0.0, 0.0) == 0.5               # W^0 == 1

    def test_invalid_beta_rejected(self):
        with pytest.raises(ValueError):
            rectify(0.5, 0.5, 1.5)

    def test_argmax_preserved_by_uniform_rescoring(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores = rng.random(20)
            ious = rng.random(20)
            dets = [Detection(vehicle(i * 6.0 - 50.0, 0.0), VEH, s, w)
                    for i, (s, w) in enumerate(zip(scores, ious))]
            beta = float(rng.uniform(0.05, 0.95))
            rect = rectify_detections(dets, {VEH: beta})
            # monotone in score at fixed iou: ordering among equal-iou dets kept
            for i in range(20):
                for j in range(20):
                    if ious[i] == ious[j] and scores[i] > scores[j]:
                        assert rect[i].rectified_score > rect[j].rectified_score
            # rescoring the whole set with a strictly monotone map keeps argmax
            ranked = [d.rectified_score for d in rect]
            squashed = [v ** 0.7 for v in ranked]
            assert int(np.argmax(ranked)) == int(np.argmax(squashed))

    def test_fields_equal_dataclass_replace(self):
        rng = np.random.default_rng(31)
        dets = []
        for _ in range(300):
            cid = int(rng.integers(0, 3))
            b = Box3D(*rng.uniform(-20, 20, 2), rng.uniform(-1, 1),
                      *rng.uniform(0.5, 5, 3), rng.uniform(-math.pi, math.pi),
                      class_id=cid)
            dets.append(Detection(b, cid, float(rng.choice([0.0, 1.0, rng.random()])),
                                  float(rng.choice([0.0, 1.0, rng.random()]))))
        beta = {VEH: 0.3, PED: 0.0, CYC: 1.0}
        got = rectify_detections(dets, beta)
        want = [dataclasses.replace(d, rectified_score=rectify(
            d.score, d.iou_score, beta[d.class_id])) for d in dets]
        assert [dataclasses.astuple(d) for d in got] == \
            [dataclasses.astuple(d) for d in want]
        assert all(g.box is d.box for g, d in zip(got, dets))


class TestNms:
    def test_keeps_higher_scored_duplicate(self):
        a = Detection(vehicle(0, 0), VEH, 0.9)
        b = Detection(vehicle(0, 0), VEH, 0.8)
        kept = nms_3d([b, a], {VEH: 0.8})
        assert kept == [a]

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # below 0 a far pair's zero IoU would suppress
        dets = [Detection(vehicle(0, 0), VEH, 0.9)]
        with pytest.raises(ValueError, match=rf"class {PED} must be in \(0, 1\]"):
            nms_3d(dets, {VEH: 0.8, PED: threshold})

    def test_disjoint_boxes_all_kept(self):
        dets = [Detection(vehicle(x, 0), VEH, 0.5 + 0.01 * i)
                for i, x in enumerate((-9.0, 0.0, 9.0))]
        assert len(nms_3d(dets, {VEH: 0.8})) == 3

    def test_survivor_pairs_below_threshold(self):
        rng = np.random.default_rng(4)
        dets = []
        for _ in range(60):
            b = Box3D(rng.uniform(-10, 10), rng.uniform(-10, 10),
                      rng.uniform(-0.5, 0.5), rng.uniform(1, 5),
                      rng.uniform(1, 5), rng.uniform(1, 2),
                      rng.uniform(-math.pi, math.pi), class_id=VEH)
            dets.append(Detection(b, VEH, float(rng.random())))
        kept = nms_3d(dets, {VEH: 0.3})
        i, j = np.triu_indices(len(kept), 1)
        ious = iou_3d([kept[k].box for k in i], [kept[k].box for k in j])
        assert len(ious) > 0 and ious.max() <= 0.3

    @pytest.mark.parametrize("thresholds", [
        {VEH: 0.8, PED: 0.55, CYC: 0.55}, {VEH: 0.3, PED: 0.3, CYC: 0.3},
        {VEH: 0.1, PED: 0.1, CYC: 0.1}])
    def test_matches_exhaustive_oracle(self, thresholds):
        # clustered, as a detector's peaks are: uniformly scattered boxes
        # would leave nothing to suppress
        rng = np.random.default_rng(5)
        suppressed = 0
        for _ in range(20):
            dets = clustered_detections(rng, 80)
            fast = nms_3d(dets, thresholds)
            slow = exhaustive_nms(dets, thresholds, iou_3d)
            assert [id(d) for d in fast] == [id(d) for d in slow]
            suppressed += len(dets) - len(slow)
        assert suppressed > 0

    def test_output_is_subset_of_input(self):
        rng = np.random.default_rng(6)
        dets = [Detection(vehicle(rng.uniform(-10, 10), rng.uniform(-10, 10)),
                          VEH, float(rng.random())) for _ in range(30)]
        kept = nms_3d(dets, {VEH: 0.5})
        assert all(d in dets for d in kept)

    def test_equals_the_lazy_scan(self):
        """On the draws the one-pair-at-a-time scan it replaced was checked
        on: ties in score, exact duplicates and a least-positive threshold,
        against the exhaustive oracle."""
        rng = np.random.default_rng(8)
        # the least positive double: any overlap suppresses a cyclist
        thresholds = {VEH: 0.7, PED: 0.3, CYC: 5e-324}
        suppressed = 0
        for _ in range(12):
            dets = []
            for _ in range(int(rng.integers(0, 70))):
                cid = int(rng.integers(0, 3))
                b = Box3D(rng.uniform(-8, 8), rng.uniform(-8, 8),
                          rng.uniform(-0.5, 0.5), rng.uniform(0.8, 5),
                          rng.uniform(0.8, 5), rng.uniform(0.8, 2),
                          rng.uniform(-math.pi, math.pi), class_id=cid)
                # few distinct scores: ties break on input index
                dets.append(Detection(b, cid, float(rng.integers(0, 4)) / 4))
                if rng.random() < 0.2:   # an exact duplicate box
                    dets.append(Detection(b, cid, float(rng.integers(0, 4)) / 4))
            slow = exhaustive_nms(dets, thresholds, iou_3d)
            assert [id(d) for d in nms_3d(dets, thresholds)] == \
                [id(d) for d in slow]
            suppressed += len(dets) - len(slow)
        assert suppressed > 0


class TestNmsScreen:
    """NMS clips only the same-class near pairs whose IoU bound reaches
    their class threshold less the screen's slack."""

    THRESHOLDS = {VEH: 0.8, PED: 0.55, CYC: 0.3}

    def test_clips_only_pairs_whose_bound_reaches_the_threshold(
            self, monkeypatch):
        clipped = []

        def counting(a, b):
            clipped.extend(zip(a, b))   # one call clips a whole batch
            return iou_3d(a, b)

        monkeypatch.setattr(rpn, "iou_3d", counting)
        rng = np.random.default_rng(11)
        near = 0
        for _ in range(10):
            dets = clustered_detections(rng, 80)
            nms_3d(dets, self.THRESHOLDS)
            for c in self.THRESHOLDS:
                boxes = [d.box for d in dets if d.class_id == c]
                i, j = _near(_fields(boxes), _fields(boxes))
                near += int(np.count_nonzero(i < j))
        a, b = [p[0] for p in clipped], [p[1] for p in clipped]
        thr = np.array([self.THRESHOLDS[x.class_id] for x in a])
        assert [x.class_id for x in a] == [y.class_id for y in b]
        assert (iou_bounds(a, b) >= thr - geometry._BOUND_SLACK).all()
        # the screen keeps pairs that end below their threshold too
        ious = iou_3d(a, b)
        assert (ious < thr).any() and (ious > thr).any()
        assert 0 < len(clipped) < near
