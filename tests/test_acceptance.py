"""Acceptance gate: one test per release criterion, at stated budgets.

Each test prints a one-line PASS summary so the suite doubles as a
readable report (`pytest -s tests/test_acceptance.py`).
"""

import json
import math
import os
import time

import numpy as np
from conftest import SMALL_CONFIG_DICT
from pillardet.cli import main
from pillardet.geometry import Box3D, RotatedRect2D, iou_3d, rotated_iou_bev
from pillardet.grid import GridSpec
from pillardet.metrics import evaluate_levels
from pillardet.oracles import mc_rotated_iou
from pillardet.rcnn import (LossReport, RcnnLossParts, aux_seg_labels,
                            rcnn_loss, sample_proposals)
from pillardet.rpn import (Detection, decode_proposals, encode_targets,
                           rectify, rectify_detections, rpn_loss,
                           targets_as_predictions, HeadOutput)
from pillardet.synth import JitterSpec, SceneSpec, generate_scene, jitter_detections
from pillardet.verify import (bilinear_suite, nms_suite, sparse_dense_suite)

EVAL_IOU = {0: 0.7, 1: 0.5, 2: 0.5}


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS  {detail}")


class TestCriterion01GeometryOracle:
    def test_clipping_matches_monte_carlo(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        rects_a, rects_b, moved_a, moved_b = [], [], [], []
        for _ in range(1000):
            a = RotatedRect2D(rng.uniform(-3, 3), rng.uniform(-3, 3),
                              rng.uniform(0.8, 5), rng.uniform(0.8, 5),
                              rng.uniform(-math.pi, math.pi))
            b = RotatedRect2D(a.cx + rng.uniform(-2, 2), a.cy + rng.uniform(-2, 2),
                              rng.uniform(0.8, 5), rng.uniform(0.8, 5),
                              rng.uniform(-math.pi, math.pi))
            tx, ty = rng.uniform(-20, 20, 2)
            rot = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(rot), math.sin(rot)
            for r, out in ((a, moved_a), (b, moved_b)):
                out.append(RotatedRect2D(c * r.cx - s * r.cy + tx,
                                         s * r.cx + c * r.cy + ty,
                                         r.length, r.width, r.yaw + rot))
            rects_a.append(a)
            rects_b.append(b)
        # the 1000 pairs, their swaps and their rigid moves: one call each
        iou = rotated_iou_bev(rects_a, rects_b)
        max_sym = float(np.abs(iou - rotated_iou_bev(rects_b, rects_a)).max())
        max_rigid = float(np.abs(iou - rotated_iou_bev(moved_a, moved_b)).max())
        max_mc = 0.0
        for k, (a, b, v) in enumerate(zip(rects_a, rects_b, iou.tolist())):
            max_mc = max(max_mc, abs(v - mc_rotated_iou(a, b, 1_000_000,
                                                        seed=9000 + k)))
        elapsed = time.perf_counter() - t0
        assert max_mc <= 3e-3
        assert max_sym <= 1e-9
        assert max_rigid <= 1e-9
        assert elapsed < 60.0
        report("1 geometry-oracle",
               f"1000 pairs: mc={max_mc:.2e} sym={max_sym:.1e} "
               f"rigid={max_rigid:.2e} in {elapsed:.1f}s")


class TestCriterion02SparseDenseEquivalence:
    def test_hundred_volumes_per_layer_type(self):
        result = sparse_dense_suite(volumes=100, seed=202)
        assert result.passed and result.max_error < 1e-5
        report("2 sparse-dense", f"300 volumes: max abs diff {result.max_error:.2e}")


class TestCriterion03BilinearGradients:
    def test_thousand_gradient_checks(self):
        result = bilinear_suite(samples=1000, seed=303)
        assert result.passed and result.max_error < 1e-4
        report("3 bilinear-grad", f"1000 samples: max rel err {result.max_error:.2e}")


class TestCriterion04NmsOracle:
    def test_hundred_scenes_of_hundred_boxes(self):
        result = nms_suite(scenes=100, boxes_per_scene=100, seed=404)
        assert result.passed
        report("4 nms-oracle", "100 scenes x 100 clustered boxes, thresholds "
                               f"0.8/0.55/0.55: exact match, {result.detail}")


class TestCriterion05ShapeContract:
    def test_default_grid_dims_through_cmd_detect(self, tmp_path, capsys):
        # default GridSpec pinned; slim channels keep the run desk-sized
        cfg = {"backbone_channels": [4, 8, 8, 16, 16], "neck_channels": 8,
               "head_channels": 8, "pool_channels": 8, "mlp_channels": [16, 16],
               "seg_hidden": 8, "seed": 5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        scenes = tmp_path / "scenes"
        assert main(["synth", "--config", str(cfg_path), "--scenes", "1",
                     "--out", str(scenes)]) == 0
        out_dir = tmp_path / "dets"
        code = main(["detect", "--config", str(cfg_path), "--out", str(out_dir),
                     str(scenes / "scene_0000.pbk")])
        captured = capsys.readouterr().out
        assert code == 0
        for token in ("C3=376x376", "C4=188x188", "C5=94x94",
                      "P3=376x376", "P4=188x188", "pool=376x376"):
            assert token in captured
        report("5 shape-contract",
               "default range/pillar: C3 376^2 C4 188^2 C5 94^2 "
               "P3 376^2 P4 188^2 pool 376^2 (0.4 m pillars)")


class TestCriterion06PaintDecodeRoundTrip:
    def test_fifty_random_gt_sets(self):
        spec = GridSpec()
        top_k = {0: 200, 1: 150, 2: 150}
        rng = np.random.default_rng(606)
        sizes = {0: (4.6, 2.1, 1.7), 1: (0.9, 0.9, 1.7), 2: (1.8, 0.8, 1.7)}
        worst_center = worst_yaw = 0.0
        for _ in range(50):
            gt = []
            for class_id, stride in ((0, 8), (1, 4), (2, 4)):
                cell = spec.cell_size(stride)
                for _ in range(rng.integers(1, 4)):
                    for _attempt in range(100):
                        l, w, h = (d * rng.uniform(0.8, 1.2) for d in sizes[class_id])
                        box = Box3D(rng.uniform(-60, 60), rng.uniform(-60, 60),
                                    rng.uniform(-0.5, 1.5), l, w, h,
                                    rng.uniform(-math.pi, math.pi),
                                    class_id=class_id)
                        # peaks must stay strict local maxima: keep centers
                        # at least 4 cells apart on the coarser level
                        if all(max(abs(box.cx - g.cx), abs(box.cy - g.cy))
                               > 4 * spec.cell_size(8) for g in gt):
                            gt.append(box)
                            break
            heads = {
                8: targets_as_predictions(encode_targets(gt, 8, spec, (0,))),
                4: targets_as_predictions(encode_targets(gt, 4, spec, (1, 2))),
            }
            dets = decode_proposals(heads, spec, top_k)
            assert len(dets) == len(gt)
            for d in dets:
                g = min(gt, key=lambda b: (b.cx - d.box.cx) ** 2
                        + (b.cy - d.box.cy) ** 2)
                assert g.class_id == d.class_id
                for got, want in ((d.box.cx, g.cx), (d.box.cy, g.cy),
                                  (d.box.cz, g.cz), (d.box.length, g.length),
                                  (d.box.width, g.width), (d.box.height, g.height)):
                    err = abs(got - want)
                    worst_center = max(worst_center, err)
                    assert err <= 1e-5
                yaw_err = abs(d.box.yaw - g.yaw)
                worst_yaw = max(worst_yaw, yaw_err)
                assert yaw_err <= 1e-6
        report("6 paint-decode",
               f"50 sets: max coord err {worst_center:.1e} m, "
               f"max yaw err {worst_yaw:.1e} rad")


class TestCriterion07Rectification:
    def test_exact_cases_and_argmax_preservation(self):
        rng = np.random.default_rng(707)
        for _ in range(200):
            s, w = rng.random(), rng.random()
            assert abs(rectify(s, w, 0.0) - s) <= 1e-12
            assert abs(rectify(s, w, 1.0) - w) <= 1e-12
        assert abs(rectify(0.64, 0.25, 0.5) - 0.4) <= 1e-12
        preserved = 0
        for _ in range(100):
            n = int(rng.integers(5, 40))
            dets = [Detection(Box3D(i * 8.0 - 150.0, 0, 0, 4, 2, 1.5, 0.0),
                              0, float(rng.random()), float(rng.random()))
                    for i in range(n)]
            beta = float(rng.uniform(0.05, 0.95))
            rect = rectify_detections(dets, {0: beta})
            scores = np.array([d.rectified_score for d in rect])
            for power in (0.5, 2.0, 3.7):
                assert int(np.argmax(scores)) == int(np.argmax(scores ** power))
            preserved += 1
        assert preserved == 100
        report("7 rectification", "beta identities exact to 1e-12; argmax "
                                  "preserved on 100 random sets")


class TestCriterion08MetricSanity:
    def scenes(self):
        grid = GridSpec(x_min=-20, x_max=20, y_min=-20, y_max=20,
                        z_min=-2, z_max=4, pillar_size=0.1)
        pairs = []
        for seed in (1, 2, 3):
            cloud, gt = generate_scene(SceneSpec(seed=seed), grid)
            pairs.append(gt)
        return pairs

    def test_pseudo_detector_and_hand_enumerated_pr(self):
        gt_scenes = self.scenes()
        perfect = [jitter_detections(gt, JitterSpec(), seed=i)
                   for i, gt in enumerate(gt_scenes)]
        for level in ("L1", "L2"):
            for m in evaluate_levels(perfect, gt_scenes,
                                     EVAL_IOU)[level].values():
                assert m.valid and m.ap == 1.0 and m.aph == 1.0
        flipped = [jitter_detections(gt, JitterSpec(yaw_flip_prob=1.0), seed=i)
                   for i, gt in enumerate(gt_scenes)]
        for m in evaluate_levels(flipped, gt_scenes,
                                 EVAL_IOU)["L1"].values():
            assert m.ap == 1.0 and m.aph == 0.0
        # hand-enumerated one-TP/one-FP curve: every interpolation point 0.5
        gt = [Box3D(0, 0, 0, 4, 2, 1.5, 0.0, class_id=0, num_points=50)]
        dets = [Detection(Box3D(40, 40, 0, 4, 2, 1.5, 0.0), 0, 0.9, 0.9),
                Detection(gt[0], 0, 0.8, 0.8)]
        m = evaluate_levels([dets], [gt], EVAL_IOU)["L1"][0]
        assert m.ap == 0.5 and m.aph == 0.5
        report("8 metric-sanity", "zero-noise AP=APH=1 both levels; "
                                  "heading flip AP=1 APH=0; 1TP/1FP = 0.5")


class TestCriterion09LossAggregation:
    def test_total_is_exact_sum_and_perfect_losses_vanish(self):
        rng = np.random.default_rng(909)
        for _ in range(100):
            rpn_parts = {4: float(rng.random()), 8: float(rng.random())}
            rc = RcnnLossParts(float(rng.random()), float(rng.random()),
                               float(rng.random()))
            rep = LossReport.build(rpn_parts, rc)
            assert rep.total == rpn_parts[4] + rpn_parts[8] + rep.rcnn + rep.seg
            assert rep.rcnn == rc.confidence + rc.regression

        # perfect predictions across all three loss families
        spec = GridSpec(x_min=-12.8, x_max=12.8, y_min=-12.8, y_max=12.8,
                        z_min=-2, z_max=4, pillar_size=0.1)
        gt = [Box3D(1, 2, 0, 4.6, 2.1, 1.7, 0.3, class_id=0),
              Box3D(-5, 4, 0, 0.9, 0.9, 1.7, -1.0, class_id=1)]
        targets = {8: encode_targets(gt, 8, spec, (0,)),
                   4: encode_targets(gt, 4, spec, (1, 2))}
        preds = {}
        for stride, t in targets.items():
            hm = np.where(t.heatmap == 1.0, 1.0 - 1e-4, 1e-4)
            preds[stride] = HeadOutput(stride, t.class_ids, hm, t.reg.copy(),
                                       np.zeros_like(t.heatmap[..., :1]))
        rpn_total, breakdown = rpn_loss(preds, targets)
        assert all(b["heatmap"] + b["regression"] < 1e-3
                   for b in breakdown.values())

        proposals = [gt[0],
                     Box3D(30, 30, 0, 4, 2, 1.5, 0.0),
                     Box3D(-30, 30, 0, 4, 2, 1.5, 0.0)]
        batch = sample_proposals(proposals, gt, seed=3)
        eps = 1e-4
        tgt = np.clip(batch.confidence_target, eps, 1 - eps)
        conf_logits = np.log(tgt / (1 - tgt))
        labels = aux_seg_labels(batch.rois, gt, 3)
        lclip = np.clip(labels, eps, 1 - eps)
        seg_logits = np.log(lclip / (1 - lclip))
        parts = rcnn_loss(conf_logits, batch.regression_target.copy(),
                          seg_logits, batch, labels)
        assert parts.confidence < 1e-3
        assert parts.regression < 1e-3
        assert parts.seg < 1e-3
        rep = LossReport.build(
            {s: b["heatmap"] + b["regression"] for s, b in breakdown.items()},
            parts)
        assert rep.total == (breakdown[4]["heatmap"] + breakdown[4]["regression"]
                             + breakdown[8]["heatmap"] + breakdown[8]["regression"]
                             + rep.rcnn + rep.seg)
        report("9 loss-aggregation", "exact three-term sum on 100 random "
                                     "batches; perfect-prediction terms < 1e-3")


class TestCriterion10SamplingProtocol:
    def test_ten_thousand_seeded_trials(self):
        rng = np.random.default_rng(1010)
        configs = []
        for _ in range(25):
            gt = [Box3D(rng.uniform(-30, 30), rng.uniform(-30, 30), 0.0,
                        4.6, 2.1, 1.7, rng.uniform(-math.pi, math.pi),
                        class_id=0) for _ in range(2)]
            proposals = []
            for i in range(140):
                g = gt[i % 2]
                if i < 70:   # strong overlap pool
                    proposals.append(Box3D(
                        g.cx + rng.uniform(-0.3, 0.3), g.cy + rng.uniform(-0.3, 0.3),
                        g.cz, g.length, g.width, g.height,
                        g.yaw + rng.uniform(-0.1, 0.1)))
                else:        # scattered pool
                    proposals.append(Box3D(
                        rng.uniform(-60, 60), rng.uniform(40, 80), 0.0,
                        4.6, 2.1, 1.7, rng.uniform(-math.pi, math.pi)))
            # every proposal against both boxes, in one batched call
            ious = iou_3d([p for p in proposals for _ in gt], gt * len(proposals))
            labels = ious.reshape(len(proposals), len(gt)).max(axis=1) >= 0.55
            index_of = {id(p): i for i, p in enumerate(proposals)}
            configs.append((proposals, gt, labels, index_of))

        both_pools_sufficed = 0
        for trial in range(10_000):
            proposals, gt, labels, index_of = configs[trial % len(configs)]
            batch = sample_proposals(proposals, gt, seed=trial)
            assert len(batch) <= 128
            n_pos_avail = int(labels.sum())
            n_neg_avail = len(labels) - n_pos_avail
            n_pos_taken = int(batch.positive.sum())
            if n_pos_avail >= 64 and n_neg_avail >= 64:
                assert len(batch) == 128 and n_pos_taken == 64
                both_pools_sufficed += 1
            for roi, is_pos in zip(batch.rois, batch.positive):
                assert labels[index_of[id(roi)]] == is_pos  # 0.55 rule, oracle labels
        assert both_pools_sufficed > 0
        report("10 sampling-protocol",
               f"10000 trials: cap/ratio respected "
               f"({both_pools_sufficed} full-ratio trials), zero 0.55-rule "
               f"violations")


class TestCriterion11Determinism:
    def test_detect_twice_and_verify_budget(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG_DICT))
        scenes = tmp_path / "scenes"
        assert main(["synth", "--config", str(cfg_path), "--scenes", "10",
                     "--out", str(scenes)]) == 0
        scene_files = sorted(str(scenes / n) for n in os.listdir(scenes)
                             if n.endswith(".pbk"))
        assert len(scene_files) == 10
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"dets_{run}"
            assert main(["detect", "--config", str(cfg_path), "--out",
                         str(out), *scene_files]) == 0
            outs.append(out)
        for name in sorted(os.listdir(outs[0])):
            with open(outs[0] / name, "rb") as fa, open(outs[1] / name, "rb") as fb:
                assert fa.read() == fb.read(), f"{name} differs between runs"

        t0 = time.perf_counter()
        assert main(["verify"]) == 0
        verify_elapsed = time.perf_counter() - t0
        capsys.readouterr()
        assert verify_elapsed < 300.0
        report("11 determinism",
               f"10 scenes byte-identical across runs; verify suite "
               f"{verify_elapsed:.0f}s < 300s")
