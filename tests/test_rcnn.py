import math
import tracemalloc

import numpy as np
import pytest

from conftest import half_cell_shifted
from pillardet import rcnn
from pillardet.fpn import LateralMap
from pillardet.geometry import Box3D, iou_3d, project_to_bev
from pillardet.grid import DenseFeatureMap, GridSpec
from pillardet.oracles import (finite_difference_grad, footprint_margin,
                               roi_grid_reference)
from pillardet.rcnn import (LossReport, RcnnLossParts, aux_seg_labels,
                            bilinear_sample, confidence_target,
                            decode_residuals, encode_residuals,
                            pool_roi_features, rcnn_forward, rcnn_loss, refine,
                            roi_grids, sample_proposals, seg_forward)
from pillardet.rpn import Detection
from pillardet.verify import bilinear_fd_grad, random_volume
from pillardet.weights import WeightStore

SPEC = GridSpec(x_min=-4.0, x_max=4.0, y_min=-4.0, y_max=4.0,
                z_min=-2.0, z_max=4.0, pillar_size=0.5)


def rcnn_store(c_pool, g, mlp=(8, 8), seg_hidden=4, seed=0, zero=False):
    m1, m2 = mlp
    layout = {
        "rcnn.fc1.w": (g * g * c_pool, m1), "rcnn.fc1.b": (m1,),
        "rcnn.fc2.w": (m1, m2), "rcnn.fc2.b": (m2,),
        "rcnn.cls.w": (m2, 1), "rcnn.cls.b": (1,),
        "rcnn.reg.w": (m2, 7), "rcnn.reg.b": (7,),
        "rcnn.seg.fc1.w": (c_pool, seg_hidden), "rcnn.seg.fc1.b": (seg_hidden,),
        "rcnn.seg.fc2.w": (seg_hidden, 1), "rcnn.seg.fc2.b": (1,),
    }
    if zero:
        return WeightStore({n: np.zeros(s) for n, s in layout.items()})
    return WeightStore.seeded(layout, seed)


class TestGridPoints:
    def test_single_point_is_center(self):
        roi = Box3D(2.0, -1.0, 0.5, 4.0, 2.0, 1.5, 0.7)
        pts = roi_grids([roi], 1)[0]
        assert pts.shape == (1, 1, 2)
        np.testing.assert_allclose(pts[0, 0], [2.0, -1.0], atol=1e-12)

    def test_two_by_two_unit_square(self):
        pts = roi_grids([Box3D(0, 0, 0, 1, 1, 1, 0.0)], 2)[0]
        got = sorted(map(tuple, pts.reshape(-1, 2)))
        assert got == [(-0.25, -0.25), (-0.25, 0.25), (0.25, -0.25), (0.25, 0.25)]

    def test_mean_is_center_for_any_grid(self):
        rng = np.random.default_rng(0)
        for g in (1, 2, 3, 5, 7, 8):
            roi = Box3D(rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0,
                        rng.uniform(1, 5), rng.uniform(1, 3), 1.5,
                        rng.uniform(-math.pi, math.pi))
            pts = roi_grids([roi], g)[0]
            np.testing.assert_allclose(pts.reshape(-1, 2).mean(axis=0),
                                       [roi.cx, roi.cy], atol=1e-9)

    @pytest.mark.parametrize("g", [1, 5, 7, 9])
    def test_all_rois_at_once_equal_the_per_roi_formula(self, g):
        rng = np.random.default_rng(g)
        rois = [Box3D(rng.uniform(-70, 70), rng.uniform(-70, 70), 0.0,
                      rng.uniform(0.3, 6), rng.uniform(0.3, 3), 1.5,
                      rng.uniform(-4, 4)) for _ in range(500)]
        grids = roi_grids(rois, g)
        assert grids.shape == (500, g, g, 2)
        for roi, pts in zip(rois, grids):
            assert pts.tobytes() == roi_grid_reference(roi, g).tobytes()


class TestBilinear:
    def map_of(self, rng, h=8, w=8, c=3):
        return DenseFeatureMap(1, rng.normal(size=(h, w, c)))

    def support_weights(self, sup, i=0):
        """{(iy, ix): weight} over the on-map corners of point ``i``."""
        return {(int(sup.iy[i, k]), int(sup.ix[i, k])): sup.weight[i, k]
                for k in range(4) if sup.inside[i, k]}

    def test_exact_at_cell_center(self):
        rng = np.random.default_rng(1)
        m = self.map_of(rng)
        # cell (ix=2, iy=5) center
        p = np.array([[SPEC.x_min + (2 + 0.5) * 0.5, SPEC.y_min + (5 + 0.5) * 0.5]])
        value, sup = bilinear_sample(m, SPEC, p)
        np.testing.assert_allclose(value[0], m.data[5, 2], atol=1e-12)
        assert self.support_weights(sup)[(5, 2)] == pytest.approx(1.0)

    def test_midpoint_of_four_cells(self):
        rng = np.random.default_rng(2)
        m = self.map_of(rng)
        # shared corner of 4 cells
        p = np.array([[SPEC.x_min + 2.0 * 0.5, SPEC.y_min + 3.0 * 0.5]])
        value, _ = bilinear_sample(m, SPEC, p)
        mean4 = m.data[2:4, 1:3].mean(axis=(0, 1))
        np.testing.assert_allclose(value[0], mean4, atol=1e-12)

    def test_far_outside_samples_zero(self):
        rng = np.random.default_rng(3)
        m = self.map_of(rng)
        value, sup = bilinear_sample(m, SPEC, np.array([[100.0, 100.0]]))
        assert not value.any() and self.support_weights(sup) == {}

    def test_dense_map_matches_direct_corner_gather(self):
        # the sampling formula read straight off the dense array, corner by
        # corner: looking cells up through ``at`` must not change a bit
        rng = np.random.default_rng(5)
        m = self.map_of(rng, h=9, w=7, c=4)
        pts = rng.uniform(-4.5, 4.5, size=(300, 2))
        value, sup = bilinear_sample(m, SPEC, pts)
        expected = np.zeros_like(value)
        for k in range(4):
            ok = sup.inside[:, k]
            corner = m.data[sup.iy[ok, k], sup.ix[ok, k]]
            corner *= sup.weight[ok, k, None]
            expected[ok] += corner
        assert not sup.inside.all() and sup.inside.any()
        np.testing.assert_array_equal(value, expected)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(50):
            data = rng.normal(size=(6, 6, 1))
            p = rng.uniform(-4.2, 4.2, size=(1, 2))
            _, sup = bilinear_sample(DenseFeatureMap(1, data), SPEC, p)
            analytic = np.zeros((6, 6, 1))
            for (iy, ix), w in self.support_weights(sup).items():
                analytic[iy, ix, 0] = w
            fd = finite_difference_grad(
                lambda x: bilinear_sample(DenseFeatureMap(1, x), SPEC, p)[0][0, 0],
                data, h=1e-3)
            sig = np.abs(fd) > 1e-9
            if np.any(sig):
                rel = np.abs(analytic - fd)[sig] / np.abs(fd)[sig]
                worst = max(worst, float(rel.max()))
            # entries the FD says are zero must be zero analytically too
            np.testing.assert_allclose(analytic[~sig], 0.0, atol=1e-9)
        assert worst < 1e-4

    @pytest.mark.parametrize("spec,size,span,seed,draws", [
        (SPEC, 6, (-4.2, 4.2), 5, 30),
        # the bilinear-fd-grad gate's own maps: 8 x 8 cells of 0.1 m
        (GridSpec(x_min=0.0, x_max=0.8, y_min=0.0, y_max=0.8,
                  z_min=0.0, z_max=1.0, pillar_size=0.1), 8, (-0.1, 0.9), 3, 50),
    ], ids=["6x6", "8x8"])
    def test_batched_probes_equal_per_entry_differences(self, spec, size, span,
                                                        seed, draws):
        # the bilinear-fd-grad gate takes every difference from one sampler
        # call; some points lie near or off the map's edge
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            data = rng.normal(size=(size, size, 1))
            p = rng.uniform(*span, size=(1, 2))
            fd = finite_difference_grad(
                lambda x: bilinear_sample(DenseFeatureMap(1, x), spec, p)[0][0, 0],
                data, h=1e-3)
            assert bilinear_fd_grad(data, spec, p, h=1e-3).tobytes() == fd.tobytes()


class TestBilinearChunks:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunked_blend_equals_one_point_at_a_time(self, dtype):
        rng = np.random.default_rng(13)
        m = DenseFeatureMap(1, rng.normal(size=(16, 16, 5)).astype(dtype))
        # two full blend chunks and a partial one, some points off the map
        pts = rng.uniform(-5.0, 5.0, size=(2 * rcnn._BLEND_ROWS + 77, 2))
        value, sup = bilinear_sample(m, SPEC, pts)
        single = np.concatenate([bilinear_sample(m, SPEC, p[None])[0] for p in pts])
        assert not sup.inside.all() and sup.inside.any()
        assert value.dtype == dtype and value.tobytes() == single.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blend_holds_one_chunk_of_corner_rows(self, dtype):
        c = 128
        rng = np.random.default_rng(14)
        m = DenseFeatureMap(1, rng.normal(size=(16, 16, c)).astype(dtype))
        pts = rng.uniform(-5.0, 5.0, size=(5 * rcnn._BLEND_ROWS + 77, 2))
        tracemalloc.start()
        try:
            out, sup = bilinear_sample(m, SPEC, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        itemsize = np.dtype(dtype).itemsize
        cells = np.unique(sup.iy[sup.inside] * 16 + sup.ix[sup.inside])
        values = (len(cells) + 1) * c * itemsize
        chunk = rcnn._BLEND_ROWS * c * itemsize
        # the (M, 4) corner tables: the returned support and each corner's
        # row in the value table
        tables = sum(a.nbytes for a in (sup.iy, sup.ix, sup.weight, sup.inside,
                                        sup.iy))
        # NumPy's casting ufuncs add fixed-size buffers of 8192 elements
        assert peak < out.nbytes + values + chunk + tables + (512 << 10)


class TestResiduals:
    def test_zero_residuals_identity(self):
        roi = Box3D(1, 2, 0.3, 4, 2, 1.5, 0.6, class_id=1)
        out = decode_residuals(roi, np.zeros(7))
        assert (out.cx, out.cy, out.cz) == (roi.cx, roi.cy, roi.cz)
        assert (out.length, out.width, out.height) == (4, 2, 1.5)
        assert out.yaw == roi.yaw and out.class_id == 1

    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            roi = Box3D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-1, 1),
                        rng.uniform(1, 5), rng.uniform(1, 3), rng.uniform(1, 2),
                        rng.uniform(-math.pi, math.pi))
            tgt = Box3D(roi.cx + rng.uniform(-1, 1), roi.cy + rng.uniform(-1, 1),
                        roi.cz + rng.uniform(-0.5, 0.5), rng.uniform(1, 5),
                        rng.uniform(1, 3), rng.uniform(1, 2),
                        rng.uniform(-math.pi, math.pi))
            r = encode_residuals(roi, tgt)
            dec = decode_residuals(roi, r)
            assert dec.cx == pytest.approx(tgt.cx, abs=1e-9)
            assert dec.yaw == pytest.approx(tgt.yaw, abs=1e-9)
            # decode then re-encode returns the same residuals
            np.testing.assert_allclose(encode_residuals(roi, dec), r, atol=1e-6)


class TestForward:
    def test_zero_map_zero_biases_give_zero_outputs(self):
        store = rcnn_store(2, 3, zero=True)
        m = DenseFeatureMap(1, np.zeros((16, 16, 2)))
        rois = [Box3D(0, 0, 0, 2, 1, 1, 0.2)]
        logits, residuals, pooled = rcnn_forward(rois, m, SPEC, store, 3)
        assert logits[0] == 0.0 and not residuals.any() and not pooled.any()

    def test_roi_permutation_equivariance(self):
        store = rcnn_store(3, 4, mlp=(16, 16), seg_hidden=8, seed=2)
        rng = np.random.default_rng(7)
        m = DenseFeatureMap(1, rng.normal(size=(16, 16, 3)))
        rois = [Box3D(rng.uniform(-3, 3), rng.uniform(-3, 3), 0, 2, 1, 1,
                      rng.uniform(-3, 3)) for _ in range(6)]
        logits, residuals, _ = rcnn_forward(rois, m, SPEC, store, 4)
        perm = [3, 0, 5, 1, 4, 2]
        logits_p, residuals_p, _ = rcnn_forward([rois[i] for i in perm], m,
                                                SPEC, store, 4)
        np.testing.assert_allclose(logits_p, logits[perm], atol=1e-12)
        np.testing.assert_allclose(residuals_p, residuals[perm], atol=1e-12)

    def test_pooling_rigid_equivariance_quarter_turn(self):
        # rotate map content and RoI by 90 degrees about the grid center:
        # pooled features must match (cell centers map onto cell centers)
        rng = np.random.default_rng(8)
        n = 16
        data = rng.normal(size=(n, n, 2))
        m = DenseFeatureMap(1, data)
        roi = Box3D(1.1, -0.7, 0.0, 2.3, 1.2, 1.0, 0.4)
        rotated = np.empty_like(data)
        for iy in range(n):
            for ix in range(n):
                rotated[ix, n - 1 - iy] = data[iy, ix]
        roi_rot = Box3D(-roi.cy, roi.cx, 0.0, roi.length, roi.width, 1.0,
                        roi.yaw + math.pi / 2)
        base = pool_roi_features([roi], m, SPEC, 5)
        turned = pool_roi_features([roi_rot], DenseFeatureMap(1, rotated),
                                   SPEC, 5)
        np.testing.assert_allclose(turned, base, atol=1e-9)


    def test_lazy_pooling_map_pools_like_its_dense_values(self):
        rng = np.random.default_rng(9)
        vol = random_volume(rng, 16, 16, 2)
        pool = LateralMap(DenseFeatureMap(2, rng.normal(size=(8, 8, 3))),
                          (vol,), rng.normal(size=(2, 2, 3, 4)),
                          rng.normal(size=4), rng.normal(size=(3, 3, 6, 5)),
                          rng.normal(size=5))
        iy, ix = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        dense = DenseFeatureMap(1, pool.at(iy.ravel(), ix.ravel())
                                .reshape(16, 16, 5))
        rois = [Box3D(1.1, -0.7, 0.0, 2.3, 1.2, 1.0, 0.4),
                Box3D(-3.5, 3.6, 0.0, 3.0, 1.5, 1.0, -1.2)]  # over the edge
        np.testing.assert_array_equal(pool_roi_features(rois, pool, SPEC, 5),
                                      pool_roi_features(rois, dense, SPEC, 5))


class TestSampling:
    def gt(self):
        return [Box3D(0, 0, 0, 4, 2, 1.5, 0.3, class_id=0),
                Box3D(10, 5, 0, 4, 2, 1.5, -0.8, class_id=0)]

    def proposals(self, rng, n_pos=80, n_neg=80):
        gt = self.gt()
        out = []
        for i in range(n_pos):
            g = gt[i % 2]
            out.append(Box3D(g.cx + rng.uniform(-0.2, 0.2),
                             g.cy + rng.uniform(-0.2, 0.2), g.cz,
                             g.length, g.width, g.height, g.yaw))
        for _ in range(n_neg):
            out.append(Box3D(rng.uniform(-40, -20), rng.uniform(-40, -20), 0,
                             4, 2, 1.5, rng.uniform(-3, 3)))
        return out

    def test_exact_match_is_positive_with_full_confidence(self):
        gt = self.gt()
        batch = sample_proposals([gt[0]], gt, seed=0)
        assert batch.positive[0]
        assert batch.iou[0] == pytest.approx(1.0, abs=1e-9)
        assert batch.confidence_target[0] == 1.0

    def test_confidence_targets_from_known_ious(self):
        # axis-aligned unit cubes offset along x: IoU (1-d)/(1+d)
        gt = [Box3D(0, 0, 0, 1, 1, 1, 0.0)]
        p75 = Box3D(1 / 7, 0, 0, 1, 1, 1, 0.0)   # IoU 0.75 -> target 1.0
        p50 = Box3D(1 / 3, 0, 0, 1, 1, 1, 0.0)   # IoU 0.50 -> target 0.5
        batch = sample_proposals([p75, p50], gt, seed=1)
        by_iou = dict(zip(np.round(batch.iou, 6), batch.confidence_target))
        assert by_iou[0.75] == pytest.approx(1.0, abs=1e-9)
        assert by_iou[0.5] == pytest.approx(0.5, abs=1e-9)

    def test_confidence_mapping_monotone_and_saturating(self):
        ious = np.linspace(0, 1, 101)
        targets = confidence_target(ious)
        assert np.all(np.diff(targets) >= 0)
        assert np.all(targets[ious < 0.25] == 0.0)
        assert np.all(targets[ious > 0.75] == 1.0)

    def test_one_to_one_ratio_when_both_pools_suffice(self):
        rng = np.random.default_rng(9)
        props = self.proposals(rng)
        batch = sample_proposals(props, self.gt(), seed=42)
        assert len(batch) == 128
        assert int(batch.positive.sum()) == 64

    def test_fill_from_other_pool_when_short(self):
        rng = np.random.default_rng(10)
        props = self.proposals(rng, n_pos=10, n_neg=300)
        batch = sample_proposals(props, self.gt(), seed=3)
        assert len(batch) == 128 and int(batch.positive.sum()) == 10
        props = self.proposals(rng, n_pos=300, n_neg=5)
        batch = sample_proposals(props, self.gt(), seed=4)
        assert len(batch) == 128 and int((~batch.positive).sum()) == 5

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(11)
        props = self.proposals(rng)
        a = sample_proposals(props, self.gt(), seed=7)
        b = sample_proposals(props, self.gt(), seed=7)
        assert a.rois == b.rois
        np.testing.assert_array_equal(a.gt_index, b.gt_index)

    def test_positive_rule_against_scalar_iou(self):
        rng = np.random.default_rng(12)
        props = self.proposals(rng, n_pos=40, n_neg=40)
        gt = self.gt()
        batch = sample_proposals(props, gt, seed=5)
        ious = iou_3d([roi for roi in batch.rois for _ in gt],
                      list(gt) * len(batch)).reshape(len(batch), len(gt))
        for row, pos, gi in zip(ious, batch.positive, batch.gt_index):
            best = row.max()
            assert pos == (best >= 0.55)
            if pos:
                assert row[gi] == pytest.approx(best, abs=1e-12)

    def test_empty_proposals_give_empty_batch(self):
        batch = sample_proposals([], self.gt(), seed=0)
        assert len(batch) == 0


class TestAuxSegLabels:
    def test_roi_equals_gt_all_foreground(self):
        g = Box3D(1, 1, 0, 4, 2, 1.5, 0.7)
        labels = aux_seg_labels([g], [g], 7)
        assert labels.shape == (1, 7, 7) and labels.all()

    def test_disjoint_all_background(self):
        roi = Box3D(0, 0, 0, 4, 2, 1.5, 0.0)
        gt = [Box3D(30, 30, 0, 4, 2, 1.5, 0.0)]
        assert not aux_seg_labels([roi], gt, 7).any()

    def test_no_rois_and_no_gt(self):
        roi = Box3D(0, 0, 0, 4, 2, 1.5, 0.0)
        assert aux_seg_labels([], [roi], 5).shape == (0, 5, 5)
        labels = aux_seg_labels([roi, roi], [], 5)
        assert labels.shape == (2, 5, 5) and not labels.any()

    def test_half_shifted_roi_pattern(self):
        # RoI shifted by half its length: grid columns i <= 3 stay inside
        # (the i == 3 column sits exactly on the boundary, which is inside)
        g = Box3D(0, 0, 0, 4, 2, 1.5, 0.0)
        roi = Box3D(2.0, 0, 0, 4, 2, 1.5, 0.0)
        labels = aux_seg_labels([g, roi], [g], 7)
        expected_rows = np.array([1, 1, 1, 1, 0, 0, 0], dtype=float)
        assert labels[0].all()
        np.testing.assert_array_equal(
            labels[1], np.repeat(expected_rows[:, None], 7, axis=1))

    @staticmethod
    def label_pairs():
        """(label, edge-cross-product oracle) per grid point of 24 random
        batches of 1 to 4 RoIs, each batch sharing its ground truth; each
        point is placed by ``oracles.roi_grid_reference``."""
        rng = np.random.default_rng(13)
        for _ in range(24):
            gts = [Box3D(rng.uniform(-3, 3), rng.uniform(-3, 3), 0,
                         rng.uniform(1, 5), rng.uniform(1, 3), 1.5,
                         rng.uniform(-math.pi, math.pi))
                   for _ in range(rng.integers(1, 4))]
            rois = [Box3D(rng.uniform(-3, 3), rng.uniform(-3, 3), 0,
                          rng.uniform(1, 5), rng.uniform(1, 3), 1.5,
                          rng.uniform(-math.pi, math.pi))
                    for _ in range(rng.integers(1, 5))]
            g = int(rng.integers(1, 8))
            labels = aux_seg_labels(rois, gts, g)
            assert labels.shape == (len(rois), g, g)
            for roi, roi_labels in zip(rois, labels):
                pts = roi_grid_reference(roi, g)
                margin = np.max([footprint_margin(pts, project_to_bev(b))
                                 for b in gts], axis=0)
                # random boxes put no grid point within rounding of an edge
                assert np.abs(margin).min() > 1e-9
                yield from zip(roi_labels.astype(bool).ravel().tolist(),
                               (margin > 0.0).ravel().tolist())

    def test_matches_edge_cross_product_oracle(self):
        pairs = list(self.label_pairs())
        assert len(pairs) > 600 and 0 < sum(e for _, e in pairs) < len(pairs)
        for label, expected in pairs:
            assert label == expected

    def test_oracle_catches_half_cell_shift(self, monkeypatch):
        monkeypatch.setattr(rcnn, "roi_grids", half_cell_shifted(rcnn.roi_grids))
        assert any(label != expected for label, expected in self.label_pairs())


class TestLosses:
    def batch_with_hard_targets(self):
        gt = [Box3D(0, 0, 0, 4, 2, 1.5, 0.3, class_id=0)]
        pos = [gt[0], Box3D(0.05, 0, 0, 4, 2, 1.5, 0.3)]
        neg = [Box3D(20, 20, 0, 4, 2, 1.5, 0.0),
               Box3D(-20, 20, 0, 4, 2, 1.5, 0.0)]
        return sample_proposals(pos + neg, gt, seed=1, sample_size=4), gt

    def test_perfect_predictions_near_zero(self):
        batch, gt = self.batch_with_hard_targets()
        eps = 1e-4
        conf = np.log(np.clip(batch.confidence_target, eps, 1 - eps)
                      / (1 - np.clip(batch.confidence_target, eps, 1 - eps)))
        g = 3
        labels = aux_seg_labels(batch.rois, gt, g)
        seg_logits = np.log(np.clip(labels, eps, 1 - eps)
                            / (1 - np.clip(labels, eps, 1 - eps)))
        parts = rcnn_loss(conf, batch.regression_target.copy(), seg_logits,
                          batch, labels)
        assert parts.confidence < 1e-3
        assert parts.regression < 1e-12
        assert parts.seg < 1e-3

    def test_zero_positives_zero_regression(self):
        gt = [Box3D(0, 0, 0, 4, 2, 1.5, 0.0, class_id=0)]
        neg = [Box3D(20, 20, 0, 4, 2, 1.5, 0.0)]
        batch = sample_proposals(neg, gt, seed=2)
        parts = rcnn_loss(np.zeros(1), np.ones((1, 7)), np.zeros((1, 2, 2)),
                          batch, np.zeros((1, 2, 2)))
        assert parts.regression == 0.0

    def test_total_is_exact_sum(self):
        rng = np.random.default_rng(14)
        rpn = {4: float(rng.random()), 8: float(rng.random())}
        parts = RcnnLossParts(float(rng.random()), float(rng.random()),
                              float(rng.random()))
        report = LossReport.build(rpn, parts)
        assert report.rcnn == parts.confidence + parts.regression
        assert report.total == rpn[4] + rpn[8] + report.rcnn + report.seg

    def test_empty_batch(self):
        gt = [Box3D(0, 0, 0, 4, 2, 1.5, 0.0)]
        batch = sample_proposals([], gt, seed=0)
        parts = rcnn_loss(np.zeros(0), np.zeros((0, 7)), np.zeros((0, 2, 2)),
                          batch, np.zeros((0, 2, 2)))
        assert parts == RcnnLossParts(0.0, 0.0, 0.0)


class TestRefine:
    def test_zero_weights_keep_boxes_and_bias_scores(self):
        store = rcnn_store(2, 3, zero=True)
        m = DenseFeatureMap(1, np.random.default_rng(15).normal(size=(16, 16, 2)))
        proposals = [Detection(Box3D(0, 0, 0, 2, 1, 1, 0.4), 0, 0.7, 0.6)]
        out = refine(proposals, m, SPEC, store, 3)
        assert out[0].box == proposals[0].box
        assert out[0].score == pytest.approx(0.5)  # sigmoid(0)
        assert out[0].iou_score == 0.6

    def test_empty_proposals(self):
        store = rcnn_store(2, 3)
        m = DenseFeatureMap(1, np.zeros((16, 16, 2)))
        assert refine([], m, SPEC, store, 3) == []

    def test_grid_size_below_one_rejected(self):
        store = rcnn_store(2, 3)
        m = DenseFeatureMap(1, np.zeros((16, 16, 2)))
        proposals = [Detection(Box3D(0, 0, 0, 2, 1, 1, 0.4), 0, 0.7, 0.6)]
        with pytest.raises(ValueError, match="grid_size"):
            refine(proposals, m, SPEC, store, 0)
        with pytest.raises(ValueError, match="grid_size"):
            rcnn_forward([proposals[0].box], m, SPEC, store, 0)

    def test_no_proposals_never_evaluate_the_map(self):
        class Unreadable:
            stride, height, width, channels = 1, 16, 16, 2

            def at(self, iy, ix):
                raise AssertionError("pooling map evaluated")

        assert refine([], Unreadable(), SPEC, rcnn_store(2, 3), 3) == []

    def test_seg_head_shapes(self):
        store = rcnn_store(3, 4, seed=4)
        rng = np.random.default_rng(16)
        pooled = rng.normal(size=(5, 4, 4, 3))
        logits = seg_forward(pooled, store)
        assert logits.shape == (5, 4, 4)
