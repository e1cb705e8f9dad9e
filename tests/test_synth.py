import hashlib
import math

import numpy as np
import pytest

from pillardet.fileio import format_gt
from pillardet.geometry import iou_3d, project_to_bev, rotated_iou_bev
from pillardet.grid import GridSpec
from pillardet.metrics import evaluate_levels
from pillardet.oracles import footprint_margin
from pillardet.synth import (POINTS_PER_OBJECT, JitterSpec, SceneSpec,
                             generate_scene, jitter_detections, points_in_box,
                             scene_seed, splitmix64)

GRID = GridSpec(x_min=-20.0, x_max=20.0, y_min=-20.0, y_max=20.0,
                z_min=-2.0, z_max=4.0, pillar_size=0.1)
THRESHOLDS = {0: 0.7, 1: 0.5, 2: 0.5}

# The oracle must decide every point it is given: none may lie within this
# distance (metres) of the box surface, where two correct formulas may
# round apart.
SURFACE_EPS = 1e-9


def box_margin(xyz, b):
    """Least signed distance of each (N, 3) point to the box surface's
    planes (> 0 inside), from the footprint's edge cross products and the
    box's z extent: no rotation into the box frame."""
    return np.minimum(footprint_margin(xyz[:, :2], project_to_bev(b)),
                      np.minimum(xyz[:, 2] - b.z_bottom, b.z_top - xyz[:, 2]))


def assert_matches_oracle(xyz, b):
    """``points_in_box(xyz, b)`` equals the oracle on every point, none of
    which lies within SURFACE_EPS of the surface; returns the mask."""
    margin = box_margin(xyz, b)
    assert np.abs(margin).min() > SURFACE_EPS
    mask = points_in_box(xyz, b)
    assert mask.shape == (len(xyz),) and mask.dtype == bool
    np.testing.assert_array_equal(mask, margin > 0.0)
    return mask


def scaled_about_center(xyz, b, scale):
    """Points moved along their rays from the box centre: a point on a face
    ends ``|scale - 1|`` times its distance from the centre inside
    (scale < 1) or outside (scale > 1) the box."""
    center = np.array([b.cx, b.cy, b.cz])
    return center + (xyz - center) * scale


class TestGenerateScene:
    def test_deterministic_bytes(self):
        spec = SceneSpec(seed=5)
        cloud_a, gt_a = generate_scene(spec, GRID)
        cloud_b, gt_b = generate_scene(spec, GRID)
        assert cloud_a.data.tobytes() == cloud_b.data.tobytes()
        assert format_gt(gt_a) == format_gt(gt_b)

    def test_pairwise_bev_disjoint(self):
        _, gt = generate_scene(SceneSpec(seed=6), GRID)
        rects = [project_to_bev(b) for b in gt]
        i, j = np.triu_indices(len(rects), 1)
        assert len(i) > 0
        assert not rotated_iou_bev([rects[k] for k in i],
                                   [rects[k] for k in j]).any()

    def test_num_points_matches_containment_recount(self):
        spec = SceneSpec(seed=7)
        cloud, gt = generate_scene(spec, GRID)
        for b in gt:
            # num_points is the points_in_box count of the cloud; the
            # exact counts are also pinned by TestBenchmarkInputs' digests
            assert np.count_nonzero(points_in_box(cloud.xyz, b)) == b.num_points
            # A box's own points lie on its faces, within rounding of the
            # surface. Shrunk 1e-6 towards the centre they are all inside,
            # grown 1e-6 away they are all outside, and the oracle decides
            # every point of both clouds. A correct count lies between.
            inner = assert_matches_oracle(
                scaled_about_center(cloud.xyz, b, 1.0 - 1e-6), b).sum()
            outer = assert_matches_oracle(
                scaled_about_center(cloud.xyz, b, 1.0 + 1e-6), b).sum()
            assert outer <= b.num_points <= inner
            assert inner - outer >= POINTS_PER_OBJECT[0]

    def test_points_respect_grid_bounds(self):
        cloud, _ = generate_scene(SceneSpec(seed=8), GRID)
        x, y, z = cloud.xyz.T
        assert x.min() >= GRID.x_min and x.max() < GRID.x_max
        assert y.min() >= GRID.y_min and y.max() < GRID.y_max
        assert z.min() >= GRID.z_min and z.max() < GRID.z_max

    def test_placement_budget_error_reports_progress(self):
        # far too many vehicles for a tiny grid
        tiny = GridSpec(x_min=-8.0, x_max=8.0, y_min=-8.0, y_max=8.0,
                        z_min=-2.0, z_max=4.0, pillar_size=0.1)
        with pytest.raises(RuntimeError, match=r"after \d+ of 40"):
            generate_scene(SceneSpec(seed=9, counts={0: 40},
                                     max_attempts=20), tiny)

    def test_objects_carry_enough_points_for_l1(self):
        _, gt = generate_scene(SceneSpec(seed=10), GRID)
        assert all(b.num_points > 5 for b in gt)


class TestJitter:
    def gt(self):
        _, gt = generate_scene(SceneSpec(seed=11), GRID)
        return gt

    def test_zero_noise_gives_perfect_metrics(self):
        gt = self.gt()
        dets = jitter_detections(gt, JitterSpec(), seed=0)
        for level in ("L1", "L2"):
            m = evaluate_levels([dets], [gt], THRESHOLDS)[level]
            for cls, r in m.items():
                if r.valid:
                    assert r.ap == 1.0 and r.aph == 1.0

    def test_yaw_flip_degrades_heading_only(self):
        gt = self.gt()
        dets = jitter_detections(gt, JitterSpec(yaw_flip_prob=1.0), seed=1)
        m = evaluate_levels([dets], [gt], THRESHOLDS)["L1"]
        for cls, r in m.items():
            if r.valid:
                assert r.ap == 1.0 and r.aph == 0.0

    def test_seed_reproducibility(self):
        gt = self.gt()
        noise = JitterSpec(sigma_center=0.3, sigma_yaw=0.2, false_positives=5)
        a = jitter_detections(gt, noise, seed=3)
        b = jitter_detections(gt, noise, seed=3)
        assert [(d.box, d.score) for d in a] == [(d.box, d.score) for d in b]

    def test_scores_monotone_in_iou(self):
        gt = self.gt()
        dets = jitter_detections(gt, JitterSpec(sigma_center=0.4), seed=4)
        assert [d.score for d in dets] == pytest.approx(
            iou_3d([d.box for d in dets], gt).tolist(), abs=1e-12)

    def test_false_positives_appended(self):
        gt = self.gt()
        dets = jitter_detections(gt, JitterSpec(false_positives=7), seed=5)
        assert len(dets) == len(gt) + 7


class TestSeeds:
    def test_splitmix_spreads_and_repeats(self):
        seeds = [scene_seed(0, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert scene_seed(0, 13) == scene_seed(0, 13)
        assert splitmix64(1) != splitmix64(2)

    def test_points_in_box_vectorized(self):
        # uniform points over a block around each box: the oracle decides
        # every one, and each block holds points inside and outside
        _, gt = generate_scene(SceneSpec(seed=12), GRID)
        rng = np.random.default_rng(12)
        for b in gt:
            reach = 0.5 * math.hypot(b.length, b.width) + 0.5
            xyz = np.column_stack([
                rng.uniform(b.cx - reach, b.cx + reach, 2000),
                rng.uniform(b.cy - reach, b.cy + reach, 2000),
                rng.uniform(b.z_bottom - 0.5, b.z_top + 0.5, 2000)])
            assert 0 < assert_matches_oracle(xyz, b).sum() < len(xyz)


NEAR_GRID = GridSpec(x_min=-25.6, x_max=25.6, y_min=-25.6, y_max=25.6,
                     z_min=-2.0, z_max=4.0, pillar_size=0.1)
CROWDED = {"counts": {0: 20, 1: 30, 2: 20}, "noise_density": 2.0}
NOISY = JitterSpec(sigma_center=0.15, sigma_z=0.05, sigma_size=0.05,
                   sigma_yaw=0.05, yaw_flip_prob=0.05)
# the benchmark workloads' scene recipes (perfbench/workloads.py)
WORKLOAD_SCENES = {"full_range": (GridSpec(), {}),
                   "crowded_near": (NEAR_GRID, CROWDED),
                   "postprocess": (NEAR_GRID, CROWDED)}


def input_digest(workload: str, seed: int) -> str:
    """sha256 of one benchmark scene's cloud, ground truth and, for the
    post-processing workload, its candidates and control detections."""
    grid, scene = WORKLOAD_SCENES[workload]
    s = scene_seed(seed, 0)
    cloud, gt = generate_scene(SceneSpec(seed=s, **scene), grid)
    dets = []
    if workload == "postprocess":
        for c in range(4):
            dets += jitter_detections(gt, NOISY, scene_seed(s, c + 1), grid)
        dets += jitter_detections([], JitterSpec(false_positives=100),
                                  scene_seed(s, 0), grid)
        dets += jitter_detections(gt, JitterSpec(), s, grid)
    h = hashlib.sha256(cloud.data.tobytes())
    h.update(repr(gt).encode())
    h.update(repr(dets).encode())
    return h.hexdigest()


class TestBenchmarkInputs:
    # taken from the one-pair-at-a-time clipper: batching the placement
    # test and the jitter scores must leave every generated byte alone
    DIGESTS = {
        ("full_range", 1101): "28a9e11b6fab465c0cc8ccdcfe0cc9805e003001aad10f58af133d855ca0335e",
        ("full_range", 1102): "b6aa112b5f241b69d4b6d69a94a6e4a489e60e5652aeea22a5aa841a9d34299d",
        ("crowded_near", 1101): "99bbf1100882698172e371dccf9494c1901eeedaf4b35357e92398f91b2c96dc",
        ("crowded_near", 1102): "89f6ca8cb37a3f1634ce5168b6e7f65cacd7375c0bda78728f7700ad42163557",
        ("postprocess", 1101): "762c4b6f2ef2a5f0805f12e08c7b284375186a41df1f1204e695587872f650f7",
        ("postprocess", 1102): "93577c11831438a17ba75b566f78918237282559df439df31dd9741227c8c865",
    }

    @pytest.mark.parametrize("workload,seed", sorted(DIGESTS))
    def test_generated_bytes_unchanged(self, workload, seed):
        assert input_digest(workload, seed) == self.DIGESTS[workload, seed]
