import hashlib

import pytest

from pillardet.fileio import format_gt
from pillardet.geometry import point_in_rect, project_to_bev, rotated_iou_bev
from pillardet.grid import GridSpec
from pillardet.metrics import evaluate_levels
from pillardet.synth import (JitterSpec, SceneSpec, generate_scene,
                             jitter_detections, points_in_box, scene_seed,
                             splitmix64)

GRID = GridSpec(x_min=-20.0, x_max=20.0, y_min=-20.0, y_max=20.0,
                z_min=-2.0, z_max=4.0, pillar_size=0.1)
THRESHOLDS = {0: 0.7, 1: 0.5, 2: 0.5}


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
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                assert rotated_iou_bev(rects[i], rects[j]) == 0.0

    def test_num_points_matches_containment_recount(self):
        cloud, gt = generate_scene(SceneSpec(seed=7), GRID)
        for b in gt:
            rect = project_to_bev(b)
            recount = sum(
                1 for x, y, z in cloud.xyz
                if point_in_rect((x, y), rect) and abs(z - b.cz) <= b.height / 2)
            assert recount == b.num_points

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
        from pillardet.geometry import iou_3d
        for d, g in zip(dets, gt):
            assert d.score == pytest.approx(iou_3d(d.box, g), abs=1e-12)

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
        _, gt = generate_scene(SceneSpec(seed=12), GRID)
        cloud, _ = generate_scene(SceneSpec(seed=12), GRID)
        b = gt[0]
        mask = points_in_box(cloud.xyz, b)
        rect = project_to_bev(b)
        for (x, y, z), inside in zip(cloud.xyz[:300], mask[:300]):
            expected = point_in_rect((x, y), rect) and abs(z - b.cz) <= b.height / 2
            assert inside == expected


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
