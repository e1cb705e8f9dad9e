"""Self-check suites comparing fast paths against brute-force oracles.

Shipped with the library (not only the test tree) so a deployment can
re-run the correctness gates in the field: rotated IoU against Monte
Carlo, sparse against dense convolution, whole lateral maps and their
values at chosen cells against a per-pixel deconvolution, concatenation
and convolution, greedy against exhaustive NMS, analytic against
finite-difference bilinear gradients, segmentation labels against the
edge-cross-product footprint margin, and the float32 pipeline against its
float64 upcast. Each suite fixes its own budget, seed and tolerance; the
acceptance criteria alone raise three suites' budgets. The suites have
no fault-injection option: their negative controls, one or more per
suite, patch faults in from outside (``tests/test_verify.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (Box3D, RotatedRect2D, iou_3d, iou_3d_tables,
                       project_to_bev, rotated_iou_bev)
from .config import PipelineConfig, weight_layout
from .fpn import LateralMap
from .grid import (DenseFeatureMap, GridSpec, SparsePillarVolume, densify,
                   sparse_conv2d)
from .oracles import (dense_conv_reference, exhaustive_nms, footprint_margin,
                      lateral_reference, mc_rotated_iou, roi_grid_reference)
from .pipeline import DetectionPipeline
from .rcnn import aux_seg_labels, bilinear_sample, rcnn_forward
from .rpn import Detection, nms_3d
from .synth import SceneSpec, generate_scene, scene_seed
from .weights import WeightStore


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_error: float
    budget: str
    detail: str = ""


def random_rect(rng: np.random.Generator) -> RotatedRect2D:
    return RotatedRect2D(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                         rng.uniform(0.8, 5.0), rng.uniform(0.8, 5.0),
                         rng.uniform(-math.pi, math.pi))


def random_box(rng: np.random.Generator, span: float = 10.0) -> Box3D:
    return Box3D(rng.uniform(-span, span), rng.uniform(-span, span),
                 rng.uniform(-1.0, 1.0), rng.uniform(0.8, 5.0),
                 rng.uniform(0.8, 5.0), rng.uniform(0.8, 2.5),
                 rng.uniform(-math.pi, math.pi))


def random_volume(rng: np.random.Generator, nx: int, ny: int, channels: int,
                  density: float = 0.15) -> SparsePillarVolume:
    n = max(1, int(nx * ny * density))
    keys = np.sort(rng.choice(nx * ny, size=n, replace=False))
    coords = np.stack([keys // ny, keys % ny], axis=1)
    return SparsePillarVolume(1, nx, ny, coords, rng.normal(size=(n, channels)))


def geometry_suite() -> SuiteResult:
    """Clipping IoU vs Monte Carlo, plus symmetry and rigid invariance."""
    pairs, samples, seed = 150, 1_000_000, 0
    rng = np.random.default_rng(seed)
    rects_a, rects_b, moved_a, moved_b = [], [], [], []
    for _ in range(pairs):
        a = random_rect(rng)
        b = RotatedRect2D(a.cx + rng.uniform(-2, 2), a.cy + rng.uniform(-2, 2),
                          rng.uniform(0.8, 5.0), rng.uniform(0.8, 5.0),
                          rng.uniform(-math.pi, math.pi))
        # rigid motion applied to both rects
        tx, ty, rot = rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-math.pi, math.pi)
        c, s = math.cos(rot), math.sin(rot)
        for r, out in ((a, moved_a), (b, moved_b)):
            out.append(RotatedRect2D(c * r.cx - s * r.cy + tx,
                                     s * r.cx + c * r.cy + ty,
                                     r.length, r.width, r.yaw + rot))
        rects_a.append(a)
        rects_b.append(b)
    iou = rotated_iou_bev(rects_a, rects_b)
    max_sym = float(np.abs(iou - rotated_iou_bev(rects_b, rects_a)).max(initial=0.0))
    max_rigid = float(np.abs(iou - rotated_iou_bev(moved_a, moved_b)).max(initial=0.0))
    max_mc = 0.0
    for k, (a, b, v) in enumerate(zip(rects_a, rects_b, iou.tolist())):
        max_mc = max(max_mc, abs(v - mc_rotated_iou(a, b, samples, seed=seed + k)))
    passed = max_mc <= 3e-3 and max_sym == 0.0 and max_rigid <= 1e-9
    return SuiteResult("geometry-mc-iou", passed, max(max_mc, max_rigid),
                       f"{pairs} pairs x {samples} samples",
                       f"mc={max_mc:.2e} sym={max_sym:.2e} rigid={max_rigid:.2e}")


def sparse_dense_suite(volumes: int = 40, seed: int = 1) -> SuiteResult:
    """Densified sparse convolution vs the per-pixel dense reference.

    Each layer type runs on ``volumes`` 16x16 volumes, then on one 64x64
    volume whose output cells fill more than one GEMM band of the sparse
    conv.
    """
    rng = np.random.default_rng(seed)
    modes = ((1, True), (1, False), (2, False))   # subm, regular s1 and s2
    cases = [(mode, 16, 0.15) for mode in modes for _ in range(volumes)]
    cases += [(mode, 64, 0.3) for mode in modes]
    worst = 0.0
    for (stride, subm), size, density in cases:
        c_in, c_out = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        v = random_volume(rng, size, size, c_in, density)
        w = rng.normal(size=(3, 3, c_in, c_out))
        out = sparse_conv2d(v, w, np.zeros(c_out), stride=stride,
                            submanifold=subm)
        ref = dense_conv_reference(densify(v).data, w, stride=stride)
        if subm:
            mask = np.zeros(ref.shape[:2], dtype=bool)
            mask[v.coords[:, 1], v.coords[:, 0]] = True
            ref = ref * mask[:, :, None]
        worst = max(worst, float(np.abs(densify(out).data - ref).max()))
    return SuiteResult("sparse-dense-conv", worst < 1e-5, worst,
                       f"{volumes} volumes + 1 multi-band x 3 layer types",
                       f"max abs diff {worst:.2e}")


def border_volume(rng: np.random.Generator, nx: int, ny: int,
                  channels: int) -> SparsePillarVolume:
    """Active sites on the outermost ring of cells only, corners included."""
    ring = [(ix, iy) for ix in range(nx) for iy in range(ny)
            if ix in (0, nx - 1) or iy in (0, ny - 1)]
    coords = np.array(sorted(ring), dtype=np.int64)
    return SparsePillarVolume(1, nx, ny, coords,
                              rng.normal(size=(len(coords), channels)))


def bottom_up_volumes(rng: np.random.Generator, k: int, nx: int,
                      ny: int) -> list[SparsePillarVolume]:
    """One or two volumes, each empty, border-only or random by turns."""
    vols = []
    for _ in range(int(rng.integers(1, 3))):
        c = int(rng.integers(1, 4))
        kind = (k + len(vols)) % 3
        if kind == 0:
            vols.append(SparsePillarVolume.empty(1, nx, ny, c))
        elif kind == 1:
            vols.append(border_volume(rng, nx, ny, c))
        else:
            vols.append(random_volume(rng, nx, ny, c,
                                      density=float(rng.uniform(0.02, 0.3))))
    return vols


def lateral_case(rng: np.random.Generator, hs: int, ws: int, c_up: int,
                 vols: list[SparsePillarVolume]):
    """A random lateral map over ``vols`` and its
    :func:`~pillardet.oracles.lateral_reference` over the densified volumes.

    The semantic map is ``hs`` x ``ws`` cells of random features.
    """
    c_sem, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    semantic = rng.normal(size=(hs, ws, c_sem))
    deconv_w = rng.normal(size=(2, 2, c_sem, c_up))
    deconv_b = rng.normal(size=c_up)
    c_in = c_up + sum(v.channels for v in vols)
    conv_w = rng.normal(size=(3, 3, c_in, c_out))
    conv_b = rng.normal(size=c_out)
    lateral_map = LateralMap(DenseFeatureMap(2, semantic), tuple(vols),
                             deconv_w, deconv_b, conv_w, conv_b)
    return lateral_map, lateral_reference(
        semantic, deconv_w, deconv_b, [densify(v).data for v in vols],
        conv_w, conv_b)


def _max_abs_diff(got: np.ndarray, ref: np.ndarray) -> float:
    if got.shape != ref.shape:
        return math.inf
    return float(np.abs(got - ref).max(initial=0.0))


def split_lateral_suite() -> SuiteResult:
    """The whole lateral map, :meth:`LateralMap.dense`, vs the per-pixel
    reference of :func:`lateral_case`.

    Each of ``maps`` maps, 2 to 14 cells a side, has one or two bottom-up
    volumes, each random, empty or touching only the map border. Then come
    one 48x40 map with a random volume whose reached cells fill more than
    one GEMM band of the sparse conv, and one 96x48 map with 512 upsampled
    channels, read in three dense-conv chunks.
    """
    maps = 40
    rng = np.random.default_rng(5)
    worst = 0.0
    for k in range(maps + 2):
        if k < maps:
            hs, ws = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            c_up = int(rng.integers(1, 5))
        elif k == maps:
            hs, ws, c_up = 24, 20, int(rng.integers(1, 5))
        else:  # 40-row chunks: one 2000-pixel band of float64 input, 8 MB
            hs, ws, c_up = 48, 24, 512
        vols = ([random_volume(rng, 2 * ws, 2 * hs, int(rng.integers(1, 4)), 0.1)]
                if k == maps else bottom_up_volumes(rng, k, 2 * ws, 2 * hs))
        lateral_map, ref = lateral_case(rng, hs, ws, c_up, vols)
        worst = max(worst, _max_abs_diff(lateral_map.dense().data, ref))
    return SuiteResult("split-lateral", worst < 1e-5, worst,
                       f"{maps} maps, random/empty/border volumes + 1 "
                       "multi-band + 1 multi-chunk",
                       f"max abs diff {worst:.2e}")


def pooling_at_cells_suite() -> SuiteResult:
    """Lateral map values at chosen cells, :meth:`LateralMap.at`, vs the
    per-pixel reference of :func:`lateral_case`.

    Cell sets are by turns a random subset with repeats, the border ring,
    every cell, no cell and every fourth column of a 64x64 map (256
    single-column strips in one canvas); volumes are as in the
    split-lateral suite. The last map is 48x48 with 512 upsampled
    channels.
    """
    maps = 40
    rng = np.random.default_rng(6)
    worst = 0.0
    for k in range(maps + 1):
        kind = k % 5
        if k == maps:
            hs, ws, c_up = 24, 24, 512
        else:
            hs, ws = ((32, 32) if kind == 4 else
                      (int(rng.integers(1, 8)), int(rng.integers(1, 8))))
            c_up = int(rng.integers(1, 5))
        h, w = 2 * hs, 2 * ws
        vols = bottom_up_volumes(rng, k, w, h)
        lateral_map, ref = lateral_case(rng, hs, ws, c_up, vols)
        iy, ix = np.nonzero(np.ones((h, w), dtype=bool))
        if kind == 0:
            pick = rng.integers(0, h * w, int(rng.integers(1, 2 * h * w)))
            iy, ix = iy[pick], ix[pick]
        elif kind == 1:
            ring = (iy == 0) | (iy == h - 1) | (ix == 0) | (ix == w - 1)
            iy, ix = iy[ring], ix[ring]
        elif kind == 3:
            iy, ix = iy[:0], ix[:0]
        elif kind == 4:
            iy, ix = iy[ix % 4 == 1], ix[ix % 4 == 1]
        worst = max(worst, _max_abs_diff(lateral_map.at(iy, ix), ref[iy, ix]))
    return SuiteResult("pooling-at-cells", worst < 1e-5, worst,
                       f"{maps} maps, random/border/all/no/strided cells "
                       "+ 1 multi-chunk",
                       f"max abs diff {worst:.2e}")


def clustered_detections(rng: np.random.Generator, n: int) -> list[Detection]:
    """``n`` NMS candidates clustered as a detector's peaks are: jittered
    copies of 12 random boxes, each of its base's class.

    A copy moves its base's BEV centre by N(0, 0.3 m) per axis, scales
    each extent by exp(N(0, 0.1)) and turns the yaw by N(0, 0.2); its
    score is uniform. Uniformly scattered boxes almost never overlap
    enough to suppress one another, so they leave the greedy scan untested.
    """
    base = [replace(random_box(rng), class_id=int(rng.integers(0, 3)))
            for _ in range(12)]
    dets = []
    for b in [base[k] for k in rng.integers(0, len(base), size=n)]:
        cx, cy = rng.normal((b.cx, b.cy), 0.3).tolist()
        length, width, height = (np.exp(rng.normal(0.0, 0.1, 3))
                                 * (b.length, b.width, b.height)).tolist()
        box = replace(b, cx=cx, cy=cy, length=length, width=width,
                      height=height, yaw=b.yaw + float(rng.normal(0.0, 0.2)))
        score = float(rng.random())
        dets.append(Detection(box, b.class_id, score, iou_score=score))
    return dets


def screen_misses(dets: list[Detection],
                  thresholds: dict[int, float]) -> np.ndarray:
    """Threshold - IoU of each overlapping same-class pair that the NMS
    screen of :func:`~pillardet.geometry.iou_3d_tables` skips, clipped
    here after all: its cell in the unscreened table is not the screened
    table's 0. A sound screen leaves every value positive."""
    classes = sorted({d.class_id for d in dets})
    groups = [([d.box for d in dets if d.class_id == c],) for c in classes]
    thrs = [thresholds[c] for c in classes]
    gaps = [thr - every[every != screened]
            for thr, every, screened in zip(
                thrs, iou_3d_tables(groups), iou_3d_tables(groups, at_least=thrs))]
    return np.concatenate([np.zeros(0)] + gaps)


def nms_suite(scenes: int = 30, boxes_per_scene: int = 60,
              seed: int = 2) -> SuiteResult:
    """Greedy NMS must match the exhaustive-matrix oracle exactly, on
    :func:`clustered_detections` candidates, so that many suppress, and
    no near pair its IoU screen skips may reach its class threshold
    (:func:`screen_misses`)."""
    rng = np.random.default_rng(seed)
    thresholds = {0: 0.8, 1: 0.55, 2: 0.55}
    mismatches = suppressed = 0
    gaps = []
    for _ in range(scenes):
        dets = clustered_detections(rng, boxes_per_scene)
        fast = nms_3d(dets, thresholds)
        slow = exhaustive_nms(dets, thresholds, iou_3d)
        if [id(d) for d in fast] != [id(d) for d in slow]:
            mismatches += 1
        suppressed += len(dets) - len(slow)
        gaps.append(screen_misses(dets, thresholds))
    gaps = np.concatenate(gaps)
    reached = int(np.count_nonzero(gaps <= 0.0))
    return SuiteResult("nms-brute-force", mismatches == reached == 0,
                       float(mismatches + reached),
                       f"{scenes} scenes x {boxes_per_scene} boxes",
                       f"{mismatches} mismatching scenes; {suppressed}/"
                       f"{scenes * boxes_per_scene} candidates suppressed; "
                       f"{reached}/{len(gaps)} skipped overlapping pairs reach "
                       f"their threshold, least gap "
                       f"{gaps.min(initial=np.inf):.3g}")


def bilinear_fd_grad(data: np.ndarray, spec: GridSpec, p: np.ndarray,
                     h: float = 1e-3) -> np.ndarray:
    """Central differences of the first channel of the sample at the one
    point ``p`` w.r.t. every entry of an (H, W, 1) map, from one sampler call.

    Channels 2k and 2k + 1 of the probe map hold the map with entry k
    raised and lowered by ``h``. The sampler blends each channel on its
    own, so each difference is bit-equal to
    :func:`~pillardet.oracles.finite_difference_grad`'s, which samples
    twice per entry.
    """
    flat = data.reshape(-1)
    n = flat.size
    probes = np.repeat(flat[:, None], 2 * n, axis=1)
    entry = np.arange(n)
    probes[entry, 2 * entry] = flat + h
    probes[entry, 2 * entry + 1] = flat - h
    values = bilinear_sample(
        DenseFeatureMap(1, probes.reshape(data.shape[:2] + (2 * n,))),
        spec, p)[0][0]
    return ((values[0::2] - values[1::2]) / (2.0 * h)).reshape(data.shape)


def bilinear_suite(samples: int = 200, seed: int = 3) -> SuiteResult:
    """Analytic bilinear gradients vs central finite differences."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(x_min=0.0, x_max=0.8, y_min=0.0, y_max=0.8,
                    z_min=0.0, z_max=1.0, pillar_size=0.1)
    worst = 0.0
    for _ in range(samples):
        data = rng.normal(size=(8, 8, 1))
        m = DenseFeatureMap(1, data)
        p = rng.uniform(-0.1, 0.9, size=(1, 2))
        _, sup = bilinear_sample(m, spec, p)
        analytic = np.zeros((8, 8, 1))
        for k in np.nonzero(sup.inside[0])[0]:
            analytic[sup.iy[0, k], sup.ix[0, k], 0] = sup.weight[0, k]
        fd = bilinear_fd_grad(data, spec, p, h=1e-3)
        denom = np.maximum(np.abs(fd), 1e-6)
        rel = np.abs(analytic - fd) / denom
        worst = max(worst, float(rel[np.abs(fd) > 1e-9].max()
                                 if np.any(np.abs(fd) > 1e-9) else 0.0))
    return SuiteResult("bilinear-fd-grad", worst < 1e-4, worst,
                       f"{samples} random (map, point) pairs",
                       f"max rel err {worst:.2e}")


def aux_label_suite() -> SuiteResult:
    """Grid-point labels vs an independent rebuild of each label.

    Each grid point is placed by
    :func:`~pillardet.oracles.roi_grid_reference` and is inside a
    ground-truth footprint where
    :func:`~pillardet.oracles.footprint_margin` reads >= 0, so neither the
    RoI grid nor the containment test of the labelled code is reused.
    """
    rois = 100
    rng = np.random.default_rng(4)
    mismatches = 0
    for _ in range(rois):
        roi = random_box(rng, span=6.0)
        gts = [random_box(rng, span=6.0) for _ in range(int(rng.integers(1, 4)))]
        g = int(rng.integers(1, 9))
        labels = aux_seg_labels([roi], gts, g)[0]
        points = roi_grid_reference(roi, g)
        inside = np.any([footprint_margin(points, project_to_bev(b)) >= 0.0
                         for b in gts], axis=0)
        mismatches += int(np.count_nonzero(labels.astype(bool) != inside))
    return SuiteResult("aux-seg-labels", mismatches == 0, float(mismatches),
                       f"{rois} RoIs", f"{mismatches} mismatching grid points")


def _detection_row(d: Detection) -> list[float]:
    b = d.box
    return [b.cx, b.cy, b.cz, b.length, b.width, b.height, b.yaw, d.score]


def float32_suite() -> SuiteResult:
    """The float32 pipeline vs its float64 upcast: two
    :meth:`DetectionPipeline.run` results compared.

    The default config on a +-12.8 m grid runs with a seeded float32 store
    and with the same values upcast to float64, so the two runs differ only
    in the rounding of their maps. The suite compares the runs' head maps,
    then the pooled features, logits and residuals that each run's pooling
    map gives for one fixed proposal list (the float64 run's): every value
    must agree within 1e-6 absolute, about eight float32 ulps of
    1 (heatmaps lie in [0, 1], the pooled features and R-CNN outputs below
    it). The share of float32 detections with a float64 twin (same class,
    every box field and score within 1e-3) is reported, not gated:
    near-tied peaks of seeded weights may swap at the top-k cut.
    """
    scenes, seed = 2, 7
    cfg = replace(PipelineConfig(), grid=GridSpec(
        x_min=-12.8, x_max=12.8, y_min=-12.8, y_max=12.8))
    store32 = WeightStore.seeded(weight_layout(cfg), seed)
    store64 = WeightStore({n: a.astype(np.float64) for n, a in store32.items()})
    pipe32, pipe64 = DetectionPipeline(cfg, store32), DetectionPipeline(cfg, store64)
    grid_size = cfg.roi_grid_size
    worst = 0.0
    twins = total = 0
    for k in range(scenes):
        cloud, _ = generate_scene(SceneSpec(seed=scene_seed(seed, k)), cfg.grid)
        r32, r64 = pipe32.run(cloud), pipe64.run(cloud)
        rois = [d.box for d in r64.proposals]
        pairs = [(getattr(r32.heads[s], f), getattr(r64.heads[s], f))
                 for s in r64.heads for f in ("heatmap", "reg", "iou")]
        pairs += zip(
            rcnn_forward(rois, r32.pooling_map, cfg.grid, store32, grid_size),
            rcnn_forward(rois, r64.pooling_map, cfg.grid, store64, grid_size))
        for a, b in pairs:
            if a.dtype != np.float32 or b.dtype != np.float64:
                worst = math.inf
            elif a.size:
                worst = max(worst, float(np.abs(a - b).max()))

        dets32, dets64 = r32.detections, r64.detections
        rows64 = np.array([_detection_row(d) for d in dets64]).reshape(-1, 8)
        cls64 = np.array([d.class_id for d in dets64])
        for d in dets32:
            near = np.abs(rows64 - _detection_row(d)).max(axis=1) <= 1e-3
            twins += bool(np.any(near & (cls64 == d.class_id)))
        total += len(dets32)
    return SuiteResult("float32", worst <= 1e-6, worst,
                       f"{scenes} scenes, head maps + R-CNN at fixed proposals",
                       f"max abs diff {worst:.2e}; {twins}/{total} detections "
                       "with a float64 twin within 1e-3")


def run_all() -> list[SuiteResult]:
    return [
        geometry_suite(),
        sparse_dense_suite(),
        split_lateral_suite(),
        pooling_at_cells_suite(),
        nms_suite(),
        bilinear_suite(),
        aux_label_suite(),
        float32_suite(),
    ]
