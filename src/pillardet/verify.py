"""Self-check suites comparing fast paths against brute-force oracles.

Shipped with the library (not only the test tree) so a deployment can
re-run the correctness gates in the field: rotated IoU against Monte
Carlo, sparse against dense convolution, whole lateral maps and their
values at chosen cells against a per-pixel deconvolution, concatenation
and convolution, greedy against exhaustive NMS, analytic against
finite-difference bilinear gradients, segmentation labels against direct
point-in-rect evaluation, and the float32 pipeline against its float64
upcast. Budgets are fixed; everything is seeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (Box3D, RotatedRect2D, iou_3d, project_to_bev,
                       rotated_iou_bev)
from .config import PipelineConfig, weight_layout
from .fpn import LateralMap, build_pooling_map, build_pyramid
from .grid import (DenseFeatureMap, GridSpec, SparsePillarVolume,
                   backbone_forward, densify, pillarize, relu, sparse_conv2d)
from .oracles import dense_conv_reference, exhaustive_nms, mc_rotated_iou
from .pipeline import DetectionPipeline
from .rcnn import aux_seg_labels, bilinear_sample, rcnn_forward
from .rpn import (Detection, decode_proposals, nms_3d, rectify_detections,
                  rpn_forward)
from .synth import SceneSpec, generate_scene, scene_seed
from .weights import WeightStore


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_error: float
    budget: str
    detail: str = ""


def random_rect(rng: np.random.Generator, span: float = 3.0) -> RotatedRect2D:
    return RotatedRect2D(rng.uniform(-span, span), rng.uniform(-span, span),
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


def geometry_suite(pairs: int = 150, samples: int = 1_000_000,
                   seed: int = 0, tolerance: float = 3e-3) -> SuiteResult:
    """Clipping IoU vs Monte Carlo, plus symmetry and rigid invariance."""
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
    passed = max_mc <= tolerance and max_sym == 0.0 and max_rigid <= 1e-9
    return SuiteResult("geometry-mc-iou", passed, max(max_mc, max_rigid),
                       f"{pairs} pairs x {samples} samples",
                       f"mc={max_mc:.2e} sym={max_sym:.2e} rigid={max_rigid:.2e}")


def sparse_dense_suite(volumes: int = 40, seed: int = 1,
                       tolerance: float = 1e-5,
                       corrupt: bool = False) -> SuiteResult:
    """Densified sparse convolution vs the per-pixel dense reference.

    Each layer type runs on ``volumes`` 16x16 volumes, then on one 64x64
    volume whose output cells fill more than one GEMM band of the sparse
    conv. ``corrupt`` perturbs one kernel weight on the sparse side only —
    a negative control that must make the suite fail.
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
        w_sparse = w.copy()
        if corrupt:
            w_sparse[1, 1, 0, 0] += 1e-3
        out = sparse_conv2d(v, w_sparse, np.zeros(c_out), stride=stride,
                            submanifold=subm)
        ref = dense_conv_reference(densify(v).data, w, stride=stride)
        if subm:
            mask = np.zeros(ref.shape[:2], dtype=bool)
            mask[v.coords[:, 1], v.coords[:, 0]] = True
            ref = ref * mask[:, :, None]
        worst = max(worst, float(np.abs(densify(out).data - ref).max()))
    return SuiteResult("sparse-dense-conv", worst < tolerance, worst,
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


def _deconv_per_pixel(data: np.ndarray, weight: np.ndarray,
                      bias: np.ndarray) -> np.ndarray:
    """2x2 stride-2 transposed conv, one output pixel at a time."""
    h, w, _ = data.shape
    out = np.empty((2 * h, 2 * w, weight.shape[3]))
    for y in range(2 * h):
        for x in range(2 * w):
            out[y, x] = data[y // 2, x // 2] @ weight[y % 2, x % 2] + bias
    return out


def lateral_case(rng: np.random.Generator, hs: int, ws: int, c_up: int,
                 vols: list[SparsePillarVolume],
                 corrupt_channel: int | None = None):
    """A random lateral map over ``vols`` and its per-pixel reference.

    The semantic map is ``hs`` x ``ws`` cells of random features. The
    reference deconvolves it pixel by pixel, concatenates the densified
    volumes and convolves per pixel. ``corrupt_channel`` perturbs that
    input channel's kernel weight on the map's side only.
    """
    c_sem, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    semantic = rng.normal(size=(hs, ws, c_sem))
    deconv_w = rng.normal(size=(2, 2, c_sem, c_up))
    deconv_b = rng.normal(size=c_up)
    c_in = c_up + sum(v.channels for v in vols)
    conv_w = rng.normal(size=(3, 3, c_in, c_out))
    conv_b = rng.normal(size=c_out)
    w_map = conv_w.copy()
    if corrupt_channel is not None:
        w_map[1, 1, corrupt_channel, 0] += 1e-3
    lateral_map = LateralMap(DenseFeatureMap(2, semantic), tuple(vols),
                             deconv_w, deconv_b, w_map, conv_b)
    up = relu(_deconv_per_pixel(semantic, deconv_w, deconv_b))
    merged = np.concatenate([up] + [densify(v).data for v in vols], axis=-1)
    return lateral_map, relu(dense_conv_reference(merged, conv_w) + conv_b)


def _max_abs_diff(got: np.ndarray, ref: np.ndarray) -> float:
    if got.shape != ref.shape:
        return math.inf
    return float(np.abs(got - ref).max(initial=0.0))


def split_lateral_suite(maps: int = 40, seed: int = 5,
                        tolerance: float = 1e-5,
                        corrupt: bool = False) -> SuiteResult:
    """The whole lateral map, :meth:`LateralMap.dense`, vs the per-pixel
    reference of :func:`lateral_case`.

    Each of ``maps`` maps, 2 to 14 cells a side, has one or two bottom-up
    volumes, each random, empty or touching only the map border. Then come
    one 48x40 map with a random volume whose reached cells fill more than
    one GEMM band of the sparse conv, and one 48x48 map with 512 upsampled
    channels, read in three dense-conv chunks. ``corrupt`` perturbs one
    bottom-up kernel weight on the map's side only, a negative control
    that must make the suite fail.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(maps + 2):
        if k < maps:
            hs, ws = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            c_up = int(rng.integers(1, 5))
        elif k == maps:
            hs, ws, c_up = 24, 20, int(rng.integers(1, 5))
        else:  # 20-row chunks of about 4 MiB of float64 input
            hs, ws, c_up = 24, 24, 512
        vols = ([random_volume(rng, 2 * ws, 2 * hs, int(rng.integers(1, 4)), 0.1)]
                if k == maps else bottom_up_volumes(rng, k, 2 * ws, 2 * hs))
        lateral_map, ref = lateral_case(rng, hs, ws, c_up, vols,
                                        c_up if corrupt else None)
        worst = max(worst, _max_abs_diff(lateral_map.dense().data, ref))
    return SuiteResult("split-lateral", worst < tolerance, worst,
                       f"{maps} maps, random/empty/border volumes + 1 "
                       "multi-band + 1 multi-chunk",
                       f"max abs diff {worst:.2e}")


def pooling_at_cells_suite(maps: int = 40, seed: int = 6,
                           tolerance: float = 1e-5,
                           corrupt: bool = False) -> SuiteResult:
    """Lateral map values at chosen cells, :meth:`LateralMap.at`, vs the
    per-pixel reference of :func:`lateral_case`.

    Cell sets are by turns a random subset with repeats, the border ring,
    every cell, no cell and every fourth column of a 64x64 map (256
    single-column strips in one canvas); volumes are as in the
    split-lateral suite. The last map has the shape of that suite's
    multi-chunk one: 48x48 with 512 upsampled channels. ``corrupt``
    perturbs one upsampled-half kernel weight on the map's side only, a
    negative control that must make the suite fail.
    """
    rng = np.random.default_rng(seed)
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
        lateral_map, ref = lateral_case(rng, hs, ws, c_up, vols,
                                        0 if corrupt else None)
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
    return SuiteResult("pooling-at-cells", worst < tolerance, worst,
                       f"{maps} maps, random/border/all/no/strided cells "
                       "+ 1 multi-chunk",
                       f"max abs diff {worst:.2e}")


def nms_suite(scenes: int = 30, boxes_per_scene: int = 60,
              seed: int = 2) -> SuiteResult:
    """Greedy NMS must match the exhaustive-matrix oracle exactly."""
    rng = np.random.default_rng(seed)
    thresholds = {0: 0.8, 1: 0.55, 2: 0.55}
    mismatches = 0
    for _ in range(scenes):
        dets = []
        for _ in range(boxes_per_scene):
            box = random_box(rng)
            class_id = int(rng.integers(0, 3))
            score = float(rng.random())
            dets.append(Detection(Box3D(box.cx, box.cy, box.cz, box.length,
                                        box.width, box.height, box.yaw,
                                        class_id=class_id),
                                  class_id, score, iou_score=score))
        fast = nms_3d(dets, thresholds)
        slow = exhaustive_nms(dets, thresholds, iou_3d)
        if [id(d) for d in fast] != [id(d) for d in slow]:
            mismatches += 1
    return SuiteResult("nms-brute-force", mismatches == 0, float(mismatches),
                       f"{scenes} scenes x {boxes_per_scene} boxes",
                       f"{mismatches} mismatching scenes")


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


def bilinear_suite(samples: int = 200, seed: int = 3,
                   tolerance: float = 1e-4) -> SuiteResult:
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
    return SuiteResult("bilinear-fd-grad", worst < tolerance, worst,
                       f"{samples} random (map, point) pairs",
                       f"max rel err {worst:.2e}")


def _inside_ccw(p: tuple[float, float],
                corners: list[tuple[float, float]]) -> bool:
    """``p`` is on the left of (or on) every edge of a CCW polygon."""
    return all((bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) >= 0.0
               for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]))


def aux_label_suite(rois: int = 100, seed: int = 4) -> SuiteResult:
    """Grid-point labels vs an independent rebuild of each label.

    Each grid point is placed from the RoI's center, yaw and the cell
    offset (i + 0.5) / G directly, and tested against the ground-truth
    footprints' corners by edge cross products, so neither the RoI grid
    nor the containment test of the labelled code is reused.
    """
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(rois):
        roi = random_box(rng, span=6.0)
        gts = [random_box(rng, span=6.0) for _ in range(int(rng.integers(1, 4)))]
        g = int(rng.integers(1, 9))
        labels = aux_seg_labels([roi], gts, g)[0]
        footprints = [project_to_bev(b).corners() for b in gts]
        c, s = math.cos(roi.yaw), math.sin(roi.yaw)
        for i in range(g):
            for j in range(g):
                lx = ((i + 0.5) / g - 0.5) * roi.length
                ly = ((j + 0.5) / g - 0.5) * roi.width
                p = (roi.cx + c * lx - s * ly, roi.cy + s * lx + c * ly)
                inside = any(_inside_ccw(p, f) for f in footprints)
                if bool(labels[i, j]) != inside:
                    mismatches += 1
    return SuiteResult("aux-seg-labels", mismatches == 0, float(mismatches),
                       f"{rois} RoIs", f"{mismatches} mismatching grid points")


def _detection_row(d: Detection) -> list[float]:
    b = d.box
    return [b.cx, b.cy, b.cz, b.length, b.width, b.height, b.yaw, d.score]


def float32_suite(scenes: int = 2, seed: int = 7, tolerance: float = 1e-6,
                  corrupt: bool = False) -> SuiteResult:
    """The float32 pipeline vs its float64 upcast, through the same code.

    The default config on a +-12.8 m grid runs with a seeded float32 store
    and with the same values upcast to float64, so the two differ only in
    the rounding of their maps. At identical inputs the suite compares the
    head maps, then the pooled features, logits and residuals of one fixed
    proposal list (the float64 run's): every value must agree within
    ``tolerance`` absolute, about eight float32 ulps of 1 (heatmaps lie in
    [0, 1], the pooled features and R-CNN outputs below it). The share of
    float32 detections with a float64 twin (same class, every box field
    and score within 1e-3) is reported, not gated: near-tied peaks of
    seeded weights may swap at the top-k cut. ``corrupt`` perturbs one
    heatmap bias on the float32 side only, a negative control that must
    make the suite fail.
    """
    cfg = replace(PipelineConfig(), grid=GridSpec(
        x_min=-12.8, x_max=12.8, y_min=-12.8, y_max=12.8))
    store32 = WeightStore.seeded(weight_layout(cfg), seed)
    store64 = WeightStore({n: a.astype(np.float64) for n, a in store32.items()})
    if corrupt:
        tensors = dict(store32.items())
        tensors["rpn.s4.hm.b"] = tensors["rpn.s4.hm.b"] + np.float32(1e-3)
        store32 = WeightStore(tensors)
    grid_size = cfg.roi_grid_size
    worst = 0.0
    twins = total = 0
    for k in range(scenes):
        cloud, _ = generate_scene(SceneSpec(seed=scene_seed(seed, k)), cfg.grid)
        runs = []
        for store in (store32, store64):
            backbone = backbone_forward(pillarize(cloud, cfg.grid, store), store,
                                        cfg.backbone_channels)
            pyramid = build_pyramid(backbone, store)
            heads = rpn_forward(pyramid, store, cfg.level_classes)
            pool = build_pooling_map(backbone, pyramid, store, cfg.pool_stride,
                                     cfg.bottom_up_strides)
            runs.append((store, heads, pool))
        (s32, h32, p32), (s64, h64, p64) = runs
        proposals = nms_3d(rectify_detections(
            decode_proposals(h64, cfg.grid, cfg.top_k), cfg.beta), cfg.nms_iou)
        rois = [d.box for d in proposals]
        pairs = [(getattr(h32[s], f), getattr(h64[s], f))
                 for s in h64 for f in ("heatmap", "reg", "iou")]
        pairs += zip(rcnn_forward(rois, p32, cfg.grid, s32, grid_size),
                     rcnn_forward(rois, p64, cfg.grid, s64, grid_size))
        for a, b in pairs:
            if a.dtype != np.float32 or b.dtype != np.float64:
                worst = math.inf
            elif a.size:
                worst = max(worst, float(np.abs(a - b).max()))

        dets32 = DetectionPipeline(cfg, store32).run(cloud).detections
        dets64 = DetectionPipeline(cfg, store64).run(cloud).detections
        rows64 = np.array([_detection_row(d) for d in dets64]).reshape(-1, 8)
        cls64 = np.array([d.class_id for d in dets64])
        for d in dets32:
            near = np.abs(rows64 - _detection_row(d)).max(axis=1) <= 1e-3
            twins += bool(np.any(near & (cls64 == d.class_id)))
        total += len(dets32)
    return SuiteResult("float32", worst <= tolerance, worst,
                       f"{scenes} scenes, head maps + R-CNN at fixed proposals",
                       f"max abs diff {worst:.2e}; {twins}/{total} detections "
                       "with a float64 twin within 1e-3")


def run_all(corrupt: bool = False) -> list[SuiteResult]:
    return [
        geometry_suite(),
        sparse_dense_suite(corrupt=corrupt),
        split_lateral_suite(corrupt=corrupt),
        pooling_at_cells_suite(corrupt=corrupt),
        nms_suite(),
        bilinear_suite(),
        aux_label_suite(),
        float32_suite(corrupt=corrupt),
    ]
