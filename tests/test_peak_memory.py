"""Peak memory of the dense tail on a full-range scene, and the lifetime of
the pillar volume, the backbone levels and the pyramid levels in a pipeline
run."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import SMALL_CONFIG_DICT
from pillardet import pipeline
from pillardet.config import PipelineConfig, config_from_dict, weight_layout
from pillardet.fpn import LateralMap, _pack_strips, build_pyramid
from pillardet.geometry import Box3D
from pillardet.grid import (DenseFeatureMap, GridSpec, PointCloud,
                            SparsePillarVolume, backbone_forward, pillarize,
                            reached_cells)
from pillardet.pipeline import DetectionPipeline
from pillardet.rcnn import pool_roi_features, rcnn_forward
from pillardet.rpn import rpn_forward
from pillardet.synth import SceneSpec, generate_scene
from pillardet.weights import WeightStore


@pytest.fixture(scope="module")
def full_range_scene():
    cfg = PipelineConfig()
    weights = DetectionPipeline(cfg).weights
    cloud, _ = generate_scene(SceneSpec(seed=5), cfg.grid)
    return cfg, weights, cloud


@pytest.fixture(scope="module")
def full_range(full_range_scene):
    cfg, weights, cloud = full_range_scene
    backbone = backbone_forward(pillarize(cloud, cfg.grid, weights), weights,
                                cfg.backbone_channels)
    return cfg, weights, backbone


def transient_peak(fn):
    """``fn()`` and the most NumPy memory it held beyond what it returned:
    the traced peak less what is still allocated when it ends."""
    tracemalloc.start()
    try:
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - current


def test_pyramid_never_holds_a_whole_upsampled_map(full_range):
    cfg, weights, backbone = full_range
    pyramid, transient = transient_peak(lambda: build_pyramid(backbone, weights))
    p3 = pyramid[4].data
    # the P3 lateral's upsampled half: 376 x 376 x 128 float32, 72 MB
    up = (p3.shape[0] * p3.shape[1] * weights.get("neck.p3.deconv.w").shape[3]
          * p3.itemsize)
    assert up >= 64 << 20
    # one chunk of the upsampled rows, the conv's planes of it, the
    # bottom-up conv rows and C3's feature copy and neighbour index: 16.4 MB
    # measured (20.7 MB when the deconvolved rows were held three times)
    assert transient < up // 4


def test_heads_never_hold_a_whole_shared_map(full_range):
    cfg, weights, backbone = full_range
    pyramid = build_pyramid(backbone, weights)
    _, transient = transient_peak(
        lambda: rpn_forward(pyramid, weights, cfg.level_classes))
    p3 = pyramid[4].data
    # the stride-4 head's shared map: 376 x 376 x 64 float32, 36 MB
    shared = (p3.shape[0] * p3.shape[1] * weights.get("rpn.s4.shared.w").shape[3]
              * p3.itemsize)
    assert shared >= 32 << 20
    assert transient < shared // 2


def test_lateral_holds_under_half_a_map_beyond_its_output():
    # a site on every third row and column reaches every cell of the
    # 256 x 256 x 128 float32 map (32 MB): adding its conv at all reached
    # cells at once would hold their gathered map rows and conv rows
    rng = np.random.default_rng(8)
    h = w = 256
    c_sem = c_up = 8
    c_bu, c_out = 16, 128
    keys = (np.arange(0, w, 3)[:, None] * h + np.arange(0, h, 3)).ravel()
    volume = SparsePillarVolume(
        4, w, h, np.stack([keys // h, keys % h], axis=1),
        rng.standard_normal((len(keys), c_bu), dtype=np.float32))
    assert len(reached_cells(volume)) == h * w
    f32 = lambda *shape: rng.standard_normal(shape, dtype=np.float32)
    lateral = LateralMap(
        DenseFeatureMap(8, f32(h // 2, w // 2, c_sem)), (volume,),
        f32(2, 2, c_sem, c_up), f32(c_up), f32(3, 3, c_up + c_bu, c_out),
        f32(c_out))
    out, transient = transient_peak(lateral.dense)
    assert out.data.nbytes == h * w * c_out * 4
    assert transient < out.data.nbytes // 2


def test_lateral_at_holds_under_half_a_canvas_beyond_its_result():
    # every second column of a 256 x 256 map with 128 upsampled channels:
    # one strip of the map's width per band of four rows, a 51 MB float32
    # canvas of strips side by side; the canvas lines are deconvolved as
    # the conv's chunks reach them and only the asked cells' rows are kept
    rng = np.random.default_rng(9)
    h = w = 256
    c_sem, c_up, c_bu, c_out = 8, 128, 16, 16
    keys = (np.arange(0, w, 5)[:, None] * h + np.arange(0, h, 5)).ravel()
    volume = SparsePillarVolume(
        4, w, h, np.stack([keys // h, keys % h], axis=1),
        rng.standard_normal((len(keys), c_bu), dtype=np.float32))
    f32 = lambda *shape: rng.standard_normal(shape, dtype=np.float32)
    lateral = LateralMap(
        DenseFeatureMap(8, f32(h // 2, w // 2, c_sem)), (volume,),
        f32(2, 2, c_sem, c_up), f32(c_up), f32(3, 3, c_up + c_bu, c_out),
        f32(c_out))
    iy, ix = np.meshgrid(np.arange(h), np.arange(0, w, 2), indexing="ij")
    iy, ix = iy.ravel(), ix.ravel()
    # the canvas of the strips side by side, as one array
    canvas = _pack_strips(iy, ix)[2].sum() * (4 + 2) * c_up * 4
    assert canvas >= 48 << 20
    out, transient = transient_peak(lambda: lateral.at(iy, ix))
    assert out.shape == (len(iy), c_out)
    # the window's lines and the conv's planes of a chunk, one band of
    # parents' deconvolved cells and the bottom-up conv rows: 14.0 MB measured
    # (137.5 MB with the whole canvas, its conv and a (K, C) sum)
    assert transient < canvas // 2


def test_rcnn_forward_holds_no_second_copy_of_the_pooled_features():
    # 600 RoIs of 7 x 7 x 128 float32 features (15 MB): fc1 reads them
    # where they are pooled, in whole 512-RoI bands, and no padded copy
    # of a band (12.8 MB) is made
    cfg = PipelineConfig()
    weights = WeightStore.seeded(weight_layout(cfg), 0)
    spec = GridSpec(x_min=-12.8, x_max=12.8, y_min=-12.8, y_max=12.8)
    rng = np.random.default_rng(10)
    m = DenseFeatureMap(4, rng.standard_normal((64, 64, cfg.pool_channels),
                                               dtype=np.float32))
    rois = [Box3D(x, y, 0.0, 4.0, 1.8, 1.6, yaw) for x, y, yaw in
            zip(rng.uniform(-10, 10, 600), rng.uniform(-10, 10, 600),
                rng.uniform(-np.pi, np.pi, 600))]
    _, sampling = transient_peak(
        lambda: pool_roi_features(rois, m, spec, cfg.roi_grid_size))
    (_, _, pooled), transient = transient_peak(
        lambda: rcnn_forward(rois, m, spec, weights, cfg.roi_grid_size))
    assert pooled.shape == (600, 7, 7, cfg.pool_channels)
    band = 512 * pooled[0].nbytes
    assert band >= 12 << 20
    # the MLP's layer outputs are smaller than what pooling holds: the
    # two peaks were equal to 0.1 MB (6.7 MB apart with the padded copy)
    assert transient - sampling < band // 4


def small_scene_points(cfg, seed):
    rng = np.random.default_rng(seed)
    g = cfg.grid
    return PointCloud(np.column_stack([rng.uniform(g.x_min, g.x_max, 400),
                                       rng.uniform(g.y_min, g.y_max, 400),
                                       rng.uniform(0.0, 2.0, 400),
                                       rng.random(400)]))


@pytest.mark.parametrize("pool_stride, kept", [(2, {4}), (4, {8}), (8, set())])
def test_refine_runs_without_the_levels_the_pooling_map_does_not_read(
        monkeypatch, pool_stride, kept):
    cfg = config_from_dict({**SMALL_CONFIG_DICT, "pool_stride": pool_stride})
    levels = {}
    alive_at_refine = []
    build, refine = pipeline.build_pyramid, pipeline.refine

    def watched_build(*args):
        pyramid = build(*args)
        levels.update({s: weakref.ref(m) for s, m in pyramid.items()})
        return pyramid

    def watched_refine(*args):
        gc.collect()
        alive_at_refine.append({s for s, r in levels.items() if r() is not None})
        return refine(*args)

    monkeypatch.setattr(pipeline, "build_pyramid", watched_build)
    monkeypatch.setattr(pipeline, "refine", watched_refine)
    DetectionPipeline(cfg).run(small_scene_points(cfg, pool_stride))
    assert set(levels) == {4, 8}
    assert alive_at_refine == [kept]


@pytest.mark.parametrize("pool_stride", [2, 4, 8])
def test_c5_dies_before_p3_unless_the_pooling_map_reads_it(monkeypatch,
                                                            pool_stride):
    cfg = config_from_dict({**SMALL_CONFIG_DICT, "pool_stride": pool_stride})
    c5 = []
    alive = {}
    forward, dense = pipeline.backbone_forward, LateralMap.dense

    def watched_forward(*args):
        backbone = forward(*args)
        c5.append(weakref.ref(backbone.c5.data))
        return backbone

    def watched_dense(self):
        if self.stride == 4:  # P3, before its conv starts
            gc.collect()
            alive["P3"] = c5[0]() is not None
        return dense(self)

    monkeypatch.setattr(pipeline, "backbone_forward", watched_forward)
    monkeypatch.setattr(LateralMap, "dense", watched_dense)
    result = DetectionPipeline(cfg).run(small_scene_points(cfg, pool_stride))
    gc.collect()
    assert alive == {"P3": pool_stride == 8}
    # at pool stride 8 the pooling map deconvolves C5 itself
    assert (c5[0]() is not None) == (pool_stride == 8)
    if pool_stride == 8:
        assert result.pooling_map.semantic.data is c5[0]()


@pytest.mark.parametrize("override, read", [
    ({}, {4}),
    ({"pool_stride": 2}, {2}),
    ({"pool_bottom_up_strides": [1, 2, 4]}, {1, 2, 4}),
    ({"pool_stride": 8, "pool_bottom_up_strides": [8]}, {8}),
    ({"pool_bottom_up_strides": []}, set()),
], ids=["default", "pool-stride-2", "strides-1-2-4", "pool-stride-8",
        "semantics-only"])
def test_sparse_volumes_die_with_their_last_reader(monkeypatch, override,
                                                    read):
    # the pillar volume dies once the backbone has run; C1 and C2 unless
    # the pooling map reads them; C4 and C3 feed P4 and P3 and die once
    # those are built unless the pooling map reads them; refine runs with
    # the volumes the pooling map holds, those already at its stride
    cfg = config_from_dict({**SMALL_CONFIG_DICT, **override})
    volumes = {}
    alive = {}
    names = {1: "C1", 2: "C2", 4: "C3", 8: "C4"}

    def watched(name, fn, record=None):
        def call(*args):
            gc.collect()
            alive[name] = {n for n, r in volumes.items() if r() is not None}
            out = fn(*args)
            if record:
                record(out)
            return out
        monkeypatch.setattr(pipeline, name, call)

    watched("pillarize", pipeline.pillarize,
            lambda v: volumes.update(volume=weakref.ref(v)))
    watched("backbone_forward", pipeline.backbone_forward,
            lambda b: volumes.update({names[s]: weakref.ref(b.volume_at(s))
                                      for s in names}))
    watched("build_pyramid", pipeline.build_pyramid)
    watched("rpn_forward", pipeline.rpn_forward)
    watched("build_pooling_map", pipeline.build_pooling_map)
    watched("refine", pipeline.refine)
    dense = LateralMap.dense

    def watched_dense(self):
        if self.stride == 4:  # P3, before its conv starts
            gc.collect()
            alive["P3"] = {n for n, r in volumes.items() if r() is not None}
        return dense(self)

    monkeypatch.setattr(LateralMap, "dense", watched_dense)
    DetectionPipeline(cfg).run(small_scene_points(cfg, 3))
    kept = {names[s] for s in read}
    # C4 dies once P4 is built, before P3's build, unless the pooling map
    # reads it (pool stride 8 with [8])
    assert alive == {"pillarize": set(), "backbone_forward": {"volume"},
                     "build_pyramid": kept | {"C3", "C4"}, "P3": kept | {"C3"},
                     "rpn_forward": kept, "build_pooling_map": kept,
                     "refine": {names[s] for s in read if s == cfg.pool_stride}}


def test_a_full_range_run_holds_p3_p4_and_under_24_mb_more(full_range_scene):
    # C5 (9 MB) dies once P4 is built, and a lateral's upsampled rows are
    # held once: the run held P3 + P4 + 19.6 MB (20.2 MB with the pillar
    # volume, C1 and C2 kept to the end, 33.8 MB with C5 kept too and each
    # upsampled chunk held three times); the rest is C3 and C4, one conv
    # chunk and the bottom-up conv rows
    cfg, weights, cloud = full_range_scene
    run = DetectionPipeline(cfg, weights).run
    # P3 and P4: 376 x 376 and 188 x 188 x 128 float32, 90.5 MB
    levels = sum((cfg.grid.ny // s) * (cfg.grid.nx // s) * 4
                 * weights.get(f"neck.p{s.bit_length()}.conv.w").shape[3]
                 for s in (4, 8))
    assert levels > 86 << 20
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < levels + (24 << 20)
