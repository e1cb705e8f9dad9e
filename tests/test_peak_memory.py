"""Peak memory of the dense tail on a full-range scene, and the lifetime of
the pyramid levels in a pipeline run."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import SMALL_CONFIG_DICT
from pillardet import pipeline
from pillardet.config import PipelineConfig, config_from_dict
from pillardet.fpn import LateralMap, build_pyramid
from pillardet.grid import (DenseFeatureMap, PointCloud, SparsePillarVolume,
                            backbone_forward, pillarize, reached_cells)
from pillardet.pipeline import DetectionPipeline
from pillardet.rpn import rpn_forward
from pillardet.synth import SceneSpec, generate_scene


@pytest.fixture(scope="module")
def full_range():
    cfg = PipelineConfig()
    weights = DetectionPipeline(cfg).weights
    cloud, _ = generate_scene(SceneSpec(seed=5), cfg.grid)
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
    assert transient < up // 2


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
    rng = np.random.default_rng(pool_stride)
    g = cfg.grid
    pts = np.column_stack([rng.uniform(g.x_min, g.x_max, 400),
                           rng.uniform(g.y_min, g.y_max, 400),
                           rng.uniform(0.0, 2.0, 400), rng.random(400)])
    DetectionPipeline(cfg).run(PointCloud(pts))
    assert set(levels) == {4, 8}
    assert alive_at_refine == [kept]
