"""Compute precision: maps follow the weights' dtype, boxes stay float64.

Float32 weights (archives, seeded stores) give float32 maps end to end;
float64 weights give float64 maps through the same kernels, and mixed
inputs promote to float64. Geometry never leaves float64.
"""

import numpy as np
import pytest

from conftest import SMALL_CONFIG_DICT
from pillardet import fileio, pipeline, rcnn
from pillardet.config import config_from_dict, weight_layout
from pillardet.fpn import LateralMap
from pillardet.grid import (DenseFeatureMap, GridSpec, PointCloud,
                            SparsePillarVolume, conv3x3_at, deconv2x2,
                            deconv2x2_at, dense_conv2d, densify, gemm_rows,
                            pillarize, sparse_conv2d)
from pillardet.pipeline import DetectionPipeline
from pillardet.rcnn import bilinear_sample
from pillardet.synth import SceneSpec, generate_scene
from pillardet.verify import random_volume
from pillardet.weights import WeightStore, as_float

F32, F64 = np.float32, np.float64
# (feature dtype, weight dtype) -> output dtype
PROMOTION = [(F32, F32, F32), (F32, F64, F64), (F64, F32, F64), (F64, F64, F64)]


def normal(rng, shape, dtype):
    return rng.normal(size=shape).astype(dtype)


def volume(rng, dtype, nx=8, ny=6, channels=3):
    v = random_volume(rng, nx, ny, channels)
    return SparsePillarVolume(1, nx, ny, v.coords, v.features.astype(dtype))


def run_dense_conv(rng, feat, weight, stride):
    return dense_conv2d(normal(rng, (7, 5, 3), feat),
                        normal(rng, (3, 3, 3, 2), weight),
                        normal(rng, 2, weight), stride=stride)


def run_deconv(rng, feat, weight):
    return deconv2x2(normal(rng, (3, 4, 3), feat),
                     normal(rng, (2, 2, 3, 2), weight), normal(rng, 2, weight))


def run_deconv_at(rng, feat, weight):
    return deconv2x2_at(normal(rng, (3, 4, 3), feat),
                        normal(rng, (2, 2, 3, 2), weight),
                        normal(rng, 2, weight), np.array([0, 5, 3]),
                        np.array([7, 0, 2]))


def run_sparse_conv(rng, feat, weight, stride, submanifold):
    return sparse_conv2d(volume(rng, feat), normal(rng, (3, 3, 3, 2), weight),
                         normal(rng, 2, weight), stride=stride,
                         submanifold=submanifold).features


def run_conv_at(rng, feat, weight):
    return conv3x3_at(volume(rng, feat), normal(rng, (3, 3, 3, 2), weight),
                      np.array([0, 7, 8, 30, 47]))


def run_gemm_rows(rng, feat, weight, index=None):
    x = normal(rng, (4, 3), feat)
    k = 3 if index is None else 3 * index.shape[1]
    return gemm_rows(x, normal(rng, (k, 2), weight), normal(rng, 2, weight), index)


def lateral_map(rng, feat, weight):
    return LateralMap(DenseFeatureMap(2, normal(rng, (3, 4, 2), feat)),
                      (volume(rng, feat),), normal(rng, (2, 2, 2, 2), weight),
                      normal(rng, 2, weight), normal(rng, (3, 3, 5, 2), weight),
                      normal(rng, 2, weight))


def run_lateral_map_dense(rng, feat, weight):
    lm = lateral_map(rng, feat, weight)
    out = lm.dense().data
    assert lm.dtype == out.dtype
    return out


def run_lateral_map_at(rng, feat, weight):
    lm = lateral_map(rng, feat, weight)
    out = lm.at(np.array([0, 5, 2, 2]), np.array([7, 0, 3, 3]))
    assert lm.dtype == out.dtype
    return out


KERNELS = {
    "dense_conv2d-s1": lambda rng, f, w: run_dense_conv(rng, f, w, 1),
    "dense_conv2d-s2": lambda rng, f, w: run_dense_conv(rng, f, w, 2),
    "deconv2x2": run_deconv,
    "deconv2x2_at": run_deconv_at,
    "sparse_conv2d-subm": lambda rng, f, w: run_sparse_conv(rng, f, w, 1, True),
    "sparse_conv2d-s2": lambda rng, f, w: run_sparse_conv(rng, f, w, 2, False),
    "conv3x3_at": run_conv_at,
    "gemm_rows": run_gemm_rows,
    "gemm_rows-index": lambda rng, f, w: run_gemm_rows(
        rng, f, w, np.array([[0, 3], [2, 2], [1, 0]])),
    "LateralMap.dense": run_lateral_map_dense,
    "LateralMap.at": run_lateral_map_at,
}


class TestKernelDtypes:
    @pytest.mark.parametrize("feat,weight,want", PROMOTION)
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_output_in_the_promoted_dtype(self, kernel, feat, weight, want):
        out = KERNELS[kernel](np.random.default_rng(0), feat, weight)
        assert out.dtype == want

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_float32_matches_float64_to_its_rounding(self, kernel):
        f32 = KERNELS[kernel](np.random.default_rng(1), F32, F32)
        f64 = KERNELS[kernel](np.random.default_rng(1), F32, F64)
        np.testing.assert_allclose(f32, f64, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("dtype", [F32, F64])
    def test_densify_keeps_the_feature_dtype(self, dtype):
        v = volume(np.random.default_rng(2), dtype)
        assert densify(v).data.dtype == dtype
        assert densify(SparsePillarVolume.empty(1, 4, 4, 2, dtype)).data.dtype == dtype

    @pytest.mark.parametrize("dtype", [F32, F64])
    def test_bilinear_blend_in_the_map_dtype(self, dtype):
        spec = GridSpec(x_min=0.0, x_max=0.8, y_min=0.0, y_max=0.8,
                        z_min=0.0, z_max=1.0, pillar_size=0.1)
        m = DenseFeatureMap(1, normal(np.random.default_rng(3), (8, 8, 2), dtype))
        pts = np.array([[0.33, 0.41], [-5.0, 0.2], [0.79, 0.01]])
        out, _ = bilinear_sample(m, spec, pts)
        assert out.dtype == dtype

    @pytest.mark.parametrize("dtype", [F32, F64])
    def test_pillar_features_in_the_weights_dtype(self, dtype):
        spec = GridSpec(x_min=0.0, x_max=1.6, y_min=0.0, y_max=1.6,
                        z_min=0.0, z_max=1.0, pillar_size=0.1)
        store = WeightStore.seeded({"pfe.linear.w": (4, 3),
                                    "pfe.linear.b": (3,)}, 0)
        store = WeightStore({n: a.astype(dtype) for n, a in store.items()})
        cloud = PointCloud(np.array([[0.15, 0.25, 0.5, 0.3],
                                     [1.05, 0.75, 0.2, 0.9]]))
        assert pillarize(cloud, spec, store).features.dtype == dtype
        assert pillarize(PointCloud.empty(), spec, store).features.dtype == dtype


class TestDtypeRule:
    @pytest.mark.parametrize("arr,want", [
        (np.ones(3, F32), F32), (np.ones(3, F64), F64),
        (np.ones(3, np.float16), F64), (np.ones(3, np.int64), F64),
        ([1, 2, 3], F64)])
    def test_float32_kept_anything_else_float64(self, arr, want):
        assert as_float(arr).dtype == want
        assert WeightStore({"t": arr}).get("t").dtype == want
        feats = np.reshape(arr, (3, 1))
        v = SparsePillarVolume(1, 3, 1, np.array([[0, 0], [1, 0], [2, 0]]), feats)
        assert v.features.dtype == want
        assert DenseFeatureMap(1, np.reshape(arr, (1, 3, 1))).data.dtype == want

    def test_float32_array_is_not_copied(self):
        a = np.ones(3, F32)
        assert as_float(a) is a

    def test_seeded_store_is_the_float64_draws_rounded(self):
        layout = {"a.w": (3, 3, 2, 4), "a.b": (4,), "m.w": (8, 2)}
        store = WeightStore.seeded(layout, 5)
        rng = np.random.default_rng(5)
        for name in sorted(layout):
            k = 1.0 / np.sqrt(18 if name.startswith("a.") else 8)
            draws = rng.uniform(-k, k, size=layout[name])
            assert store.get(name).dtype == F32
            np.testing.assert_array_equal(store.get(name), draws.astype(F32))


def small_scene(config, seed=3):
    cloud, _ = generate_scene(SceneSpec(seed=seed), config.grid)
    return cloud


def capture(monkeypatch, seen, module, name):
    """Record the last result of ``module.name`` in ``seen[name]``."""
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        seen[name] = out = fn(*args, **kwargs)
        return out

    monkeypatch.setattr(module, name, wrapped)


class TestPipelinePrecision:
    def test_every_stage_map_is_float32(self, monkeypatch, small_config):
        # one stray float64 allocation would promote every later stage
        seen = {}
        for name in ("pillarize", "backbone_forward", "build_pyramid",
                     "rpn_forward", "build_pooling_map"):
            capture(monkeypatch, seen, pipeline, name)
        capture(monkeypatch, seen, rcnn, "rcnn_forward")
        result = DetectionPipeline(small_config).run(small_scene(small_config))
        assert result.detections

        backbone = seen["backbone_forward"]
        maps = {"pillars": seen["pillarize"].features,
                "C5": backbone.c5.data, "pool": seen["build_pooling_map"]}
        for i in (1, 2, 3, 4):
            maps[f"C{i}"] = getattr(backbone, f"c{i}").features
        for stride, level in seen["build_pyramid"].items():
            maps[f"P@{stride}"] = level.data
        for stride, head in seen["rpn_forward"].items():
            for field in ("heatmap", "reg", "iou"):
                maps[f"{field}@{stride}"] = getattr(head, field)
        for name, out in zip(("logits", "residuals", "pooled"),
                             seen["rcnn_forward"]):
            maps[name] = out
        for name, m in maps.items():
            assert m.dtype == F32, name

    def test_boxes_and_scores_are_python_floats(self, small_config):
        result = DetectionPipeline(small_config).run(small_scene(small_config))
        assert result.detections and result.proposals
        for d in result.proposals + result.detections:
            b = d.box
            values = (b.cx, b.cy, b.cz, b.length, b.width, b.height, b.yaw,
                      d.score, d.iou_score, d.rectified_score)
            assert all(type(v) is float for v in values), d

    def test_float64_store_computes_in_float64(self, monkeypatch, small_config):
        store = DetectionPipeline(small_config).weights
        store64 = WeightStore({n: a.astype(F64) for n, a in store.items()})
        seen = {}
        capture(monkeypatch, seen, pipeline, "rpn_forward")
        capture(monkeypatch, seen, rcnn, "rcnn_forward")
        result = DetectionPipeline(small_config, store64).run(
            small_scene(small_config))
        assert result.detections
        assert all(h.heatmap.dtype == F64 for h in seen["rpn_forward"].values())
        assert all(out.dtype == F64 for out in seen["rcnn_forward"])


def test_seeded_weights_survive_a_weight_archive_round_trip(tmp_path):
    # a +-25.6 m scene: seeded float64 draws saved as f4 used to load back
    # as different weights, and so give different detections
    config = config_from_dict({**SMALL_CONFIG_DICT, "grid": {
        **SMALL_CONFIG_DICT["grid"], "x_min": -25.6, "x_max": 25.6,
        "y_min": -25.6, "y_max": 25.6}})
    store = WeightStore.seeded(weight_layout(config), config.seed)
    path = str(tmp_path / "seeded.pwt")
    fileio.save_weights(path, store)
    loaded = fileio.load_weights(path)
    assert loaded.names() == store.names()
    for name in store.names():
        a, b = store.get(name), loaded.get(name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    cloud = small_scene(config, seed=11)
    texts = [fileio.format_detections(DetectionPipeline(config, s).run(cloud)
                                      .detections) for s in (store, loaded)]
    assert texts[0] and texts[0] == texts[1]
