"""One wiring of the forward pass: ``DetectionPipeline.run`` hands back the
head maps and the pooling map its later stages read, and the float32
verify suite compares those, not a wiring of its own."""

from dataclasses import replace

import numpy as np

from conftest import SMALL_CONFIG_DICT
from pillardet import pipeline
from pillardet.config import config_from_dict
from pillardet.fileio import format_detections
from pillardet.fpn import LateralMap
from pillardet.pipeline import DetectionPipeline
from pillardet.synth import SceneSpec, generate_scene
from pillardet.verify import float32_suite


def spy(monkeypatch, seen, name, index):
    """Record argument ``index`` of each ``pipeline.name`` call in ``seen``."""
    fn = getattr(pipeline, name)

    def wrapped(*args, **kwargs):
        seen[name] = args[index]
        return fn(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, wrapped)


def test_result_holds_the_maps_decode_and_refine_read(monkeypatch,
                                                      small_config):
    seen = {}
    spy(monkeypatch, seen, "decode_proposals", 0)
    spy(monkeypatch, seen, "refine", 1)
    cloud, _ = generate_scene(SceneSpec(seed=3), small_config.grid)
    result = DetectionPipeline(small_config).run(cloud)
    assert result.proposals and result.detections
    assert result.heads is seen["decode_proposals"]
    assert result.pooling_map is seen["refine"]


def test_float32_suite_checks_the_heads_the_pipeline_decodes(monkeypatch):
    # heads upcast inside the pipeline are float64 on the float32 side too
    forward = pipeline.rpn_forward

    def upcast(*args, **kwargs):
        return {s: replace(h, heatmap=h.heatmap.astype(np.float64),
                           reg=h.reg.astype(np.float64),
                           iou=h.iou.astype(np.float64))
                for s, h in forward(*args, **kwargs).items()}

    assert float32_suite(scenes=1).passed
    monkeypatch.setattr(pipeline, "rpn_forward", upcast)
    assert not float32_suite(scenes=1).passed


def test_no_stage_reads_p3_so_it_is_not_built(monkeypatch):
    # every class on the stride-8 head and the pooling map (stride 4)
    # deconvolving P4: P3's lateral is never convolved, and the detections
    # are those of a run that builds it
    cfg = config_from_dict({**SMALL_CONFIG_DICT, "class_strides": {
        "vehicle": 8, "pedestrian": 8, "cyclist": 8}})
    cloud, _ = generate_scene(SceneSpec(seed=3), cfg.grid)
    built = []
    dense = LateralMap.dense

    def logged_dense(self):
        built.append(self.stride)
        return dense(self)

    monkeypatch.setattr(LateralMap, "dense", logged_dense)
    result = DetectionPipeline(cfg).run(cloud)
    assert built == [8]
    assert "P3" not in result.shapes and "P4" in result.shapes
    build = pipeline.build_pyramid
    monkeypatch.setattr(pipeline, "build_pyramid",
                        lambda backbone, weights, strides: build(backbone, weights))
    built.clear()
    every_level = DetectionPipeline(cfg).run(cloud)
    assert built == [8, 4]
    assert result.detections
    assert (format_detections(result.detections)
            == format_detections(every_level.detections))

