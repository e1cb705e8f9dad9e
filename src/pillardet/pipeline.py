"""End-to-end detection: points in, refined scored boxes out.

Stage order: pillarize -> backbone -> pyramid -> center heads -> pooling
map -> proposal decoding -> IoU-aware rescoring -> NMS -> RoI refinement.
The pooling map is lazy, so building it right after the heads costs only
its bottom-up branches and lets the pyramid go before decoding. Only the
pyramid levels the heads or the pooling map read are built (no P3 when
every class is detected at stride 8 and the pooling map deconvolves P4),
and C5 dies once P4 is built unless the pooling map deconvolves it (pool
stride 8).
Every produced map's dims are asserted against the grid arithmetic
(dims = cells / stride) so a wiring mistake fails loudly instead of
producing plausible nonsense. Maps are computed in the weights' dtype;
extreme weights can overflow it, so overflow warnings are silenced and
the head maps and R-CNN outputs are checked to be finite instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import fileio
from .config import PipelineConfig, weight_layout
from .fpn import LateralMap, build_pooling_map, build_pyramid
from .grid import PointCloud, backbone_forward, pillarize
from .rcnn import refine
from .rpn import (Detection, HeadOutput, decode_proposals, nms_3d,
                  rectify_detections, rpn_forward)
from .weights import WeightStore


class ShapeContractError(RuntimeError):
    """A stage produced a map whose dims contradict the grid arithmetic."""


@dataclass(frozen=True)
class PipelineResult:
    detections: list[Detection]
    proposals: list[Detection]          # post-NMS, pre-refinement
    shapes: dict[str, tuple[int, int]]  # stage name -> (height, width)
    timings: dict[str, float]           # stage name -> seconds
    heads: dict[int, HeadOutput]        # stride -> the maps decoding read
    pooling_map: LateralMap             # the lazy map refine pooled from


def build_weights(config: PipelineConfig) -> WeightStore:
    """Load the configured archive or fall back to seeded initialization."""
    layout = weight_layout(config)
    if config.weights_path is not None:
        store = fileio.load_weights(config.weights_path)
        store.validate(layout)
        return store
    return WeightStore.seeded(layout, config.seed)


class DetectionPipeline:
    """Holds config plus weights; ``run`` is pure and reusable per scene."""

    def __init__(self, config: PipelineConfig,
                 weights: WeightStore | None = None):
        self.config = config
        self.weights = weights if weights is not None else build_weights(config)
        self.weights.validate(weight_layout(config))

    @np.errstate(over="ignore", invalid="ignore")
    def run(self, cloud: PointCloud) -> PipelineResult:
        cfg = self.config
        spec = cfg.grid
        shapes: dict[str, tuple[int, int]] = {}
        timings: dict[str, float] = {}

        def clock(name, fn):
            t0 = time.perf_counter()
            try:
                out = fn()
            except MemoryError as exc:
                raise MemoryError(f"{name} stage ran out of memory: "
                                  f"{exc}") from exc
            timings[name] = time.perf_counter() - t0
            return out

        volume = clock("pillarize", lambda: pillarize(cloud, spec, self.weights))
        backbone = clock("backbone", lambda: backbone_forward(
            volume, self.weights, cfg.backbone_channels))
        shapes["C3"] = (backbone.c3.ny, backbone.c3.nx)
        shapes["C4"] = (backbone.c4.ny, backbone.c4.nx)
        shapes["C5"] = (backbone.c5.height, backbone.c5.width)
        # the maps the heads and the pooling map read: the pyramid releases
        # C5 from this run's copy of the backbone unless the pooling map
        # deconvolves it (pool stride 8); backbone_forward's result stays whole
        read = set(cfg.level_classes) | {2 * cfg.pool_stride}
        backbone = replace(backbone)
        pyramid = clock("pyramid", lambda: build_pyramid(
            backbone, self.weights, read))
        # P3 at stride 4, as C3; no loop variable keeps a level alive
        shapes.update({f"P{s.bit_length()}": (m.height, m.width)
                       for s, m in pyramid.items()})
        heads = clock("heads", lambda: rpn_forward(
            pyramid, self.weights, cfg.level_classes))
        for stride, head in heads.items():
            if not all(np.isfinite(a).all()
                       for a in (head.heatmap, head.reg, head.iou)):
                raise ValueError(f"heads: the stride-{stride} head maps hold "
                                 "non-finite values")
        # the pooling map keeps the one level it deconvolves; drop the rest
        pooling_map = clock("pooling_map", lambda: build_pooling_map(
            backbone, pyramid, self.weights, cfg.pool_stride,
            cfg.bottom_up_strides))
        shapes["pool"] = (pooling_map.height, pooling_map.width)
        del pyramid
        # a cloud with no occupied pillar carries no evidence; bias
        # propagation still texture-fills the maps, so gate the decode
        proposals = clock("decode", lambda: decode_proposals(
            heads, spec, cfg.top_k) if volume.n_active else [])
        proposals = clock("rectify", lambda: rectify_detections(
            proposals, cfg.beta))
        proposals = clock("nms", lambda: nms_3d(proposals, cfg.nms_iou))
        detections = clock("refine", lambda: refine(
            proposals, pooling_map, spec, self.weights, cfg.roi_grid_size))

        _assert_shapes(shapes, spec, cfg.pool_stride)
        return PipelineResult(detections, proposals, shapes, timings, heads,
                              pooling_map)


def _assert_shapes(shapes: dict[str, tuple[int, int]], spec,
                   pool_stride: int) -> None:
    expected = {
        "C3": 4, "C4": 8, "C5": 16, "P3": 4, "P4": 8, "pool": pool_stride,
    }
    for name, dims in shapes.items():
        stride = expected[name]
        want = (spec.ny // stride, spec.nx // stride)
        if dims != want:
            raise ShapeContractError(
                f"{name} dims {dims} != expected {want} "
                f"(grid {spec.ny}x{spec.nx} / stride {stride})"
            )


def format_shapes(shapes: dict[str, tuple[int, int]]) -> str:
    return " ".join(f"{k}={h}x{w}" for k, (h, w) in shapes.items())
