"""Two-stage 3D object detection on sparse BEV pillar grids, desk scale.

The package covers the full forward pipeline: pillarization, a hybrid
sparse/dense backbone, pyramid and pooling-map construction, center-based
proposal decoding with IoU-aware rescoring, rotated-RoI refinement, and
heading-weighted average-precision evaluation — all validated against
brute-force oracles on synthetic scenes.
"""

from .geometry import (Box3D, RotatedRect2D, project_to_bev, points_in_rect,
                       rotated_iou_bev, iou_3d, iou_3d_matrix, iou_3d_tables)
from .grid import (GridSpec, PointCloud, SparsePillarVolume, DenseFeatureMap,
                   pillarize, sparse_conv2d, densify, backbone_forward,
                   BackboneFeatures)
from .fpn import LateralMap, lateral, build_pyramid, build_pooling_map
from .rpn import (Detection, HeadOutput, RpnTargets, encode_targets, rpn_loss,
                  rpn_forward, decode_proposals, rectify, rectify_detections,
                  nms_3d)
from .rcnn import (SampledProposals, LossReport, roi_grids,
                   BilinearSupport, bilinear_sample, rcnn_forward,
                   sample_proposals, aux_seg_labels, rcnn_loss, refine)
from .metrics import ClassMetrics, split_difficulty, evaluate_levels
from .synth import SceneSpec, JitterSpec, generate_scene, jitter_detections
from .config import PipelineConfig, config_from_dict, load_config, weight_layout
from .pipeline import DetectionPipeline, PipelineResult, build_weights
from .weights import WeightStore

__all__ = [
    "Box3D", "RotatedRect2D", "project_to_bev", "points_in_rect",
    "rotated_iou_bev", "iou_3d", "iou_3d_matrix", "iou_3d_tables",
    "GridSpec", "PointCloud", "SparsePillarVolume", "DenseFeatureMap",
    "pillarize", "sparse_conv2d", "densify", "backbone_forward",
    "BackboneFeatures",
    "LateralMap", "lateral", "build_pyramid", "build_pooling_map",
    "Detection", "HeadOutput", "RpnTargets", "encode_targets", "rpn_loss",
    "rpn_forward", "decode_proposals", "rectify", "rectify_detections",
    "nms_3d",
    "SampledProposals", "LossReport", "roi_grids",
    "BilinearSupport", "bilinear_sample", "rcnn_forward", "sample_proposals",
    "aux_seg_labels", "rcnn_loss", "refine",
    "ClassMetrics", "split_difficulty", "evaluate_levels",
    "SceneSpec", "JitterSpec", "generate_scene", "jitter_detections",
    "PipelineConfig", "config_from_dict", "load_config", "weight_layout",
    "DetectionPipeline", "PipelineResult", "build_weights",
    "WeightStore",
]

__version__ = "0.1.0"
