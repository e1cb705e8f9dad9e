"""The benchmark's workloads: seeded inputs, one closed loop, output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one ends. The loop runs in the calling process and
drives the package only through its public functions. Inputs come from
the seed alone; the pipeline sees only the generated point-cloud files.

An untraced run measures the end-to-end metrics. A traced run pairs each
traced operation with an untraced one on the same input, which gives the
tracing overhead, and reports the per-layer metrics. See README.md for
why each workload exists and what each metric should move.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, time
from types import SimpleNamespace

import numpy as np

from pillardet import fileio
from pillardet.config import CLASS_NAMES, PipelineConfig, config_from_dict
from pillardet.metrics import evaluate_levels
from pillardet.pipeline import DetectionPipeline
from pillardet.rpn import nms_3d, rectify_detections
from pillardet.synth import (JitterSpec, SceneSpec, generate_scene,
                             jitter_detections, scene_seed)

import hostinfo
from tracing import OpSpans, SpanRecorder, SpanTable, nms_counts

RUN_PY = Path(__file__).with_name("run.py")
SETUP_PROBES = 7

NEAR_GRID = {"x_min": -25.6, "x_max": 25.6, "y_min": -25.6, "y_max": 25.6,
             "z_min": -2.0, "z_max": 4.0, "pillar_size": 0.1}
CROWDED_SCENE = {"counts": {0: 20, 1: 30, 2: 20}, "noise_density": 2.0}
NOISY_JITTER = {"sigma_center": 0.15, "sigma_z": 0.05, "sigma_size": 0.05,
                "sigma_yaw": 0.05, "yaw_flip_prob": 0.05}


@dataclass(frozen=True)
class DetectWorkload:
    """One operation is one ``detect`` scene: load .pbk, run, save .det.txt."""

    name: str
    config: dict        # config_from_dict overrides; {} is the default config
    scene: dict         # SceneSpec fields besides the seed
    scene_pool: int     # distinct scenes; the loop cycles through them

    def setup(self) -> DetectionPipeline:
        return DetectionPipeline(config_from_dict(self.config))


@dataclass(frozen=True)
class PostprocessWorkload:
    """One operation is one pass: rectify + NMS per scene, then evaluation."""

    name: str
    config: dict
    scene: dict
    scenes: int             # scenes per pass
    copies: int             # jittered candidates per ground-truth box
    false_positives: int    # per scene
    jitter: dict            # JitterSpec fields of the copies

    def setup(self) -> PipelineConfig:
        return config_from_dict(self.config)


WORKLOADS = {w.name: w for w in (
    DetectWorkload("full_range", config={}, scene={}, scene_pool=2),
    DetectWorkload("crowded_near", config={"grid": NEAR_GRID},
                   scene=CROWDED_SCENE, scene_pool=6),
    PostprocessWorkload("postprocess", config={"grid": NEAR_GRID},
                        scene=CROWDED_SCENE, scenes=20, copies=4,
                        false_positives=100, jitter=NOISY_JITTER),
)}

END_TO_END_UNITS = {
    "scenes_per_s": "1/s",
    "scene_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "pipeline.run_s": "s",
    "fileio.load_s": "s",
    "fileio.save_s": "s",
    "fileio.bytes_read": "bytes",
    "fileio.bytes_written": "bytes",
    "grid.pillarize_s": "s",
    "grid.points_in": "count",
    "grid.points_dropped": "count",
    "grid.pillars": "count",
    "grid.backbone_s": "s",
    "grid.sparse_conv_s": "s",
    "grid.sparse_conv_calls": "count",
    "grid.sparse_sites_out": "count",
    "grid.sparse_conv_gmac": "GMAC",
    "grid.densify_s": "s",
    "grid.dense_conv_s": "s",
    "grid.dense_conv_calls": "count",
    "grid.dense_conv_gmac": "GMAC",
    "grid.dense_conv_gmac_per_s": "GMAC/s",
    "grid.deconv_s": "s",
    "grid.deconv_gmac": "GMAC",
    "fpn.pyramid_s": "s",
    "fpn.pooling_map_s": "s",
    "fpn.self_s": "s",
    "rpn.heads_s": "s",
    "rpn.decode_s": "s",
    "rpn.rectify_s": "s",
    "rpn.nms_s": "s",
    "rpn.peaks": "count",
    "rpn.proposals_pre_nms": "count",
    "rpn.proposals_post_nms": "count",
    "rpn.nms_keep_ratio": "ratio",
    "rpn.nms_iou_calls": "count",
    "rcnn.refine_s": "s",
    "rcnn.pool_s": "s",
    "rcnn.mlp_s": "s",
    "rcnn.rois": "count",
    "geometry.iou_3d_calls": "count",
    "geometry.iou_3d_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.match_s": "s",
    "metrics.true_positives": "count",
    "synth.generate_s": "s",
    "host.gemm_gflops": "GFLOP/s",
    "grid.dense_conv_peak_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# PipelineResult.timings key -> span of the same stage
STAGE_SPANS = {
    "pillarize": "grid.pillarize",
    "backbone": "grid.backbone_forward",
    "pyramid": "fpn.build_pyramid",
    "heads": "rpn.rpn_forward",
    "decode": "rpn.decode_proposals",
    "rectify": "rpn.rectify_detections",
    "nms": "rpn.nms_3d",
    "pooling_map": "fpn.build_pooling_map",
    "refine": "rcnn.refine",
}
STAGE_TOLERANCE_S = 0.005
STAGE_TOLERANCE_REL = 0.05
GLUE_SHARE_LIMIT = 0.02


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def _raised(exc: Exception) -> str:
    return "raised " + "".join(
        traceback.format_exception_only(type(exc), exc)).strip()


def _score_problems(dets) -> list[str]:
    for d in dets:
        for field in ("score", "iou_score", "rectified_score"):
            v = getattr(d, field)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                return [f"{field} {v!r} is not a finite value in [0, 1]"]
    return []


def check_detection_file(path: Path, dets) -> tuple[list[str], str]:
    """Problems with one written detection file, and its sha256."""
    problems = _score_problems(dets)
    data = path.read_bytes()
    try:
        loaded = fileio.load_detections(str(path))
    except ValueError as exc:   # FormatError, or a score out of range
        problems.append(f"does not load back: {exc}")
    else:
        if fileio.format_detections(loaded).encode("utf-8") != data:
            problems.append("does not round-trip through load_detections")
        if len(loaded) != len(dets):
            problems.append(f"file holds {len(loaded)} detections, "
                            f"run returned {len(dets)}")
    return problems, hashlib.sha256(data).hexdigest()


def measure_setup(name: str, probes: int) -> list[float]:
    """Seconds from spawning a fresh workload process until it is set up.

    Each probe process imports the package, loads the config and builds
    and validates the weights exactly as the measured process does, then
    reports the wall-clock time at which it is ready.
    """
    out = []
    for _ in range(probes):
        t0 = time()
        proc = subprocess.run([sys.executable, str(RUN_PY), "--workload", name,
                               "--setup-probe"], capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _class_counts(dets) -> dict[str, int]:
    out = {name: 0 for name in CLASS_NAMES.values()}
    for d in dets:
        out[CLASS_NAMES[d.class_id]] += 1
    return out


def _local_peak_count(hm: np.ndarray) -> int:
    """Cells above zero and strictly above all eight neighbours."""
    h, w = hm.shape
    padded = np.full((h + 2, w + 2), -np.inf)
    padded[1:-1, 1:-1] = hm
    nbr = np.full((h, w), -np.inf)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            if (dy, dx) != (1, 1):
                nbr = np.maximum(nbr, padded[dy:dy + h, dx:dx + w])
    return int(np.count_nonzero((hm > nbr) & (hm > 0.0)))


def _points_in_range(cloud, grid) -> int:
    x, y, z = cloud.data[:, 0], cloud.data[:, 1], cloud.data[:, 2]
    return int(np.count_nonzero((x >= grid.x_min) & (x < grid.x_max)
                                & (y >= grid.y_min) & (y < grid.y_max)
                                & (z >= grid.z_min) & (z < grid.z_max)))


def layer_metrics(sp: OpSpans, counts: dict, scenes: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation, per scene."""
    t = sp.total
    gmac = {k: sp.macs(f"grid.{k}") / 1e9
            for k in ("sparse_conv2d", "dense_conv2d", "deconv2x2")}
    m = {
        "pipeline.run_s": t("pipeline.run"),
        "fileio.load_s": t("fileio.load_point_cloud"),
        "fileio.save_s": t("fileio.save_detections"),
        "grid.pillarize_s": t("grid.pillarize"),
        "grid.backbone_s": t("grid.backbone_forward"),
        "grid.sparse_conv_s": t("grid.sparse_conv2d"),
        "grid.sparse_conv_calls": sp.calls("grid.sparse_conv2d"),
        "grid.sparse_conv_gmac": gmac["sparse_conv2d"],
        "grid.densify_s": t("grid.densify"),
        "grid.dense_conv_s": t("grid.dense_conv2d"),
        "grid.dense_conv_calls": sp.calls("grid.dense_conv2d"),
        "grid.dense_conv_gmac": gmac["dense_conv2d"],
        "grid.deconv_s": t("grid.deconv2x2"),
        "grid.deconv_gmac": gmac["deconv2x2"],
        "fpn.pyramid_s": t("fpn.build_pyramid"),
        "fpn.pooling_map_s": t("fpn.build_pooling_map"),
        "fpn.self_s": sp.self_time("fpn.build_pyramid", "fpn.build_pooling_map"),
        "rpn.heads_s": t("rpn.rpn_forward"),
        "rpn.decode_s": t("rpn.decode_proposals"),
        "rpn.rectify_s": t("rpn.rectify_detections"),
        "rpn.nms_s": t("rpn.nms_3d"),
        "rpn.nms_iou_calls": sp.calls_under("geometry.iou_3d", "rpn.nms_3d"),
        "rcnn.refine_s": t("rcnn.refine"),
        "rcnn.pool_s": t("rcnn.pool_roi_features"),
        "rcnn.mlp_s": sp.self_time("rcnn.refine"),
        "geometry.iou_3d_calls": sp.calls("geometry.iou_3d"),
        "geometry.iou_3d_s": t("geometry.iou_3d"),
        "metrics.evaluate_s": t("metrics.evaluate_levels"),
        "metrics.match_s": t("metrics.match_detections"),
    }
    for key in ("fileio.bytes_read", "fileio.bytes_written", "grid.points_in",
                "grid.points_dropped", "grid.pillars", "grid.sparse_sites_out",
                "rpn.peaks", "rpn.proposals_pre_nms", "rpn.proposals_post_nms",
                "rcnn.rois", "metrics.true_positives"):
        m[key] = counts.get(key, 0)
    m = {k: float(v) / scenes for k, v in m.items()}
    m["grid.dense_conv_gmac_per_s"] = (
        gmac["dense_conv2d"] / t("grid.dense_conv2d")
        if t("grid.dense_conv2d") > 0 else 0.0)
    pre = counts.get("rpn.proposals_pre_nms", 0)
    m["rpn.nms_keep_ratio"] = (counts.get("rpn.proposals_post_nms", 0) / pre
                               if pre else 0.0)
    return m


def _self_sum_problems(sp: OpSpans, op_s: float, label: str) -> tuple[list[str], dict]:
    """Per-layer self times must add up to the traced operation time."""
    layers = sp.self_by_layer()
    glue = layers.get("bench", 0.0)
    summed = sum(layers.values())
    record = {"layer_self_s": layers, "self_sum_s": summed, "op_s": op_s,
              "bench_glue_share": glue / op_s if op_s else 0.0}
    problems = []
    if abs(summed - op_s) > GLUE_SHARE_LIMIT * op_s:
        problems.append(f"{label}: self times sum to {summed:.6f} s, "
                        f"operation took {op_s:.6f} s")
    if record["bench_glue_share"] > GLUE_SHARE_LIMIT:
        problems.append(f"{label}: {record['bench_glue_share']:.1%} of the "
                        "operation is outside every package span")
    return problems, record


def _finish_trace(per_op: list[dict], pairs: list[tuple[float, float]],
                  gen_s: float, gemm: float) -> dict[str, float]:
    """Medians over the traced operations, plus the run-level metrics."""
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for key in per_op[0] if per_op else ():
        metrics[key] = _median([m[key] for m in per_op])
    metrics["synth.generate_s"] = gen_s
    metrics["host.gemm_gflops"] = gemm
    metrics["grid.dense_conv_peak_ratio"] = (
        2.0 * metrics["grid.dense_conv_gmac_per_s"] / gemm)
    metrics["trace.overhead_ratio"] = _median([(tr - un) / un
                                               for un, tr in pairs])
    return metrics


# -- detect workloads -------------------------------------------------------


def run_detect(wl: DetectWorkload, seed: int, seconds: float, trace: bool,
               out_dir: Path) -> tuple[dict, Tally, dict]:
    pipeline = wl.setup()
    grid = pipeline.config.grid
    scenes = []
    gen_s = 0.0
    for k in range(wl.scene_pool):
        s = scene_seed(seed, k)
        t0 = perf_counter()
        cloud, gt = generate_scene(SceneSpec(seed=s, **wl.scene), grid)
        gen_s += perf_counter() - t0
        path = out_dir / f"scene{k}.pbk"
        fileio.save_point_cloud(str(path), cloud)
        scenes.append({"scene_seed": s, "points": len(cloud),
                       "objects": len(gt), "path": path})
    details = {
        "inputs": {"grid_cells": [grid.ny, grid.nx], "scene_spec": repr(wl.scene),
                   "scenes": [{k: v for k, v in sc.items() if k != "path"}
                              for sc in scenes]},
    }
    tally = Tally()
    digests: dict[int, str] = {}
    plain = SimpleNamespace(load=fileio.load_point_cloud, run=pipeline.run,
                            save=fileio.save_detections)

    def scene_op(k: int, calls, ctx=None):
        """One timed detect scene and its output checks.

        Returns (seconds, cloud, result); cloud and result are None when
        the operation raised.
        """
        det_path = out_dir / f"scene{k}.det.txt"
        problems = []
        result = cloud = None
        with ctx or nullcontext():
            t0 = perf_counter()
            try:
                cloud = calls.load(str(scenes[k]["path"]))
                result = calls.run(cloud)
                calls.save(str(det_path), result.detections)
            except Exception as exc:   # a failed operation is counted, not fatal
                problems.append(_raised(exc))
            elapsed = perf_counter() - t0
        if result is not None:
            file_problems, digest = check_detection_file(det_path,
                                                         result.detections)
            problems += file_problems
            first = digests.setdefault(k, digest)
            if digest != first:
                problems.append("detections differ from an earlier run of "
                                "the same scene")
        tally.record(f"scene {k}", problems)
        return elapsed, cloud, result

    if not trace:
        times = []
        t_start = perf_counter()
        # cycle through the pool at least once more than its size, so every
        # run compares a repeated scene's bytes with its first run
        while (len(times) <= wl.scene_pool
               or perf_counter() - t_start < seconds):
            times.append(scene_op(len(times) % wl.scene_pool, plain)[0])
        loop_s = perf_counter() - t_start
        metrics = {"scenes_per_s": len(times) / loop_s,
                   "scene_s_p50": _median(times)}
        details["scene_s_samples"] = times
    else:
        metrics, trace_details, problems = _trace_detect(
            wl, pipeline, scenes, scene_op, plain, seconds, gen_s, out_dir)
        details.update(trace_details)
        tally.problems += problems
    details["digests"] = {str(scenes[k]["scene_seed"]): d
                          for k, d in sorted(digests.items())}
    details["outputs_sha256"] = hashlib.sha256(
        "".join(d for _, d in sorted(digests.items())).encode()).hexdigest()
    details["generate_s_per_scene"] = gen_s / wl.scene_pool
    return metrics, tally, details


def _trace_detect(wl, pipeline, scenes, scene_op, plain, seconds, gen_s,
                  out_dir):
    grid = pipeline.config.grid
    gemm = hostinfo.gemm_gflops()
    rec = SpanRecorder()
    traced = SimpleNamespace(
        load=rec.wrap("fileio.load_point_cloud", fileio.load_point_cloud),
        run=rec.wrap("pipeline.run", pipeline.run),
        save=rec.wrap("fileio.save_detections", fileio.save_detections))
    pairs, per_op, funnels, checks, problems = [], [], [], [], []
    t_start = perf_counter()
    while not pairs or perf_counter() - t_start < seconds:
        op = len(pairs)
        k = op % wl.scene_pool
        rec.current_scene = k

        def run_traced():
            return scene_op(k, traced, rec.operation("bench.scene", op))

        if op % 2 == 0:   # alternate which side runs first
            untraced = scene_op(k, plain)[0]
            traced_s, cloud, result = run_traced()
        else:
            traced_s, cloud, result = run_traced()
            untraced = scene_op(k, plain)[0]
        pairs.append((untraced, traced_s))
        if result is None:
            continue
        det_path = out_dir / f"scene{k}.det.txt"
        counts = dict(rec.counts)
        funnel = _detect_funnel(rec, cloud, result, grid)
        counts.update({
            "fileio.bytes_read": scenes[k]["path"].stat().st_size,
            "fileio.bytes_written": det_path.stat().st_size,
            "grid.points_in": funnel["points_in"],
            "grid.points_dropped": funnel["points_dropped"],
            "grid.pillars": funnel["pillars"],
            "rpn.peaks": sum(funnel["peaks"].values()),
            "rcnn.rois": funnel["rois"],
        })
        rec.captures = {}
        funnels.append({"scene": k, **funnel})
        sp = SpanTable(rec).for_op(op)
        per_op.append(layer_metrics(sp, counts, 1))
        stage = {name: {"timings_s": result.timings[name],
                        "span_s": sp.total(span)}
                 for name, span in STAGE_SPANS.items()}
        for name, v in stage.items():
            gap = abs(v["timings_s"] - v["span_s"])
            if gap > max(STAGE_TOLERANCE_S,
                         STAGE_TOLERANCE_REL * v["timings_s"]):
                problems.append(f"scene {k}: stage {name} span "
                                f"{v['span_s']:.6f} s vs timings "
                                f"{v['timings_s']:.6f} s")
        sum_problems, self_record = _self_sum_problems(sp, traced_s,
                                                       f"scene {k}")
        problems += sum_problems
        checks.append({"scene": k, "stages": stage, **self_record})
    rec.save(out_dir / "spans.npz")
    metrics = _finish_trace(per_op, pairs, gen_s / wl.scene_pool, gemm)
    details = {"funnel": funnels, "cross_checks": checks,
               "trace_pairs_s": pairs, "spans_recorded": len(rec.start),
               "spans_file": str(out_dir / "spans.npz")}
    return metrics, details, problems


def _detect_funnel(rec: SpanRecorder, cloud, result, grid) -> dict:
    """Funnel counts of one traced scene, taken from the returned objects."""
    volume = rec.captures["volume"][1]
    backbone = rec.captures["backbone"][1]
    heads = rec.captures["heads"][1]
    proposals = rec.captures.get("proposals", (None, []))[1]
    nms_in, nms_out = rec.captures["rpn.nms_3d"][0]
    peaks = {name: 0 for name in CLASS_NAMES.values()}
    for head in heads.values():
        for slot, class_id in enumerate(head.class_ids):
            peaks[CLASS_NAMES[class_id]] += _local_peak_count(
                head.heatmap[:, :, slot])
    in_range = _points_in_range(cloud, grid)
    return {
        "points_in": len(cloud),
        "points_dropped": len(cloud) - in_range,
        "pillars": volume.n_active,
        "active_sites": {f"C{i}": getattr(backbone, f"c{i}").n_active
                         for i in (1, 2, 3, 4)},
        "peaks": peaks,
        "proposals_decoded": _class_counts(proposals),
        "proposals_pre_nms": _class_counts(nms_in),
        "proposals_post_nms": _class_counts(nms_out),
        "rois": len(rec.captures["refine"][0][0]),
        "detections": len(result.detections),
    }


# -- post-processing workload -----------------------------------------------


def _report_key(report) -> list:
    return [[level, class_id, m.ap, m.aph, m.num_gt]
            for level, per_class in sorted(report.items())
            for class_id, m in sorted(per_class.items())]


def _kept_digest(kept) -> str:
    h = hashlib.sha256()
    for j, dets in enumerate(kept):
        h.update(f"# scene {j}\n".encode())
        h.update(fileio.format_detections(dets).encode("utf-8"))
    return h.hexdigest()


def run_postprocess(wl: PostprocessWorkload, seed: int, seconds: float,
                    trace: bool, out_dir: Path) -> tuple[dict, Tally, dict]:
    cfg = wl.setup()
    grid = cfg.grid
    gts, noisy, control, scene_seeds = [], [], [], []
    gen_s = 0.0
    noise = JitterSpec(**wl.jitter)
    for i in range(wl.scenes):
        s = scene_seed(seed, i)
        t0 = perf_counter()
        _, gt = generate_scene(SceneSpec(seed=s, **wl.scene), grid)
        cands = []
        for c in range(wl.copies):
            cands += jitter_detections(gt, noise, scene_seed(s, c + 1), grid)
        cands += jitter_detections(
            [], JitterSpec(false_positives=wl.false_positives),
            scene_seed(s, 0), grid)
        gen_s += perf_counter() - t0
        gts.append(gt)
        noisy.append(cands)
        control.append(jitter_detections(gt, JitterSpec(), s, grid))
        scene_seeds.append(s)
    details = {"inputs": {"scene_seeds": scene_seeds,
                          "scene_spec": repr(wl.scene),
                          "ground_truth": sum(len(g) for g in gts),
                          "candidates": sum(len(c) for c in noisy),
                          "jitter": wl.jitter}}
    tally = Tally()
    plain = SimpleNamespace(rectify=rectify_detections, nms=nms_3d,
                            evaluate=evaluate_levels)
    reference: dict[str, object] = {}

    def pass_op(inputs, calls, rec=None, ctx=None):
        """One timed pass over every scene.

        Returns (seconds, kept detections per scene, AP/APH report or None
        when the pass raised, problems).
        """
        kept, report, problems = [], None, []
        with ctx or nullcontext():
            t0 = perf_counter()
            try:
                for j, cands in enumerate(inputs):
                    if rec is not None:
                        rec.current_scene = j
                    kept.append(calls.nms(calls.rectify(cands, cfg.beta),
                                          cfg.nms_iou))
                if rec is not None:
                    rec.current_scene = -1
                report = calls.evaluate(kept, gts, cfg.eval_iou)
            except Exception as exc:   # a failed operation is counted, not fatal
                problems.append(_raised(exc))
            elapsed = perf_counter() - t0
        for dets in kept:
            problems += _score_problems(dets)
        return elapsed, kept, report, problems

    # control pass: zero noise, one exact copy per box, also the warm-up
    _, _, report, problems = pass_op(control, plain)
    if report is not None:
        for level, per_class in report.items():
            for class_id, m in per_class.items():
                if m.valid and (m.ap != 1.0 or m.aph != 1.0):
                    problems.append(f"zero-noise {level} {CLASS_NAMES[class_id]}"
                                    f" AP {m.ap} APH {m.aph}, expected 1")
        details["control_report"] = _report_key(report)
    tally.record("control pass", problems)

    def noisy_op(calls, rec=None, ctx=None):
        elapsed, kept, report, problems = pass_op(noisy, calls, rec, ctx)
        if report is not None:
            key, digest = _report_key(report), _kept_digest(kept)
            reference.setdefault("report", key)
            reference.setdefault("digest", digest)
            if key != reference["report"]:
                problems.append("AP/APH differ from the first noisy pass")
            if digest != reference["digest"]:
                problems.append("kept detections differ from the first pass")
        tally.record("noisy pass", problems)
        return elapsed

    if not trace:
        times = []
        t_start = perf_counter()
        while not times or perf_counter() - t_start < seconds:
            times.append(noisy_op(plain))
        loop_s = perf_counter() - t_start
        metrics = {"scenes_per_s": len(times) * wl.scenes / loop_s,
                   "scene_s_p50": _median(times) / wl.scenes}
        details["pass_s_samples"] = times
    else:
        gemm = hostinfo.gemm_gflops()
        rec = SpanRecorder()
        traced = SimpleNamespace(
            rectify=rec.wrap("rpn.rectify_detections", rectify_detections),
            nms=rec.wrap("rpn.nms_3d", nms_3d, nms_counts),
            evaluate=rec.wrap("metrics.evaluate_levels", evaluate_levels))
        pairs, per_op, checks = [], [], []
        t_start = perf_counter()
        while not pairs or perf_counter() - t_start < seconds:
            op = len(pairs)
            ctx = rec.operation("bench.pass", op)
            if op % 2 == 0:   # alternate which side runs first
                untraced = noisy_op(plain)
                traced_s = noisy_op(traced, rec, ctx)
            else:
                traced_s = noisy_op(traced, rec, ctx)
                untraced = noisy_op(plain)
            pairs.append((untraced, traced_s))
            sp = SpanTable(rec).for_op(op)
            per_op.append(layer_metrics(sp, rec.counts, wl.scenes))
            rec.captures = {}
            sum_problems, record = _self_sum_problems(sp, traced_s,
                                                      f"pass {op}")
            tally.problems += sum_problems
            checks.append(record)
        rec.save(out_dir / "spans.npz")
        metrics = _finish_trace(per_op, pairs, gen_s / wl.scenes, gemm)
        details.update({"cross_checks": checks, "trace_pairs_s": pairs,
                        "spans_recorded": len(rec.start),
                        "spans_file": str(out_dir / "spans.npz")})
    details["noisy_report"] = reference.get("report")
    details["outputs_sha256"] = reference.get("digest")
    details["generate_s_per_scene"] = gen_s / wl.scenes
    return metrics, tally, details


# -- entry ------------------------------------------------------------------


def run(wl, seed: int, seconds: float, trace: bool, out_dir: Path,
        setup_probes: int = SETUP_PROBES) -> dict:
    """Run one workload; the result carries every metric of its mode."""
    out_dir.mkdir(parents=True, exist_ok=True)
    setup = [] if trace else measure_setup(wl.name, setup_probes)
    runner = run_detect if isinstance(wl, DetectWorkload) else run_postprocess
    metrics, tally, details = runner(wl, seed, seconds, trace, out_dir)
    if trace:
        units = PER_LAYER_UNITS
    else:
        metrics["setup_s"] = _median(setup)
        metrics["peak_rss_mb"] = hostinfo.peak_rss_mb()
        details["setup_s_samples"] = setup
        units = END_TO_END_UNITS
    details["attempted"] = tally.attempted
    details["failed"] = tally.failed
    details["fail_ratio"] = tally.failed / max(1, tally.attempted)
    details["problems"] = tally.problems
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in units.items()},
        "details": details,
    }
