"""Tests of the benchmark harness on tiny versions of its workloads."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import sparse_conv_pairs  # noqa: E402

from pillardet import fileio, fpn, grid, pipeline, rpn  # noqa: E402

TINY_GRID = {"x_min": -6.4, "x_max": 6.4, "y_min": -6.4, "y_max": 6.4,
             "z_min": -2.0, "z_max": 4.0, "pillar_size": 0.1}
TINY_CONFIG = {"grid": TINY_GRID, "backbone_channels": [8, 8, 16, 16, 32],
               "neck_channels": 16, "head_channels": 8, "pool_channels": 16,
               "mlp_channels": [32, 32], "seg_hidden": 8}
TINY_SCENE = {"counts": {0: 1, 1: 2, 2: 1}}
NAMES = sorted(workloads.WORKLOADS)


def tiny(name: str):
    wl = workloads.WORKLOADS[name]
    if isinstance(wl, workloads.DetectWorkload):
        return replace(wl, config=TINY_CONFIG, scene=TINY_SCENE, scene_pool=2)
    return replace(wl, config={"grid": TINY_GRID}, scene=TINY_SCENE,
                   scenes=3, false_positives=5)


def run_tiny(name, tmp_path, trace, seconds=0.05):
    return workloads.run(tiny(name), seed=3, seconds=seconds, trace=trace,
                         out_dir=tmp_path, setup_probes=1)


def load_benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = run_tiny(name, tmp_path, trace=False)
    assert result["correct"], result["details"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = [m["name"] for m in load_benchmark_json()["end_to_end"]]
    assert list(result["metrics"]) == wanted
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result = run_tiny(name, tmp_path, trace=True)
    assert result["correct"], result["details"]["problems"]
    wanted = [m["name"] for m in load_benchmark_json()["per_layer"]]
    assert list(result["metrics"]) == wanted
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["host.gemm_gflops"] > 0
    assert values["geometry.iou_3d_calls"] > 0
    if name == "postprocess":
        assert values["metrics.true_positives"] > 0
        assert values["rpn.nms_keep_ratio"] < 1.0
        assert values["grid.dense_conv_calls"] == 0
    else:
        # dense: 2 backbone + 2 pyramid + 1 pooling map + 2 heads;
        # sparse: 7 backbone, none on the pooling map at stride 4
        assert values["grid.dense_conv_calls"] == 7
        assert values["grid.sparse_conv_calls"] == 7
        assert values["grid.dense_conv_gmac"] > 0
        assert values["grid.sparse_conv_gmac"] > 0
        assert values["rcnn.rois"] == values["rpn.proposals_post_nms"]
        funnel = result["details"]["funnel"][0]
        assert funnel["points_in"] - funnel["points_dropped"] > 0
        assert funnel["active_sites"]["C1"] == funnel["pillars"]
    assert (tmp_path / "spans.npz").is_file()


def test_traced_run_restores_the_package(tmp_path):
    before = (pipeline.refine, grid.dense_conv2d, fpn.densify, rpn.iou_3d)
    run_tiny("crowded_near", tmp_path, trace=True)
    assert (pipeline.refine, grid.dense_conv2d, fpn.densify,
            rpn.iou_3d) == before


def test_traced_and_untraced_runs_write_the_same_detections(tmp_path):
    plain = run_tiny("full_range", tmp_path / "plain", trace=False,
                     seconds=0.3)
    traced = run_tiny("full_range", tmp_path / "traced", trace=True,
                      seconds=0.3)
    a, b = plain["details"]["digests"], traced["details"]["digests"]
    common = set(a) & set(b)
    assert common
    assert all(a[k] == b[k] for k in common)


def test_nan_score_in_output_counts_as_failure(tmp_path, monkeypatch):
    real_save = fileio.save_detections

    def save_with_nan(path, dets):
        real_save(path, dets)
        with open(path, "a", encoding="utf-8") as f:
            f.write("0 0 0 0 4 2 1.5 0 nan 0.5 0.5\n")

    monkeypatch.setattr(fileio, "save_detections", save_with_nan)
    result = run_tiny("crowded_near", tmp_path, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert result["details"]["fail_ratio"] == 1.0
    assert any("does not load back" in p for p in result["details"]["problems"])


def test_sparse_conv_pairs_match_brute_force():
    rng = np.random.default_rng(5)
    nx = ny = 12
    keys = np.sort(rng.choice(nx * ny, size=40, replace=False))
    coords_in = np.stack([keys // ny, keys % ny], axis=1)
    vin = grid.SparsePillarVolume(1, nx, ny, coords_in, np.ones((40, 2)))
    for stride, subm in ((1, True), (2, False)):
        w = np.ones((3, 3, 2, 3))
        out = grid.sparse_conv2d(vin, w, np.zeros(3), stride=stride,
                                 submanifold=subm)
        active_in = {tuple(c) for c in coords_in}
        expected = 0
        for ox, oy in out.coords:
            for ky in range(3):
                for kx in range(3):
                    if (ox * stride + kx - 1, oy * stride + ky - 1) in active_in:
                        expected += 1
        assert sparse_conv_pairs(coords_in, out.coords, out.ny, out.nx,
                                 stride) == expected


def test_benchmark_json_matches_the_harness():
    bench = load_benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        workloads.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full_range",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
