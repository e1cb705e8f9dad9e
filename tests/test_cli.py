import json
import math
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import ODD_VALUES, SMALL_CONFIG_DICT, raise_sparse_conv_weight
from pillardet import fileio
from pillardet.cli import _map_jobs, main
from pillardet.config import config_from_dict
from pillardet.grid import PointCloud
from pillardet.pipeline import build_weights
from pillardet.weights import WeightStore


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG_DICT))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["detect", "--out", "X"],
        ["synth", "--scenes", "abc", "--out", "o"],
        ["eval", "--seed", "3", "--dets", "d", "--gt", "g"],
        ["verify", "--jobs", "2"],
        ["verify", "--corrupt"],
        ["synth", "--jobs", "0", "--out", "o"],
        ["detect", "--jobs", "-3", "--out", "o", "s.pbk"],
        [],
    ])
    def test_usage_error_is_one_validation_line(self, tmp_path, monkeypatch,
                                                capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert os.listdir(tmp_path) == []

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--help"])
        assert exc.value.code == 0
        assert "--scenes" in capsys.readouterr().out


class TestSynth:
    def test_zero_scenes_writes_nothing(self, tmp_path, config_path):
        out = tmp_path / "scenes"
        assert main(["synth", "--config", config_path, "--scenes", "0",
                     "--out", str(out)]) == 0
        assert os.listdir(out) == []

    def test_rerun_is_byte_identical(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["synth", "--config", config_path, "--scenes", "2",
                         "--out", str(out)]) == 0
        for name in sorted(os.listdir(out_a)):
            assert read_bytes(out_a / name) == read_bytes(out_b / name)

    def test_seed_flag_changes_scenes(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--config", config_path, "--scenes", "1", "--out", str(out_a)])
        main(["synth", "--config", config_path, "--seed", "99", "--scenes", "1",
              "--out", str(out_b)])
        assert (read_bytes(out_a / "scene_0000.pbk")
                != read_bytes(out_b / "scene_0000.pbk"))

    def test_invalid_config_field_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pool_stride": 5}))
        code = main(["synth", "--config", str(bad), "--scenes", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "pool_stride" in capsys.readouterr().err

    def test_unknown_config_key_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pillar": 0.1}))
        assert main(["synth", "--config", str(bad), "--scenes", "1",
                     "--out", str(tmp_path / "x")]) == 1
        assert "pillar" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, err", [
        ({"grid": {"\r": None}}, "unknown configuration field 'grid.\\r'"),
        ({"top_k": {"car\u2028": 1}}, "top_k: unknown class 'car\\u2028'"),
    ])
    def test_odd_key_is_one_escaped_error_line(self, tmp_path, capsys, raw,
                                               err):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["synth", "--config", str(bad), "--scenes", "0",
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("text, key", [
        ('{"seed": 1, "seed": 2}', "seed"),
        ('{"top_k": {"vehicle": 5, "vehicle": 7}}', "vehicle"),
    ])
    def test_repeated_key_is_one_error_line(self, tmp_path, capsys, text,
                                            key):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["synth", "--config", str(bad), "--scenes", "0",
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == \
            f"error: config file {bad}: key '{key}' occurs twice\n"

    @pytest.mark.parametrize("text, path", ODD_VALUES)
    def test_wrongly_typed_value_is_one_error_line(self, tmp_path, capsys,
                                                   text, path):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["synth", "--config", str(bad), "--scenes", "0",
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err

    def test_oversize_integer_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": ' + "9" * 5000 + "}")
        assert main(["synth", "--config", str(bad), "--scenes", "0",
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {bad}: invalid JSON (")
        assert err.count("\n") == 1, err

    def test_negative_seed_flag_is_one_error_line(self, tmp_path, config_path,
                                                  capsys):
        assert main(["synth", "--config", config_path, "--seed", "-1",
                     "--scenes", "0", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: seed: must be non-negative\n"


class TestDetect:
    def test_empty_scene_gives_empty_detections(self, tmp_path, config_path):
        scene = tmp_path / "empty.pbk"
        fileio.save_point_cloud(str(scene), PointCloud.empty())
        out = tmp_path / "dets"
        assert main(["detect", "--config", config_path, "--out", str(out),
                     str(scene)]) == 0
        assert read_bytes(out / "empty.det.txt") == b""

    def test_corrupt_scene_is_io_error(self, tmp_path, config_path, capsys):
        scene = tmp_path / "bad.pbk"
        scene.write_bytes(b"JUNKJUNKJUNK")
        assert main(["detect", "--config", config_path,
                     "--out", str(tmp_path / "d"), str(scene)]) == 2
        assert "magic" in capsys.readouterr().err

    # "pool_bottom_up_strides": [] is the semantics-only ablation now
    @pytest.mark.parametrize("name", ["sample_size", "pos_iou",
                                      "use_pool_bottom_up"])
    def test_removed_config_field_is_validation_error(self, tmp_path, name,
                                                      capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG_DICT, name: 1}))
        scene = tmp_path / "empty.pbk"
        fileio.save_point_cloud(str(scene), PointCloud.empty())
        assert main(["detect", "--config", str(cfg), "--out",
                     str(tmp_path / "d"), str(scene)]) == 1
        err = capsys.readouterr().err
        assert name in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_repeated_pool_bottom_up_stride_is_validation_error(
            self, tmp_path, capsys):
        # a stride listed twice would merge the same volume into the pooling
        # map twice
        cfg = tmp_path / "twice.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG_DICT,
                                   "pool_bottom_up_strides": [4, 4]}))
        scene = tmp_path / "empty.pbk"
        fileio.save_point_cloud(str(scene), PointCloud.empty())
        assert main(["detect", "--config", str(cfg), "--out",
                     str(tmp_path / "d"), str(scene)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "pool_bottom_up_strides" in err
        assert "once" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "d").exists()

    # "pool_bottom_up_strides": [] is the semantics-only pooling map; a
    # class_strides that leaves a pyramid level without classes gives that
    # level no heads
    @pytest.mark.parametrize("override", [
        {"pool_bottom_up_strides": []},
        {"class_strides": {"pedestrian": 8, "cyclist": 8}},
        {"class_strides": {"vehicle": 4}},
    ], ids=["semantics-only-pooling-map", "all-classes-stride-8",
            "all-classes-stride-4"])
    def test_config_variant_detects(self, tmp_path, config_path, capsys,
                                    override):
        cfg = tmp_path / "variant.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG_DICT, **override}))
        scenes = tmp_path / "scenes"
        assert main(["synth", "--config", config_path, "--scenes", "1",
                     "--out", str(scenes)]) == 0
        out = tmp_path / "dets"
        assert main(["detect", "--config", str(cfg), "--out", str(out),
                     str(scenes / "scene_0000.pbk")]) == 0
        assert capsys.readouterr().err == ""
        assert fileio.load_detections(str(out / "scene_0000.det.txt"))

    def test_non_finite_weights_rejected(self, tmp_path, capsys):
        # a NaN in a well-formed archive is a corrupt file, like a NaN point
        store = build_weights(config_from_dict(SMALL_CONFIG_DICT))
        weights = tmp_path / "nan.pwt"
        fileio.save_weights(str(weights), store)
        # overwrite the first value of the first tensor with NaN
        name = store.names()[0]
        offset = 8 + 2 + len(name.encode("utf-8")) + 1 + 4 * store.get(name).ndim
        blob = bytearray(weights.read_bytes())
        blob[offset:offset + 4] = struct.pack("<f", float("nan"))
        weights.write_bytes(bytes(blob))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG_DICT,
                                   "weights_path": str(weights)}))
        scene = tmp_path / "empty.pbk"
        fileio.save_point_cloud(str(scene), PointCloud.empty())
        assert main(["detect", "--config", str(cfg), "--out",
                     str(tmp_path / "d"), str(scene)]) == 2
        err = capsys.readouterr().err
        assert name in err and "non-finite" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("tensor,value", [("rpn.s8.reg.b", 1000.0),
                                              ("rpn.s8.reg.b", -1000.0),
                                              ("rcnn.reg.b", 1000.0)])
    def test_extreme_log_extent_is_clamped(self, tmp_path, config_path,
                                           capsys, tensor, value):
        store = build_weights(config_from_dict(SMALL_CONFIG_DICT))
        tensors = dict(store.items())
        bias = tensors[tensor].copy()
        bias[3] = value  # log-length channel
        tensors[tensor] = bias
        weights = tmp_path / "extreme.pwt"
        fileio.save_weights(str(weights), WeightStore(tensors))
        cfg = tmp_path / "extreme.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG_DICT,
                                   "weights_path": str(weights)}))
        scenes = tmp_path / "scenes"
        assert main(["synth", "--config", config_path, "--scenes", "1",
                     "--out", str(scenes)]) == 0
        out = tmp_path / "dets"
        assert main(["detect", "--config", str(cfg), "--out", str(out),
                     str(scenes / "scene_0000.pbk")]) == 0
        assert capsys.readouterr().err == ""
        dets = fileio.load_detections(str(out / "scene_0000.det.txt"))
        assert dets
        lengths = np.array([d.box.length for d in dets])
        assert np.all(np.isfinite(lengths)) and np.all(lengths > 0)
        # the clamp bounds each decode stage's factor by e^10
        assert lengths.max() <= math.exp(20.0)

    def test_jobs_output_matches_serial(self, tmp_path, config_path):
        scenes = tmp_path / "scenes"
        assert main(["synth", "--config", config_path, "--scenes", "2",
                     "--out", str(scenes)]) == 0
        scene_files = sorted(str(scenes / n) for n in os.listdir(scenes)
                             if n.endswith(".pbk"))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["detect", "--config", config_path, "--out", str(serial),
                     *scene_files]) == 0
        assert main(["detect", "--config", config_path, "--jobs", "2",
                     "--out", str(parallel), *scene_files]) == 0
        names = sorted(os.listdir(serial))
        assert names == sorted(os.listdir(parallel)) and len(names) == 2
        assert any(read_bytes(serial / n) for n in names)
        for n in names:
            assert read_bytes(serial / n) == read_bytes(parallel / n), n

    def test_jobs_workers_share_the_cpus_as_blas_threads(self, monkeypatch):
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        # two workers, each reading the variables it was spawned with
        seen = _map_jobs(os.getenv, names, 2)
        assert seen == [str(max(1, len(os.sched_getaffinity(0)) // 2))] * 3
        assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
        assert "OMP_NUM_THREADS" not in os.environ
        assert os.environ["MKL_NUM_THREADS"] == "3"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_inputs_sharing_a_stem_rejected_before_writing(
            self, tmp_path, config_path, capsys, jobs):
        # both would write s.det.txt, the second over the first
        paths = [str(tmp_path / d / "s.pbk") for d in ("a", "b")]
        for path in paths:
            os.mkdir(os.path.dirname(path))
            fileio.save_point_cloud(path, PointCloud.empty())
        out = tmp_path / "out"
        assert main(["detect", "--config", config_path, "--jobs", jobs,
                     "--out", str(out), *paths]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert paths[0] in err and paths[1] in err
        assert not out.exists()

    def test_out_of_memory_is_one_line_naming_the_stage(self, tmp_path):
        # a +-2000 m grid at 0.1 m: 40,000^2 cells, whose padded neighbour
        # index alone is ~6 GiB. The child's address space is capped at
        # 3 GiB, so the allocation fails at once; never run it uncapped.
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG_DICT, "grid": {
            "x_min": -2000.0, "x_max": 2000.0, "y_min": -2000.0,
            "y_max": 2000.0, "z_min": -2.0, "z_max": 4.0,
            "pillar_size": 0.1}}))
        scene = tmp_path / "two.pbk"
        fileio.save_point_cloud(str(scene), PointCloud(np.array(
            [[0.0, 0.0, 0.0, 0.5], [10.0, -5.0, 1.0, 0.5]])))

        def cap_address_space():
            limit = 3 * 1024 ** 3
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "pillardet.cli", "detect", "--config",
             str(cfg), "--out", str(tmp_path / "d"), str(scene)],
            # one BLAS thread: per-thread buffers stay out of the 3 GiB
            env={**os.environ, "PYTHONPATH": str(src),
                 "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=cap_address_space, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: backbone stage ran out of memory")

    def test_shapes_logged(self, tmp_path, config_path, capsys):
        scene = tmp_path / "empty.pbk"
        fileio.save_point_cloud(str(scene), PointCloud.empty())
        main(["detect", "--config", config_path, "--out", str(tmp_path / "d"),
              str(scene)])
        out = capsys.readouterr().out
        # 25.6 m range at 0.1 m pillars: 256 cells -> C3 64, C4 32, C5 16
        assert "C3=64x64" in out and "C4=32x32" in out and "C5=16x16" in out
        assert "P3=64x64" in out and "pool=64x64" in out


class TestEval:
    def make_scene_pair(self, tmp_path, config_path):
        scenes = tmp_path / "scenes"
        main(["synth", "--config", config_path, "--scenes", "2",
              "--out", str(scenes)])
        dets = tmp_path / "dets"
        dets.mkdir()
        from pillardet.rpn import Detection
        for i in range(2):
            gt = fileio.load_gt(str(scenes / f"scene_{i:04d}.gt.txt"))
            fileio.save_detections(
                str(dets / f"scene_{i:04d}.det.txt"),
                [Detection(g, g.class_id, 1.0, 1.0) for g in gt])
        return scenes, dets

    def test_perfect_detections_score_one(self, tmp_path, config_path, capsys):
        scenes, dets = self.make_scene_pair(tmp_path, config_path)
        report_path = tmp_path / "report.json"
        assert main(["eval", "--config", config_path, "--dets", str(dets),
                     "--gt", str(scenes), "--out", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "vehicle" in out and "L2" in out
        report = json.loads(report_path.read_text())
        for level in ("L1", "L2"):
            for cls in ("vehicle", "pedestrian", "cyclist"):
                assert report[level][cls]["ap"] == 1.0
                assert report[level][cls]["aph"] == 1.0

    def test_scene_count_mismatch_rejected(self, tmp_path, config_path, capsys):
        scenes, dets = self.make_scene_pair(tmp_path, config_path)
        os.unlink(dets / "scene_0001.det.txt")
        assert main(["eval", "--config", config_path, "--dets", str(dets),
                     "--gt", str(scenes)]) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_scene_name_mismatch_rejected_before_reading(self, tmp_path,
                                                         config_path, capsys):
        # dets for scenes 0 and 1 against ground truth for scenes 1 and 2,
        # the second of which is not even a valid file
        scenes, dets = self.make_scene_pair(tmp_path, config_path)
        os.rename(scenes / "scene_0001.gt.txt", scenes / "scene_0002.gt.txt")
        os.rename(scenes / "scene_0000.gt.txt", scenes / "scene_0001.gt.txt")
        (scenes / "scene_0002.gt.txt").write_text("not a ground-truth file\n")
        capsys.readouterr()
        assert main(["eval", "--config", config_path, "--dets", str(dets),
                     "--gt", str(scenes)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "scene_0000.det.txt" in err[0] and "scene_0001.gt.txt" in err[0]


    @pytest.mark.parametrize("bad", ["dets", "gt"])
    def test_unknown_class_id_is_one_io_error_line(self, tmp_path, config_path,
                                                   capsys, bad):
        files = {"dets": tmp_path / "s.det.txt", "gt": tmp_path / "s.gt.txt"}
        box = "1.0 2.0 0.0 4.0 2.0 1.5 0.3"
        class_id = {"dets": 0, "gt": 0, bad: 7}
        files["dets"].write_text(f"{class_id['dets']} {box} 0.9 0.9 0.9\n")
        files["gt"].write_text(f"{class_id['gt']} {box} 20\n")
        assert main(["eval", "--config", config_path, "--dets",
                     str(files["dets"]), "--gt", str(files["gt"])]) == 2
        assert capsys.readouterr().err == (
            f"error: {files[bad]}:1: unknown class id 7\n")


class TestVerify:
    def test_default_budgets_pass(self, config_path, capsys):
        assert main(["verify", "--config", config_path]) == 0
        out = capsys.readouterr().out
        for suite in ("geometry-mc-iou", "sparse-dense-conv", "split-lateral",
                      "pooling-at-cells", "nms-brute-force", "bilinear-fd-grad",
                      "aux-seg-labels", "float32"):
            assert suite in out and "max_err" in out
        assert "all suites passed" in out

    def test_corrupted_kernel_fails_sparse_dense(self, monkeypatch, capsys):
        raise_sparse_conv_weight(monkeypatch)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "sparse-dense-conv  FAIL" in out
        assert "1 suite(s) failed" in out
