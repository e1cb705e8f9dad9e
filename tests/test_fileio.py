import json
import os
import struct

import numpy as np
import pytest

from conftest import SMALL_CONFIG_DICT
from pillardet import fileio
from pillardet.cli import main
from pillardet.geometry import Box3D
from pillardet.grid import PointCloud
from pillardet.rpn import Detection
from pillardet.synth import SceneSpec, generate_scene
from pillardet.weights import WeightStore


class TestPointCloudFormat:
    def test_round_trip(self, tmp_path):
        cloud, _ = generate_scene(SceneSpec(seed=1))
        path = str(tmp_path / "scene.pbk")
        fileio.save_point_cloud(path, cloud)
        loaded = fileio.load_point_cloud(path)
        np.testing.assert_array_equal(loaded.data,
                                      cloud.data.astype("<f4").astype(np.float64))

    def test_written_bytes_are_deterministic(self, tmp_path):
        cloud, _ = generate_scene(SceneSpec(seed=2))
        a, b = str(tmp_path / "a.pbk"), str(tmp_path / "b.pbk")
        fileio.save_point_cloud(a, cloud)
        fileio.save_point_cloud(b, cloud)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_empty_cloud(self, tmp_path):
        path = str(tmp_path / "empty.pbk")
        fileio.save_point_cloud(path, PointCloud.empty())
        assert len(fileio.load_point_cloud(path)) == 0

    def test_magic_mismatch(self, tmp_path):
        path = str(tmp_path / "bad.pbk")
        with open(path, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 16)
        with pytest.raises(fileio.FormatError, match="magic"):
            fileio.load_point_cloud(path)

    def test_truncation_detected(self, tmp_path):
        cloud, _ = generate_scene(SceneSpec(seed=3))
        path = str(tmp_path / "trunc.pbk")
        fileio.save_point_cloud(path, cloud)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[:-7])
        with pytest.raises(fileio.FormatError):
            fileio.load_point_cloud(path)


class TestWeightFormat:
    def test_round_trip_exact_for_f32_values(self, tmp_path):
        rng = np.random.default_rng(4)
        store = WeightStore({
            "a.w": rng.normal(size=(3, 3, 2, 4)).astype(np.float32),
            "a.b": rng.normal(size=(4,)).astype(np.float32),
            "m.w": rng.normal(size=(8, 2)).astype(np.float32),
        })
        path = str(tmp_path / "w.pwt")
        fileio.save_weights(path, store)
        loaded = fileio.load_weights(path)
        assert loaded.names() == store.names()
        for name in store.names():
            np.testing.assert_array_equal(loaded.get(name), store.get(name))

    def test_magic_mismatch(self, tmp_path):
        path = str(tmp_path / "bad.pwt")
        with open(path, "wb") as f:
            f.write(b"XXXX\x00\x00\x00\x00")
        with pytest.raises(fileio.FormatError, match="magic"):
            fileio.load_weights(path)

    def test_trailing_garbage_detected(self, tmp_path):
        store = WeightStore({"a.b": np.zeros(3, dtype=np.float32)})
        path = str(tmp_path / "t.pwt")
        fileio.save_weights(path, store)
        with open(path, "ab") as f:
            f.write(b"\x00\x00")
        with pytest.raises(fileio.FormatError, match="trailing"):
            fileio.load_weights(path)


class TestTextFormats:
    def test_gt_round_trip(self, tmp_path):
        _, gt = generate_scene(SceneSpec(seed=5))
        path = str(tmp_path / "scene.gt.txt")
        fileio.save_gt(path, gt)
        loaded = fileio.load_gt(path)
        assert len(loaded) == len(gt)
        for a, b in zip(loaded, gt):
            assert a.class_id == b.class_id and a.num_points == b.num_points
            assert a.cx == pytest.approx(b.cx, abs=5e-7)
            assert a.yaw == pytest.approx(b.yaw, abs=5e-7)

    def test_detection_round_trip(self, tmp_path):
        dets = [Detection(Box3D(1.25, -3.5, 0.2, 4.0, 2.0, 1.5, 0.75,
                                class_id=1), 1, 0.875, 0.5, 0.75)]
        path = str(tmp_path / "d.det.txt")
        fileio.save_detections(path, dets)
        (loaded,) = fileio.load_detections(path)
        assert loaded.class_id == 1
        assert loaded.score == 0.875
        assert loaded.iou_score == 0.5
        assert loaded.rectified_score == 0.75

    def test_malformed_line_rejected(self, tmp_path):
        path = str(tmp_path / "bad.gt.txt")
        with open(path, "w") as f:
            f.write("0 1.0 2.0\n")
        with pytest.raises(fileio.FormatError, match="expected 9 fields"):
            fileio.load_gt(path)


    def test_non_utf8_text_names_file_and_line(self, tmp_path):
        for name, loader in (("bad.gt.txt", fileio.load_gt),
                             ("bad.det.txt", fileio.load_detections)):
            path = str(tmp_path / name)
            with open(path, "wb") as f:
                f.write(b"\n\xff\xfe 1 2\n")
            with pytest.raises(fileio.FormatError,
                               match=f"{name}:2: not UTF-8"):
                loader(path)

    def test_non_numeric_class_names_file_and_line(self, tmp_path):
        path = str(tmp_path / "bad.det.txt")
        with open(path, "w") as f:
            f.write("car 1 2 0 4 2 1.5 0 0.5 0.5 0.5\n")
        with pytest.raises(fileio.FormatError, match="bad.det.txt:1: .*'car'"):
            fileio.load_detections(path)

    @pytest.mark.parametrize("field", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_field_rejected(self, tmp_path, field):
        path = str(tmp_path / "bad.gt.txt")
        with open(path, "w") as f:
            f.write(f"0 1.0 2.0 0.0 {field} 2.0 1.5 0.0 10\n")
        with pytest.raises(fileio.FormatError, match="bad.gt.txt:1: non-finite"):
            fileio.load_gt(path)

    def test_out_of_range_score_is_format_error(self, tmp_path):
        path = str(tmp_path / "bad.det.txt")
        with open(path, "w") as f:
            f.write("0 1 2 0 4 2 1.5 0 1.5 0.5 0.5\n")
        with pytest.raises(fileio.FormatError, match="bad.det.txt:1: score"):
            fileio.load_detections(path)


class TestBinaryCorruption:
    def test_non_finite_point_rejected(self, tmp_path):
        path = str(tmp_path / "nan.pbk")
        with open(path, "wb") as f:
            f.write(fileio.POINT_CLOUD_MAGIC + struct.pack("<I", 1)
                    + struct.pack("<4f", 0.0, float("nan"), 0.0, 0.0))
        with pytest.raises(fileio.FormatError, match="non-finite"):
            fileio.load_point_cloud(path)

    def test_weight_archive_without_count(self, tmp_path):
        path = str(tmp_path / "short.pwt")
        with open(path, "wb") as f:
            f.write(fileio.WEIGHTS_MAGIC + b"\x01")
        with pytest.raises(fileio.FormatError, match="truncated"):
            fileio.load_weights(path)

    @pytest.mark.parametrize("names,value,problem", [
        ([b"a.\xff"], 0.0, r"name b'a.\\xff' is not UTF-8"),
        ([b"a.b", b"c.d", b"a.b"], 0.0, "name 'a.b' occurs twice"),
        ([b"a\nb"], float("nan"), r"'a\\nb' contains non-finite"),
    ], ids=["non-utf8-name", "duplicate-name", "newline-in-name"])
    def test_bad_tensor_name_is_one_io_error_line(self, tmp_path, capsys,
                                                  names, value, problem):
        # each tensor is a well-formed (1,) float32 holding ``value``
        blob = fileio.WEIGHTS_MAGIC + struct.pack("<I", len(names)) + b"".join(
            struct.pack("<H", len(n)) + n + struct.pack("<BIf", 1, 1, value)
            for n in names)
        weights = tmp_path / "bad.pwt"
        weights.write_bytes(blob)
        with pytest.raises(fileio.FormatError, match=problem):
            fileio.load_weights(str(weights))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG_DICT,
                                   "weights_path": str(weights)}))
        scene = tmp_path / "empty.pbk"
        fileio.save_point_cloud(str(scene), PointCloud.empty())
        assert main(["detect", "--config", str(cfg), "--out",
                     str(tmp_path / "d"), str(scene)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        fileio.atomic_write_text(str(tmp_path / "out.txt"), "hello\n")
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]
        assert open(tmp_path / "out.txt").read() == "hello\n"
