"""Property tests: corrupt input files keep the CLI's exit-code contract.

Whatever bytes a ``.pbk``, ``.pwt``, ``.gt.txt`` or ``.det.txt`` file
holds, ``cli.main`` returns 2 exactly when the file's loader rejects it
with ``FormatError``, prints a one-line error for any non-zero exit, and
never lets an exception escape. Extreme but finite weights, which can
overflow the float32 maps, end in exit 0 or one error line, and so does
any JSON value in a config field, with the error naming the field.
"""

import io
import json
import math
import struct
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_CONFIG_DICT
from pillardet import cli, fileio
from pillardet.config import (CLASS_IDS, CLASS_NAMES, PipelineConfig,
                              config_from_dict, weight_layout)
from pillardet.geometry import Box3D
from pillardet.grid import GridSpec, PointCloud
from pillardet.metrics import evaluate_levels
from pillardet.pipeline import DetectionPipeline
from pillardet.rpn import Detection
from pillardet.synth import SceneSpec, generate_scene
from pillardet.weights import WeightStore

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

# field tokens that parse, parse to something invalid, or do not parse
TOKENS = ["0", "1", "2", "7", "-1", "0.5", "1.5", "-2.25", "40", "1e3",
          "1e-300", "inf", "-inf", "nan", "1e400", "car", "0x1", "1_0"]


# a well-formed archive that does not match the config's layout
VALID_WEIGHTS = {"a.w": np.ones((2, 3)), "a.b": np.zeros(3)}
VALID_WEIGHTS_SIZE = sum(a.size for a in VALID_WEIGHTS.values())


# extreme-weight runs use a tiny +-6.4 m grid (128x128 pillars) to stay cheap
TINY_CONFIG = {**SMALL_CONFIG_DICT, "grid": {
    **SMALL_CONFIG_DICT["grid"], "x_min": -6.4, "x_max": 6.4,
    "y_min": -6.4, "y_max": 6.4}}
TINY_TENSORS = sorted(weight_layout(config_from_dict(TINY_CONFIG)))
F32_MAX = float(np.finfo(np.float32).max)


def value_offsets(tensors: dict) -> list[int]:
    """Byte offset of every tensor value in the tensors' ``.pwt`` file."""
    offsets, pos = [], 8
    for name in sorted(tensors):
        arr = tensors[name]
        pos += 2 + len(name.encode("utf-8")) + 1 + 4 * arr.ndim
        offsets += range(pos, pos + 4 * arr.size, 4)
        pos += 4 * arr.size
    return offsets


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def rejects(loader, path) -> bool:
    try:
        loader(path)
    except fileio.FormatError:
        return True
    return False


def assert_reported(code: int, err: str) -> None:
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1, err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("props")
    config = root / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG_DICT))
    weights_config = root / "weights.json"
    weights_config.write_text(json.dumps({**SMALL_CONFIG_DICT,
                                          "weights_path": str(root / "w.pwt")}))
    empty_scene = root / "empty.pbk"
    fileio.save_point_cloud(str(empty_scene), PointCloud.empty())
    points = np.random.default_rng(0).uniform(-12, 12, size=(6, 4))
    fileio.save_point_cloud(str(root / "valid.pbk"), PointCloud(points))
    fileio.save_weights(str(root / "valid.pwt"), WeightStore(VALID_WEIGHTS))
    box = Box3D(1.0, 2.0, 0.0, 4.0, 2.0, 1.5, 0.3, class_id=0, num_points=20)
    fileio.save_gt(str(root / "valid.gt.txt"), [box])
    fileio.save_detections(str(root / "valid.det.txt"),
                           [Detection(box, 0, 0.9, 0.8)])
    return {"root": root, "config": str(config),
            "weights_config": str(weights_config),
            "empty_scene": str(empty_scene)}


def valid_bytes(files, name: str) -> bytes:
    return (files["root"] / name).read_bytes()


def lines_of(n_fields: int):
    line = st.lists(st.sampled_from(TOKENS), min_size=n_fields - 1,
                    max_size=n_fields + 1).map(" ".join)
    return st.lists(line, max_size=4).map(lambda ls: "\n".join(ls).encode())


def text_bytes(n_fields: int):
    return st.one_of(st.binary(max_size=80),
                     st.text(max_size=80).map(lambda t: t.encode("utf-8")),
                     lines_of(n_fields))


class TestPointCloudFiles:
    def detect(self, files, blob: bytes) -> None:
        scene = files["root"] / "scene.pbk"
        scene.write_bytes(blob)
        code, err = run_cli(["detect", "--config", files["config"], "--out",
                             str(files["root"] / "dets"), str(scene)])
        assert code == (2 if rejects(fileio.load_point_cloud, str(scene)) else 0)
        assert_reported(code, err)

    @PROPERTY
    @given(blob=st.binary(max_size=64))
    def test_arbitrary_bytes(self, files, blob):
        self.detect(files, blob)

    @PROPERTY
    @given(cut=st.integers(0, 8 + 6 * 16 - 1))
    def test_truncated_file(self, files, cut):
        self.detect(files, valid_bytes(files, "valid.pbk")[:cut])

    @settings(PROPERTY, max_examples=15)
    @given(payload=st.integers(0, 3).flatmap(
        lambda n: st.binary(min_size=16 * n, max_size=16 * n)))
    def test_valid_header_arbitrary_points(self, files, payload):
        header = fileio.POINT_CLOUD_MAGIC + struct.pack("<I", len(payload) // 16)
        self.detect(files, header + payload)


class TestWeightFiles:
    def detect(self, files, blob: bytes) -> None:
        weights = files["root"] / "w.pwt"
        weights.write_bytes(blob)
        code, err = run_cli(["detect", "--config", files["weights_config"],
                             "--out", str(files["root"] / "dets"),
                             files["empty_scene"]])
        # an archive that parses (finite values included) still lacks the
        # config's tensors
        assert code == (2 if rejects(fileio.load_weights, str(weights)) else 1)
        assert_reported(code, err)

    @PROPERTY
    @given(blob=st.binary(max_size=64))
    def test_arbitrary_bytes(self, files, blob):
        self.detect(files, blob)

    @PROPERTY
    @given(blob=st.binary(max_size=48))
    def test_valid_magic_arbitrary_body(self, files, blob):
        self.detect(files, fileio.WEIGHTS_MAGIC + blob)

    @PROPERTY
    @given(cut=st.integers(0, 200))
    def test_truncated_file(self, files, cut):
        blob = valid_bytes(files, "valid.pwt")
        self.detect(files, blob[:min(cut, len(blob) - 1)])

    @PROPERTY
    @given(index=st.integers(0, VALID_WEIGHTS_SIZE - 1),
           bits=st.integers(0, 2 ** 32 - 1))
    def test_arbitrary_tensor_value(self, files, index, bits):
        # any f4 bit pattern as one value of a well-formed archive: a NaN
        # or an infinity is a corrupt file (exit 2), like a NaN point
        blob = bytearray(valid_bytes(files, "valid.pwt"))
        at = value_offsets(VALID_WEIGHTS)[index]
        blob[at:at + 4] = struct.pack("<I", bits)
        self.detect(files, bytes(blob))
        (value,) = struct.unpack_from("<f", blob, at)
        assert rejects(fileio.load_weights, str(files["root"] / "w.pwt")) == (
            not math.isfinite(value))


@pytest.fixture(scope="module")
def extreme(tmp_path_factory):
    root = tmp_path_factory.mktemp("extreme")
    config = config_from_dict(TINY_CONFIG)
    (root / "config.json").write_text(json.dumps(
        {**TINY_CONFIG, "weights_path": str(root / "w.pwt")}))
    cloud, _ = generate_scene(SceneSpec(seed=5, counts={0: 2, 1: 3, 2: 2}),
                              config.grid)
    fileio.save_point_cloud(str(root / "scene.pbk"), cloud)
    return root, WeightStore.seeded(weight_layout(config), config.seed)


def report_of(levels) -> dict:
    """``evaluate_levels`` output in the layout of ``eval --out``."""
    return {level: {CLASS_NAMES[c]: {"ap": m.ap, "aph": m.aph,
                                     "num_gt": m.num_gt, "valid": m.valid}
                    for c, m in per_class.items()}
            for level, per_class in levels.items()}


def eval_report(root, config: str, det_path, gt_path) -> dict:
    """``eval --out`` of one detection file against one ground-truth file."""
    code, err = run_cli(["eval", "--config", config, "--dets", str(det_path),
                         "--gt", str(gt_path), "--out", str(root / "r.json")])
    assert (code, err) == (0, "")
    return json.loads((root / "r.json").read_text())


class TestExtremeWeights:
    """One tensor scaled by 10^k (k <= 38, finite in float32, as seeded
    values lie in [-1, 1]) or set to +-float32 max: the run exits 0
    and writes only finite detections, or exits 1 with one error line.
    Overflow never surfaces as a warning."""

    @settings(PROPERTY, max_examples=30)
    @given(name=st.sampled_from(TINY_TENSORS), k=st.integers(0, 38),
           sign=st.sampled_from([1.0, -1.0]), saturate=st.booleans())
    def test_exit_code_and_finite_output(self, extreme, name, k, sign,
                                         saturate):
        root, store = extreme
        tensors = dict(store.items())
        t = tensors[name]
        tensors[name] = (np.full_like(t, sign * F32_MAX) if saturate
                         else t * np.float32(sign * 10.0 ** k))
        fileio.save_weights(str(root / "w.pwt"), WeightStore(tensors))
        dets = root / "dets" / "scene.det.txt"
        dets.unlink(missing_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = run_cli(["detect", "--config", str(root / "config.json"),
                                 "--out", str(root / "dets"),
                                 str(root / "scene.pbk")])
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 1)
        assert_reported(code, err)
        if code == 0:
            for line in dets.read_text().splitlines():
                assert all(math.isfinite(float(v)) for v in line.split()), line


GROUND_TRUTH = [Box3D(1.0, 2.0, 0.0, 4.0, 2.0, 1.5, 0.3, class_id=0,
                      num_points=20),
                Box3D(-3.0, -1.0, 0.2, 0.8, 0.6, 1.7, -1.2, class_id=1,
                      num_points=8),
                Box3D(4.0, -4.0, -0.1, 1.8, 0.7, 1.6, 2.5, class_id=2,
                      num_points=1)]
# the clamped extents a decode can produce (e^-20 passes two clamps)
CLAMPED = [math.exp(-20.0), math.exp(-10.0), math.exp(10.0)]
extents = st.one_of(st.floats(1e-12, 10.0), st.sampled_from(CLAMPED))
unit = st.floats(0.0, 1.0)


@st.composite
def detections(draw):
    class_id = draw(st.integers(0, 2))
    box = Box3D(draw(st.floats(-8.0, 8.0)), draw(st.floats(-8.0, 8.0)),
                draw(st.floats(-2.0, 2.0)), draw(extents), draw(extents),
                draw(extents), draw(st.floats(-4.0, 4.0)), class_id=class_id)
    return Detection(box, class_id, draw(unit), draw(unit), draw(unit))


class TestDetectionFiles:
    """A written detection file evaluates exactly like the detections it
    was written from: every field loads back bit-equal."""

    @PROPERTY
    @given(dets=st.lists(detections(), max_size=6))
    def test_eval_of_written_file_equals_in_memory(self, files, dets):
        root = files["root"]
        fileio.save_detections(str(root / "p.det.txt"), dets)
        assert fileio.load_detections(str(root / "p.det.txt")) == dets
        fileio.save_gt(str(root / "p.gt.txt"), GROUND_TRUTH)
        assert fileio.load_gt(str(root / "p.gt.txt")) == GROUND_TRUTH
        cfg = config_from_dict(SMALL_CONFIG_DICT)
        assert eval_report(root, files["config"], root / "p.det.txt",
                           root / "p.gt.txt") == report_of(
            evaluate_levels([dets], [GROUND_TRUTH], cfg.eval_iou))

    def test_clamped_extent_loads_back(self, tmp_path):
        box = Box3D(1.0, 2.0, 0.0, math.exp(-20.0), 2.0, 1.5, 0.3)
        dets = [Detection(box, 0, 0.5, 0.25)]
        fileio.save_detections(str(tmp_path / "d.det.txt"), dets)
        assert fileio.load_detections(str(tmp_path / "d.det.txt")) == dets

    def test_extreme_weight_run_evaluates_like_its_detections(self, extreme):
        # this bias x1e7 drives the decoded extents into their clamp
        root, store = extreme
        tensors = dict(store.items())
        tensors["backbone.s1.subm.b"] = tensors["backbone.s1.subm.b"] * np.float32(1e7)
        fileio.save_weights(str(root / "w.pwt"), WeightStore(tensors))
        code, err = run_cli(["detect", "--config", str(root / "config.json"),
                             "--out", str(root / "dets"),
                             str(root / "scene.pbk")])
        assert (code, err) == (0, "")
        cfg = config_from_dict(TINY_CONFIG)
        cloud, gt = generate_scene(SceneSpec(seed=5, counts={0: 2, 1: 3, 2: 2}),
                                   cfg.grid)
        dets = DetectionPipeline(cfg, WeightStore(tensors)).run(cloud).detections
        assert min(d.box.length for d in dets) < 5e-7
        fileio.save_gt(str(root / "scene.gt.txt"), gt)
        assert eval_report(root, str(root / "config.json"),
                           root / "dets" / "scene.det.txt",
                           root / "scene.gt.txt") == report_of(
            evaluate_levels([dets], [gt], cfg.eval_iou))


class TestTextFiles:
    def evaluate(self, files, blob: bytes, suffix: str) -> None:
        path = files["root"] / f"scene{suffix}"
        path.write_bytes(blob)
        if suffix == ".gt.txt":
            argv = ["--dets", str(files["root"] / "valid.det.txt"),
                    "--gt", str(path)]
            loader = fileio.load_gt
        else:
            argv = ["--dets", str(path),
                    "--gt", str(files["root"] / "valid.gt.txt")]
            loader = fileio.load_detections
        code, err = run_cli(["eval", "--config", files["config"], *argv])
        if rejects(loader, str(path)):
            assert code == 2
        else:
            assert code in (0, 1)
        assert_reported(code, err)

    @PROPERTY
    @given(blob=text_bytes(9))
    def test_ground_truth_bytes(self, files, blob):
        self.evaluate(files, blob, ".gt.txt")

    @PROPERTY
    @given(blob=text_bytes(11))
    def test_detection_bytes(self, files, blob):
        self.evaluate(files, blob, ".det.txt")

    @PROPERTY
    @given(cut=st.integers(0, 120), suffix=st.sampled_from([".gt.txt",
                                                            ".det.txt"]))
    def test_truncated_file(self, files, cut, suffix):
        self.evaluate(files, valid_bytes(files, "valid" + suffix)[:cut], suffix)


# any JSON value (NaN and +-Infinity included), with a share of values that
# some field accepts
json_values = st.sampled_from(
    [0, 1, 2, 4, 8, 16, 0.5, 1.0, True, False, None, "w.pwt", [1, 2],
     [64, 64], [16, 32, 64, 128, 256], {"vehicle": 4}]) | st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers() | st.sampled_from([0, 1, 2, 4, 8, 16, 0.5, 1.0, -1]),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(
        st.sampled_from([*CLASS_IDS, *(f.name for f in fields(GridSpec))])
        | st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
CLASS_MAPS = ["beta", "nms_iou", "top_k", "eval_iou", "class_strides"]
# (top-level field, entry): one field, one grid entry or one class-map entry
TARGETS = ([(f.name, None) for f in fields(PipelineConfig)]
           + [("grid", f.name) for f in fields(GridSpec)]
           + [(m, c) for m in CLASS_MAPS for c in CLASS_IDS])


class TestOddConfigs:
    """``synth --scenes 0`` reads and validates the config and builds no
    weights or scene: any config exits 0, or 1 with one error line that
    names the field."""

    def synth(self, files, raw: dict) -> tuple[int, str]:
        config = files["root"] / "odd.json"
        config.write_text(json.dumps(raw))
        code, err = run_cli(["synth", "--config", str(config), "--scenes", "0",
                             "--out", str(files["root"] / "synth")])
        assert code in (0, 1)
        assert_reported(code, err)
        return code, err

    @settings(PROPERTY, max_examples=200)
    @given(target=st.sampled_from(TARGETS), value=json_values)
    def test_any_json_value_in_one_field(self, files, target, value):
        name, entry = target
        raw = json.loads(json.dumps(SMALL_CONFIG_DICT))
        if entry is None:
            raw[name] = value
        else:
            raw[name] = {**raw.get(name, {}), entry: value}
        code, err = self.synth(files, raw)
        assert code == 0 or name in err, err

    @PROPERTY
    @given(nx=st.sampled_from([8, 16, 24, 32]), ny=st.sampled_from([16, 32]),
           pillar=st.sampled_from([0.1, 0.16, 0.5]),
           pool_stride=st.sampled_from([2, 4, 8]),
           strides=st.none() | st.lists(st.sampled_from([1, 2, 3, 4, 8, 16]),
                                        max_size=4))
    def test_small_grids_and_pool_stride_limits(self, files, nx, ny, pillar,
                                                pool_stride, strides):
        grid = {"x_min": -nx * pillar / 2, "x_max": nx * pillar / 2,
                "y_min": 0.0, "y_max": ny * pillar, "pillar_size": pillar}
        code, err = self.synth(files, {**SMALL_CONFIG_DICT, "grid": grid,
                                       "pool_stride": pool_stride,
                                       "pool_bottom_up_strides": strides})
        strides_ok = (all(s in (1, 2, 4, 8) and s <= pool_stride
                          for s in strides or ())
                      and len(set(strides or ())) == len(strides or ()))
        if not strides_ok:
            assert "pool_bottom_up_strides" in err
        elif nx % 16:
            assert err.startswith("error: grid: ")
        else:
            assert code == 0


@pytest.mark.parametrize("exc", [OverflowError("math range error"),
                                 ZeroDivisionError("float division by zero"),
                                 FloatingPointError("overflow encountered")])
def test_arithmetic_error_is_validation_exit(files, monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "evaluate_levels", fail)
    code = cli.main(["eval", "--config", files["config"],
                     "--dets", str(files["root"] / "valid.det.txt"),
                     "--gt", str(files["root"] / "valid.gt.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {exc}\n"
