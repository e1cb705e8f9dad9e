"""Property tests: corrupt input files keep the CLI's exit-code contract.

Whatever bytes a ``.pbk``, ``.pwt``, ``.gt.txt`` or ``.det.txt`` file
holds, ``cli.main`` returns 2 exactly when the file's loader rejects it
with ``FormatError``, prints a one-line error for any non-zero exit, and
never lets an exception escape.
"""

import io
import json
import struct
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_CONFIG_DICT
from pillardet import cli, fileio
from pillardet.geometry import Box3D
from pillardet.grid import PointCloud
from pillardet.rpn import Detection
from pillardet.weights import WeightStore

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

# field tokens that parse, parse to something invalid, or do not parse
TOKENS = ["0", "1", "2", "7", "-1", "0.5", "1.5", "-2.25", "40", "1e3",
          "1e-300", "inf", "-inf", "nan", "1e400", "car", "0x1", "1_0"]


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
    # a well-formed archive that does not match the config's layout
    fileio.save_weights(str(root / "valid.pwt"), WeightStore(
        {"a.w": np.ones((2, 3)), "a.b": np.zeros(3)}))
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
        # an archive that parses still lacks the config's tensors
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
