"""On-disk formats: point clouds, weight archives, boxes and detections.

Binary layouts are little-endian throughout. Point clouds use magic
``PBK1``: a u32 point count followed by count x 4 f32 (x, y, z,
intensity). Weight archives use magic ``PWT1``: a u32 tensor count, then
per tensor a u16 name length, the UTF-8 name, a u8 rank, rank u32 dims,
and the f32 payload, loaded as float32. Ground truth and detections are
line-oriented text whose floats are written in Python's shortest
round-trip form (``repr``), so loading gives back every field bit-equal,
however small or large. All writers go through a
temp-file rename so readers never observe partial files. Every structural
problem a reader finds (bad magic, truncation, non-UTF-8 text, a
malformed or non-finite field or weight value) raises
:class:`FormatError` naming the file, and the line for text.
"""

from __future__ import annotations

import io
import math
import os
import struct
import tempfile
from typing import Sequence

import numpy as np

from .geometry import Box3D
from .grid import PointCloud
from .rpn import Detection
from .weights import WeightStore

POINT_CLOUD_MAGIC = b"PBK1"
WEIGHTS_MAGIC = b"PWT1"


class FormatError(ValueError):
    """Raised when a file fails structural validation."""


def atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# -- point clouds -----------------------------------------------------------


def save_point_cloud(path: str, cloud: PointCloud) -> None:
    payload = (POINT_CLOUD_MAGIC + struct.pack("<I", len(cloud))
               + cloud.data.astype("<f4").tobytes())
    atomic_write_bytes(path, payload)


def load_point_cloud(path: str) -> PointCloud:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != POINT_CLOUD_MAGIC:
        raise FormatError(f"{path}: bad point-cloud magic {blob[:4]!r}")
    if len(blob) < 8:
        raise FormatError(f"{path}: truncated header")
    (count,) = struct.unpack_from("<I", blob, 4)
    expected = 8 + count * 16
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(blob)}")
    data = np.frombuffer(blob, dtype="<f4", offset=8).reshape(count, 4)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: non-finite point coordinates")
    return PointCloud(data.astype(np.float64))


# -- weight archives --------------------------------------------------------


def save_weights(path: str, store: WeightStore) -> None:
    parts = [WEIGHTS_MAGIC, struct.pack("<I", len(store.names()))]
    for name in store.names():
        arr = store.get(name)
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype("<f4").tobytes())
    atomic_write_bytes(path, b"".join(parts))


def load_weights(path: str) -> WeightStore:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != WEIGHTS_MAGIC:
        raise FormatError(f"{path}: bad weight-archive magic {blob[:4]!r}")
    offset = 8
    tensors: dict[str, np.ndarray] = {}
    try:
        (count,) = struct.unpack_from("<I", blob, 4)
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            raw_name = blob[offset:offset + name_len]
            name = raw_name.decode("utf-8")
            if name in tensors:
                raise FormatError(f"{path}: weight tensor name {name!r} "
                                  "occurs twice")
            offset += name_len
            (rank,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            dims = struct.unpack_from(f"<{rank}I", blob, offset)
            offset += 4 * rank
            size = int(np.prod(dims)) if rank else 1
            arr = np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
            offset += 4 * size
            tensors[name] = arr.reshape(dims).astype(np.float32)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: weight tensor name {raw_name!r} is "
                          "not UTF-8") from None
    except FormatError:
        raise
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: truncated weight archive") from exc
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes")
    for name, arr in tensors.items():
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: weight tensor {name!r} contains "
                              "non-finite values")
    return WeightStore(tensors)


# -- ground-truth boxes -----------------------------------------------------


def _floats(*values: float) -> str:
    """Space-separated shortest round-trip forms of ``values``."""
    return " ".join(repr(float(v)) for v in values)


def _box_fields(b: Box3D) -> str:
    return _floats(b.cx, b.cy, b.cz, b.length, b.width, b.height, b.yaw)


def format_gt(boxes: Sequence[Box3D]) -> str:
    return "".join(f"{b.class_id} {_box_fields(b)} {b.num_points}\n"
                   for b in boxes)


def save_gt(path: str, boxes: Sequence[Box3D]) -> None:
    atomic_write_text(path, format_gt(boxes))


def _records(path: str, n_fields: int):
    """``(line number, fields)`` of each non-blank line of a text file."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = blob.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{line_no}: not UTF-8 text") from None
    for line_no, line in enumerate(io.StringIO(text, newline=None), 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != n_fields:
            raise FormatError(f"{path}:{line_no}: expected {n_fields} fields, "
                              f"got {len(fields)}")
        yield line_no, fields


def _finite(fields: Sequence[str]) -> list[float]:
    values = [float(v) for v in fields]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("non-finite value")
    return values


def load_gt(path: str) -> list[Box3D]:
    boxes = []
    for line_no, fields in _records(path, 9):
        try:
            boxes.append(Box3D(*_finite(fields[1:8]), class_id=int(fields[0]),
                               num_points=int(fields[8])))
        except ValueError as exc:
            raise FormatError(f"{path}:{line_no}: {exc}") from None
    return boxes


# -- detections -------------------------------------------------------------


def format_detections(dets: Sequence[Detection]) -> str:
    return "".join(f"{d.class_id} {_box_fields(d.box)} "
                   f"{_floats(d.score, d.iou_score, d.rectified_score)}\n"
                   for d in dets)


def save_detections(path: str, dets: Sequence[Detection]) -> None:
    atomic_write_text(path, format_detections(dets))


def load_detections(path: str) -> list[Detection]:
    dets = []
    for line_no, fields in _records(path, 11):
        try:
            class_id = int(fields[0])
            values = _finite(fields[1:])
            dets.append(Detection(Box3D(*values[:7], class_id=class_id),
                                  class_id, *values[7:]))
        except ValueError as exc:
            raise FormatError(f"{path}:{line_no}: {exc}") from None
    return dets
