"""Span recorder for the traced benchmark run.

The traced run wraps public package functions at the module attributes
through which the package calls them (``pillardet.pipeline.nms_3d``,
``pillardet.fpn.dense_conv2d``, ...), records one span per call, and puts
the originals back when the operation ends. Nothing under ``src/`` knows
about it. Spans live in flat arrays while the run lasts and are written
out once at the end.

A span holds a name, start, end, parent span, the benchmark operation it
belongs to (one scene, or one post-processing pass), a scene id, and the
multiply-accumulates of the call when the call is a convolution. MACs are
computed from argument and result shapes (dense and transposed convs) or
from a rulebook count made after the operation (sparse convs), so they are
labelled as computed, not measured.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

class SpanRecorder:
    """Flat span storage plus per-operation captures and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.scene = array("i")
        self.macs = array("d")
        self._stack: list[int] = []
        self.current_op = -1
        self.current_scene = -1
        # per operation: last result of selected calls, summed counters and
        # work deferred until the operation's root span has closed
        self.captures: dict[str, object] = {}
        self.counts: dict[str, float] = {}
        self._deferred: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.scene.append(self.current_scene)
        self.macs.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """``fn`` with a span around every call; ``hook`` runs after it."""
        nid = self.name_id(name)
        rec = self

        def traced(*args, **kwargs):
            i = rec.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if hook is not None:
                hook(rec, i, args, kwargs, out)
            return out

        return traced

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def defer(self, fn) -> None:
        self._deferred.append(fn)

    @contextmanager
    def operation(self, root: str, op: int):
        """Root span of one benchmark operation, with the package patched."""
        self.current_op = op
        self.captures = {}
        self.counts = {}
        self._deferred = []
        with instrument(self):
            i = self.open(self.name_id(root))
            try:
                yield
            finally:
                self.close(i)
        for fn in self._deferred:
            fn()
        self._deferred = []

    def save(self, path) -> None:
        t = SpanTable(self)
        np.savez(path, names=np.array(self.names), name=t.name, start=t.start,
                 end=t.end, parent=t.parent, op=t.op, scene=t.scene,
                 macs=t.macs)


class SpanTable:
    """NumPy view of the recorded spans with durations and self times."""

    def __init__(self, rec: SpanRecorder):
        self.names = list(rec.names)
        self.name = np.frombuffer(rec.name, dtype=np.int32).copy()
        self.start = np.frombuffer(rec.start, dtype=np.float64).copy()
        self.end = np.frombuffer(rec.end, dtype=np.float64).copy()
        self.parent = np.frombuffer(rec.parent, dtype=np.int32).copy()
        self.op = np.frombuffer(rec.op, dtype=np.int32).copy()
        self.scene = np.frombuffer(rec.scene, dtype=np.int32).copy()
        self.macs = np.frombuffer(rec.macs, dtype=np.float64).copy()
        self.dur = self.end - self.start
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur[child],
                              minlength=len(self.dur))
        # children of one span never overlap: calls are strictly nested
        self.self_time = self.dur - covered

    def for_op(self, op: int) -> "OpSpans":
        return OpSpans(self, self.op == op)


class OpSpans:
    """Per-name totals of the spans of one operation."""

    def __init__(self, table: SpanTable, mask: np.ndarray):
        n = len(table.names)
        ids = table.name[mask]
        self._ids = {name: i for i, name in enumerate(table.names)}
        self._calls = np.bincount(ids, minlength=n)
        self._total = np.bincount(ids, weights=table.dur[mask], minlength=n)
        self._self = np.bincount(ids, weights=table.self_time[mask], minlength=n)
        self._macs = np.bincount(ids, weights=table.macs[mask], minlength=n)
        parents = table.parent[mask]
        has_parent = parents >= 0
        parent_names = np.full(len(ids), -1)
        parent_names[has_parent] = table.name[parents[has_parent]]
        self._pairs = (ids, parent_names)

    def _get(self, arr, name: str) -> float:
        i = self._ids.get(name)
        return float(arr[i]) if i is not None else 0.0

    def total(self, name: str) -> float:
        return self._get(self._total, name)

    def calls(self, name: str) -> int:
        return int(self._get(self._calls, name))

    def self_time(self, *names: str) -> float:
        return sum(self._get(self._self, n) for n in names)

    def macs(self, name: str) -> float:
        return self._get(self._macs, name)

    def calls_under(self, name: str, parent: str) -> int:
        """Calls of ``name`` made directly from a span named ``parent``."""
        if name not in self._ids or parent not in self._ids:
            return 0
        ids, parent_names = self._pairs
        return int(np.count_nonzero((ids == self._ids[name])
                                    & (parent_names == self._ids[parent])))

    def self_by_layer(self) -> dict[str, float]:
        """Self time summed by layer, the span name's module prefix."""
        out: dict[str, float] = {}
        for name, i in self._ids.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(self._self[i])
        return out


# -- hooks: counts and computed MACs taken from arguments and results ------


def _capture(key):
    def hook(rec, i, args, kwargs, out):
        rec.captures[key] = (args, out)
    return hook


def _dense_conv_macs(rec, i, args, kwargs, out):
    h_out, w_out, c_out = out.shape
    rec.macs[i] = float(h_out * w_out * 9 * args[0].shape[2] * c_out)


def _deconv_macs(rec, i, args, kwargs, out):
    h, w, c_in = args[0].shape
    rec.macs[i] = float(4 * h * w * c_in * out.shape[2])


def sparse_conv_pairs(coords_in: np.ndarray, coords_out: np.ndarray,
                      ny_out: int, nx_out: int, stride: int) -> int:
    """Matched (input site, output site, kernel offset) triples of a 3x3 conv.

    Counted from coordinates alone: input (ix, iy) feeds output
    ((ix + 1 - kx) / stride, (iy + 1 - ky) / stride) when that divides
    exactly, lands in the grid and is an active output site.
    """
    out_keys = coords_out[:, 0] * ny_out + coords_out[:, 1]
    pairs = 0
    for ky in range(3):
        for kx in range(3):
            ox = coords_in[:, 0] + 1 - kx
            oy = coords_in[:, 1] + 1 - ky
            ok = (ox % stride == 0) & (oy % stride == 0)
            ox, oy = ox // stride, oy // stride
            ok &= (ox >= 0) & (ox < nx_out) & (oy >= 0) & (oy < ny_out)
            pairs += int(np.count_nonzero(np.isin(ox[ok] * ny_out + oy[ok],
                                                  out_keys)))
    return pairs


def _sparse_conv_work(rec, i, args, kwargs, out):
    vin, weight = args[0], args[1]
    stride = out.stride // vin.stride
    rec.count("grid.sparse_sites_out", out.n_active)

    def count_pairs():
        pairs = sparse_conv_pairs(vin.coords, out.coords, out.ny, out.nx,
                                  stride)
        rec.macs[i] = float(pairs * weight.shape[2] * weight.shape[3])

    rec.defer(count_pairs)


def nms_counts(rec, i, args, kwargs, out):
    rec.count("rpn.proposals_pre_nms", len(args[0]))
    rec.count("rpn.proposals_post_nms", len(out))
    rec.captures.setdefault("rpn.nms_3d", []).append((args[0], out))


def _true_positives(rec, i, args, kwargs, out):
    rec.count("metrics.true_positives",
              sum(1 for m in out if m.gt_index is not None))


# (module, attribute, span name, hook): every call site the package uses
PATCH_POINTS = [
    ("pillardet.pipeline", "pillarize", "grid.pillarize", _capture("volume")),
    ("pillardet.pipeline", "backbone_forward", "grid.backbone_forward",
     _capture("backbone")),
    ("pillardet.pipeline", "build_pyramid", "fpn.build_pyramid", None),
    ("pillardet.pipeline", "rpn_forward", "rpn.rpn_forward", _capture("heads")),
    ("pillardet.pipeline", "decode_proposals", "rpn.decode_proposals",
     _capture("proposals")),
    ("pillardet.pipeline", "rectify_detections", "rpn.rectify_detections", None),
    ("pillardet.pipeline", "nms_3d", "rpn.nms_3d", nms_counts),
    ("pillardet.pipeline", "build_pooling_map", "fpn.build_pooling_map", None),
    ("pillardet.pipeline", "refine", "rcnn.refine", _capture("refine")),
    ("pillardet.grid", "sparse_conv2d", "grid.sparse_conv2d", _sparse_conv_work),
    ("pillardet.fpn", "sparse_conv2d", "grid.sparse_conv2d", _sparse_conv_work),
    ("pillardet.grid", "dense_conv2d", "grid.dense_conv2d", _dense_conv_macs),
    ("pillardet.fpn", "dense_conv2d", "grid.dense_conv2d", _dense_conv_macs),
    ("pillardet.rpn", "dense_conv2d", "grid.dense_conv2d", _dense_conv_macs),
    ("pillardet.grid", "deconv2x2", "grid.deconv2x2", _deconv_macs),
    ("pillardet.fpn", "deconv2x2", "grid.deconv2x2", _deconv_macs),
    ("pillardet.grid", "densify", "grid.densify", None),
    ("pillardet.fpn", "densify", "grid.densify", None),
    ("pillardet.rcnn", "pool_roi_features", "rcnn.pool_roi_features", None),
    ("pillardet.rpn", "iou_3d", "geometry.iou_3d", None),
    ("pillardet.metrics", "iou_3d", "geometry.iou_3d", None),
    ("pillardet.metrics", "match_detections", "metrics.match_detections",
     _true_positives),
]


@contextmanager
def instrument(rec: SpanRecorder):
    """Patch every call site in PATCH_POINTS; restore them on exit."""
    saved = []
    try:
        for module_name, attr, span, hook in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, rec.wrap(span, original, hook))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
