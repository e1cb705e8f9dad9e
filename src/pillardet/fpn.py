"""Lateral connections: the proposal pyramid and the R-CNN pooling map.

Both follow the same recipe, :class:`LateralMap`: upsample the
semantically stronger coarse map with a stride-2 deconvolution, densify
the spatially precise sparse volume at the target stride, concatenate
[top-down, bottom-up], and blend with a 3x3 convolution. Concatenation
(rather than addition) keeps the mostly empty bottom-up channels from
washing out the semantics.

The concat + conv is evaluated without building the concatenation: a
convolution is linear in its input channels, so the kernel splits by
channel. A dense conv runs over the upsampled half, and the bottom-up
half is added by :func:`~pillardet.grid.conv3x3_at` at the cells its
active sites reach (a few percent of the map); bias and ReLU follow once.
This is the same operation up to the order of float additions, checked
against the per-pixel oracle on the concatenated input by ``verify``.

The pyramid levels are read everywhere by the center heads, so they are
built whole, by :meth:`LateralMap.dense`; their upsampled halves are not.
Both halves are read through one forward-only window, :class:`_Rows`,
which computes rows into one buffer as reads reach them, after the held
rows a read still needs. The dense conv reads its input by row ranges,
one chunk at a time, and :func:`~pillardet.grid.deconv2x2` writes just
the semantic rows that chunk reaches, interleaved, into that buffer, so
the 2x map exists once and only a chunk at a time (4.4 MB of the 72 MB
P3 one on a full-range scene). The conv writes its output one band of
rows at a time into a sink (:class:`_BlendSink`) that finishes the band:
each volume's conv at the band's reached cells, computed a few bands at
a time in row order from one copy of the volume's features and one
neighbour index, then bias and ReLU. No map-sized temporary is made
beside the map. Building P3 thus holds 16.4 MB beside P3 and P4
(tracemalloc, full-range scene): the window's chunk, the conv's padded
planes of it (4.4 MB each), the conv's band accumulators, the bottom-up
conv rows, C3's feature copy and neighbour index (1.6 MB) and one call's
gathered rows.
The pooling map is only read under the RoI grids (a few percent of its
cells on a full-range scene), so it is never built: :meth:`LateralMap.at`
evaluates the same recipe at the cells asked for. Its up half is one
dense conv over a canvas of haloed strips around those cells, packed on
lines of the map's width plus two columns and the lines stacked (3.9
cells computed per cell asked for on a full-range scene, 22 for the
whole map). That canvas is never whole either: it is a :class:`_Rows`
source whose reads deconvolve only the parents of their lines' cells on
the map, a GEMM band of parents at a time, and the conv writes into a
sink (:class:`_CellSink`) that keeps only the asked cells' rows. Each
bottom-up volume's conv rows are added to those in place, through
``gemm_rows``' sink (:class:`_AddedRows`). All other products are
``gemm_rows`` ones: ``.at()`` equals ``.dense()`` bit for bit. Evaluating
the map under 500 RoIs holds 13.8 MB beside its result on a crowded
near-range scene and 16.2 MB on a full-range one (tracemalloc; 24.6 and
34.5 MB with the canvas whole).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (BackboneFeatures, DenseFeatureMap, SparsePillarVolume,
                   conv3x3_at, deconv2x2, deconv2x2_at, dense_conv2d,
                   _BAND_ROWS, _conv3x3_sampler, _relu_volume, reached_cells,
                   sparse_conv2d)
# unused here: perfbench/tracing.py's PATCH_POINTS and its restore test read
# fpn.densify; the name goes when ROADMAP item 2 moves spans into the package
from .grid import densify  # noqa: F401
from .weights import WeightStore


def _downsample_chain(volume: SparsePillarVolume, target_stride: int,
                      weights: WeightStore, prefix: str) -> SparsePillarVolume:
    v = volume
    step = 0
    while v.stride < target_stride:
        name = f"{prefix}.down{step}"
        v = _relu_volume(sparse_conv2d(v, weights.get(f"{name}.w"),
                                       weights.get(f"{name}.b"), stride=2))
        step += 1
    return v


class _Rows:
    """Rows of a ``shape`` array computed as they are read, forwards only.

    A read ``[r0, r1)`` that reaches rows not yet computed has them written
    by one ``fill(start, stop, out)`` call into the rows ``out`` of one
    buffer, after the rows it still holds: ``start`` is the first row not
    yet computed, and ``stop`` is at least ``least`` rows on, rounded up to
    a whole number of ``multiple`` rows (row pairs or bands, so each row is
    computed once) and clipped to the array. Rows above ``r0`` are dropped:
    reads never go backwards, and a read's rows are a view of the buffer,
    valid until the next read.
    """

    def __init__(self, fill, shape: tuple[int, ...], dtype, least: int = 1,
                 multiple: int = 1):
        self.shape, self.dtype, self._fill = shape, np.dtype(dtype), fill
        self._least, self._multiple = least, multiple
        self._buf = np.empty((0,) + shape[1:], self.dtype)
        self._base = self._end = 0  # rows [base, end) are buf[:end - base]
        self._first = 0  # the first row of the last read

    def __getitem__(self, rows: slice) -> np.ndarray:
        r0, r1, _ = rows.indices(self.shape[0])
        if r0 < self._first:
            raise ValueError(f"row {r0} was dropped; rows are read in order")
        start = self._end
        if r1 > start:
            n = -(-max(r1 - start, self._least) // self._multiple) * self._multiple
            stop = min(self.shape[0], start + n)
            # the held rows from r0 on move to the front; rows a read skips
            # are computed too
            keep = max(0, start - r0)
            held = self._buf[start - keep - self._base:start - self._base]
            if len(self._buf) < keep + stop - start:
                # a larger buffer: the old one goes before it is made
                held, self._buf = held.copy(), None
                self._buf = np.empty((keep + stop - start,) + self.shape[1:],
                                     self.dtype)
            self._buf[:keep] = held
            self._fill(start, stop, self._buf[keep:keep + stop - start])
            self._base, self._end = start - keep, stop
        self._first = r0
        return self._buf[r0 - self._base:r1 - self._base]


def _upsampled_rows(data: np.ndarray, weight: np.ndarray,
                    bias: np.ndarray) -> _Rows:
    """``relu(deconv2x2(data, weight, bias))`` as :class:`_Rows`: a read
    deconvolves the input rows it reaches, each input row once, as one
    :func:`deconv2x2` call into the window's buffer."""
    h, w, _ = data.shape

    def fill(start, stop, out):
        deconv2x2(data[start // 2:stop // 2], weight, bias, out=out)
        np.maximum(out, 0.0, out=out)

    return _Rows(fill, (2 * h, 2 * w, weight.shape[3]),
                 np.result_type(data, weight, bias), multiple=2)


# least bottom-up cells of one conv3x3_at call of a band sink
_BLEND_CELLS = 4 * _BAND_ROWS


def _reached_rows(v: SparsePillarVolume, weight: np.ndarray):
    """One bottom-up volume's bias-free conv at the cells it reaches, sorted
    by map row, then column: their rows, columns and conv rows, the last as
    :class:`_Rows` computed by :func:`conv3x3_at` calls over at least
    ``_BLEND_CELLS`` cells in whole ``_BAND_ROWS`` bands, in row order,
    all from one copy of the volume's features (:func:`_conv3x3_sampler`)."""
    reached = reached_cells(v)
    cells = reached[np.lexsort((reached // v.ny, reached % v.ny))]
    conv = _conv3x3_sampler(v, weight)

    def fill(start, stop, out):
        conv(cells[start:stop], out=out)

    return cells % v.ny, cells // v.ny, _Rows(
        fill, (len(cells), weight.shape[3]), np.result_type(v.features, weight),
        least=_BLEND_CELLS, multiple=_BAND_ROWS)


class _BlendSink:
    """Output sink of a lateral's up-half conv: each band it receives
    (``sink[y0:y1] = band``) gets each bottom-up volume's conv rows at the
    cells it reaches added (:func:`_reached_rows`), then bias and ReLU, and
    is kept in ``data``, the whole map. Bands come in row order."""

    def __init__(self, lateral: "LateralMap"):
        self.shape = (lateral.height, lateral.width, lateral.channels)
        self.data = np.empty(self.shape, lateral.dtype)
        self._finish = lateral._finish
        self._volumes = [_reached_rows(v, w) for v, w in lateral._volume_kernels()]

    def __setitem__(self, rows: slice, band: np.ndarray) -> None:
        y0, y1, _ = rows.indices(self.shape[0])
        out = self.data[y0:y1]
        out[...] = band
        for iy, ix, conv in self._volumes:
            lo, hi = np.searchsorted(iy, (y0, y1))
            out[iy[lo:hi] - y0, ix[lo:hi]] += conv[lo:hi]
        self._finish(out)


# rows of the map bands the queried cells are cut into
_STRIP_ROWS = 4


def _pack_strips(qy: np.ndarray, qx: np.ndarray):
    """Cover cells (``qy``, ``qx``) with strips of the map.

    The map is cut into bands of ``_STRIP_ROWS`` rows; within a band, the
    queried columns form runs (gaps of up to two columns are bridged, as
    cheap as two more halo columns), and each run is a strip. A strip
    keeps a one-cell halo all round, so its inner cells' 3x3
    neighbourhoods lie inside it. Returns, per strip, the map cell of its
    top-left halo corner and its width with halo; then each query's strip.
    """
    t = _STRIP_ROWS
    band = qy // t
    order = np.lexsort((qx, band))
    b, x = band[order], qx[order]
    new = np.r_[True, (b[1:] != b[:-1]) | (np.diff(x) > 3)]
    strip_of = np.empty(len(qy), dtype=np.int64)
    strip_of[order] = np.cumsum(new) - 1
    first = np.flatnonzero(new)
    last = np.r_[first[1:], len(x)] - 1
    return b[first] * t - 1, x[first] - 1, x[last] - x[first] + 3, strip_of


# rows of a canvas line: a band of strips and its halo
_LINE_ROWS = _STRIP_ROWS + 2


def _pack_lines(widths: np.ndarray, width: int):
    """Place strips of ``widths`` columns on lines of ``width`` columns,
    widest first, each on the first line with room for it (first-fit
    decreasing, so little of a line is left empty): each strip's line and
    first column."""
    line, col = np.empty((2, len(widths)), np.int64)
    used = np.zeros(len(widths) + 1, np.int64)  # columns taken on each line
    lines = 0
    for k in np.argsort(-widths, kind="stable").tolist():
        # the first line with room; the first empty one always has it
        y = int(np.argmax(used[:lines + 1] + widths[k] <= width))
        line[k], col[k] = y, used[y]
        used[y] += widths[k]
        lines = max(lines, y + 1)
    return line, col


class _CellSink:
    """Output sink of the pooling map's up-half conv over a canvas of
    ``shape``: of each band it receives (``sink[y0:y1] = band``), only the
    rows of canvas cells (``cy[k]``, ``cx[k]``) are kept, as ``data[k]``."""

    def __init__(self, shape, dtype, cy: np.ndarray, cx: np.ndarray):
        self.shape = shape
        self.data = np.empty((len(cy), shape[2]), dtype)
        self._order = np.argsort(cy, kind="stable")
        self._cy, self._cx = cy[self._order], cx[self._order]

    def __setitem__(self, rows: slice, band: np.ndarray) -> None:
        y0, y1, _ = rows.indices(self.shape[0])
        lo, hi = np.searchsorted(self._cy, (y0, y1))
        self.data[self._order[lo:hi]] = band[self._cy[lo:hi] - y0, self._cx[lo:hi]]


class _AddedRows:
    """``data`` as a :func:`~pillardet.grid.gemm_rows` sink that adds:
    ``sink[i:j] = rows`` does ``data[i:j] += rows``. ``dtype`` is the
    product's, so its rows round as when they are made apart and added."""

    def __init__(self, data: np.ndarray, dtype):
        self.data, self.dtype = data, np.dtype(dtype)

    def __setitem__(self, rows: slice, values: np.ndarray) -> None:
        self.data[rows] += values


@dataclass(frozen=True, eq=False)
class LateralMap:
    """One lateral connection: a pyramid level or the R-CNN pooling map.

    Its value at a cell is ``relu(conv3x3(concat([relu(deconv2x2(semantic))]
    + [densify(v) for v in bottom_up])) + conv_b)``, one stride below
    ``semantic``. :meth:`dense` builds the whole map; :meth:`at` evaluates
    only the cells asked for.
    """

    semantic: DenseFeatureMap
    bottom_up: tuple[SparsePillarVolume, ...]
    deconv_w: np.ndarray
    deconv_b: np.ndarray
    conv_w: np.ndarray
    conv_b: np.ndarray

    def __post_init__(self):
        c_sem = self.semantic.channels
        if self.deconv_w.shape[:3] != (2, 2, c_sem):
            raise ValueError(f"deconv kernel shape {self.deconv_w.shape} "
                             f"incompatible with {c_sem} semantic channels")
        c_in = self.deconv_w.shape[3] + sum(v.channels for v in self.bottom_up)
        if self.conv_w.shape[:3] != (3, 3, c_in):
            raise ValueError(f"kernel shape {self.conv_w.shape} incompatible "
                             f"with {c_in} concatenated input channels")
        for v in self.bottom_up:
            if 2 * v.stride != self.semantic.stride:
                raise ValueError(f"semantic stride {self.semantic.stride} must "
                                 f"be twice bottom-up stride {v.stride}")
            if (v.ny, v.nx) != (self.height, self.width):
                raise ValueError(f"bottom-up grid ({v.ny}, {v.nx}) does not "
                                 f"match the upsampled map "
                                 f"({self.height}, {self.width})")

    @property
    def stride(self) -> int:
        return self.semantic.stride // 2

    @property
    def height(self) -> int:
        return 2 * self.semantic.height

    @property
    def width(self) -> int:
        return 2 * self.semantic.width

    @property
    def channels(self) -> int:
        return self.conv_w.shape[3]

    @property
    def dtype(self) -> np.dtype:
        """The dtype all its inputs promote to, that of the map's values."""
        return np.result_type(self.semantic.data, self.deconv_w, self.deconv_b,
                              self.conv_w, self.conv_b,
                              *(v.features for v in self.bottom_up))

    def dense(self) -> DenseFeatureMap:
        """The whole map. The up half is one dense conv whose input is
        deconvolved as its chunks reach the rows, never whole; each band
        it writes is finished in its sink (:class:`_BlendSink`), each
        volume's conv added at the band's cells its active sites reach."""
        up = _upsampled_rows(self.semantic.data, self.deconv_w, self.deconv_b)
        return DenseFeatureMap(self.stride, self._up_conv(up, _BlendSink(self)).data)

    def at(self, iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
        """Map values at cells (``iy[k]``, ``ix[k]``) -> (K, C).

        The up half is one dense conv over packed strips of the map (see
        :meth:`_up_half`); each bottom-up volume's conv is added at the query
        cells as :meth:`dense` adds it, so a row is bit for bit :meth:`dense`'s.
        """
        iy = np.asarray(iy, dtype=np.int64).reshape(-1)
        ix = np.asarray(ix, dtype=np.int64).reshape(-1)
        h, w = self.height, self.width
        if len(iy) and (min(iy.min(), ix.min()) < 0 or iy.max() >= h
                        or ix.max() >= w):
            raise IndexError(f"cells outside the {h}x{w} lateral map")
        if not len(iy):
            return np.zeros((0, self.channels), self.dtype)
        out, cells = self._up_half(iy, ix), ix * h + iy
        for v, w in self._volume_kernels():
            conv3x3_at(v, w, cells, out=_AddedRows(out, np.result_type(
                v.features, w)))
        return self._finish(out)

    def _up_conv(self, up, out=None):
        """The up half's conv, without bias, over an upsampled array or row
        source, into ``out`` when given; the zero bias carries the map's
        dtype into the conv."""
        c_up = self.deconv_w.shape[3]
        return dense_conv2d(up, self.conv_w[:, :, :c_up],
                            np.zeros(self.channels, self.dtype), out=out)

    def _volume_kernels(self):
        """Each bottom-up volume with its slice of the kernel: input
        channels are sliced in concat order, the up half taking the first
        and each volume the next ``v.channels``."""
        start = self.deconv_w.shape[3]
        for v in self.bottom_up:
            yield v, self.conv_w[:, :, start:start + v.channels]
            start += v.channels

    def _finish(self, out: np.ndarray) -> np.ndarray:
        """Bias and ReLU, in place, once every half's conv is in ``out``."""
        out += self.conv_b
        return np.maximum(out, 0.0, out=out)

    def _up_half(self, qy: np.ndarray, qx: np.ndarray) -> np.ndarray:
        """The up half's conv, without bias, at cells (``qy``, ``qx``).

        The strips covering the cells (see :func:`_pack_strips`) are laid
        side by side on canvas lines of ``_LINE_ROWS`` rows and the map's
        width plus two columns, a strip never straddling two lines, and one
        dense conv runs over the lines stacked: the upsampled map, zero off
        the map and after a line's last strip. A strip's inner cells read
        only their own strip, so they get exactly the full map's values.
        The canvas is a row source (:class:`_Rows`): the conv's chunks
        deconvolve the parents of their lines' cells as they reach them;
        its sink (:class:`_CellSink`) keeps the rows of the cells asked for.
        """
        map_y, map_x, widths, strip_of = _pack_strips(qy, qx)
        width = self.width + 2
        line, col = _pack_lines(widths, width)
        canvas = self._canvas_rows(map_y, map_x, widths, line, col, width)
        sink = _CellSink(
            canvas.shape[:2] + (self.channels,), self.dtype,
            line[strip_of] * _LINE_ROWS + qy - map_y[strip_of],
            col[strip_of] + qx - map_x[strip_of])
        return self._up_conv(canvas, sink).data

    def _canvas_rows(self, map_y, map_x, widths, line, col, width) -> _Rows:
        """The canvas of strips (top-left map cells ``map_y``, ``map_x``,
        ``widths`` columns) placed at ``line``, ``col``, as :class:`_Rows`
        read in whole lines. A read deconvolves the parents of its lines'
        cells on the map, each once, by :func:`deconv2x2_at` calls of
        ``_BAND_ROWS`` parents (one GEMM each, the last one short), so
        no more than a band's children are held beside the lines; then
        ReLU."""
        h, w, w_sem = self.height, self.width, self.semantic.width
        n_lines = int(line.max()) + 1
        by_line = np.argsort(line, kind="stable")
        first = np.searchsorted(line[by_line], np.arange(n_lines + 1))
        dy = np.arange(_LINE_ROWS)[:, None]

        def fill(start, stop, out):
            l0, l1 = start // _LINE_ROWS, stop // _LINE_ROWS
            strips = by_line[first[l0]:first[l1]]
            # every strip column on these lines: its strip, its column in it
            n = widths[strips]
            s = np.repeat(strips, n)
            dx = np.arange(len(s)) - np.repeat(np.cumsum(n) - n, n)
            my, mx = map_y[s] + dy, map_x[s] + dx
            # their cells on the map, as map and canvas cells
            ry, i = np.nonzero((my >= 0) & (my < h) & (mx >= 0) & (mx < w))
            my, mx = my[ry, i], mx[i]
            oy, ox = (line[s[i]] - l0) * _LINE_ROWS + ry, col[s[i]] + dx[i]
            # cells in parent order, cut before every _BAND_ROWS-th parent
            parent = my // 2 * w_sem + mx // 2
            order = np.argsort(parent, kind="stable")
            cuts = np.flatnonzero(np.diff(parent[order], prepend=-1))[::_BAND_ROWS]
            out[...] = 0
            for a, b in zip(cuts, np.r_[cuts[1:], len(order)]):
                k = order[a:b]
                out[oy[k], ox[k]] = deconv2x2_at(self.semantic.data, self.deconv_w,
                                                 self.deconv_b, my[k], mx[k])
            np.maximum(out, 0.0, out=out)

        return _Rows(fill, (n_lines * _LINE_ROWS, width, self.deconv_w.shape[3]),
                     self.dtype, multiple=_LINE_ROWS)


def lateral(semantic: DenseFeatureMap, bottom_up: tuple[SparsePillarVolume, ...],
            weights: WeightStore, prefix: str) -> LateralMap:
    """``LateralMap`` with the kernels ``{prefix}.deconv.w``/``.b`` and
    ``{prefix}.conv.w``/``.b``."""
    return LateralMap(semantic, bottom_up,
                      weights.get(f"{prefix}.deconv.w"),
                      weights.get(f"{prefix}.deconv.b"),
                      weights.get(f"{prefix}.conv.w"),
                      weights.get(f"{prefix}.conv.b"))


def build_pyramid(backbone: BackboneFeatures, weights: WeightStore,
                  strides=(4, 8, 16), volumes=(4, 8)) -> dict[int, DenseFeatureMap]:
    """Proposal-stage levels by stride: C5+C4 -> P4, then P4+C3 -> P3.

    ``strides`` are those of the maps read after the pyramid, ``volumes``
    those of the sparse volumes read after it. Only the levels at 4 and 8
    among ``strides`` are returned, and only those and the levels they are
    built from are built: P3 needs P4, P4 needs none. Each input is
    released (set to None on ``backbone``) once the last lateral that reads
    it is built, unless it is read later: C5 (stride 16 in ``strides``)
    and C4 (stride 8 in ``volumes``) once P4 is built, so they die before
    P3 is built, and C3 (stride 4 in ``volumes``) once P3 is built.
    """
    pyramid = {}
    if 4 in strides or 8 in strides:
        pyramid[8] = lateral(backbone.c5, (backbone.c4,), weights, "neck.p4").dense()
    if 16 not in strides:
        backbone.c5 = None
    if 8 not in volumes:
        backbone.c4 = None
    if 4 in strides:
        pyramid[4] = lateral(pyramid[8], (backbone.c3,), weights, "neck.p3").dense()
    if 4 not in volumes:
        backbone.c3 = None
    return {s: pyramid[s] for s in (4, 8) if s in strides}


def build_pooling_map(backbone: BackboneFeatures,
                      pyramid: dict[int, DenseFeatureMap],
                      weights: WeightStore, pool_stride: int,
                      bottom_up_strides: tuple[int, ...]) -> LateralMap:
    """Class-agnostic map the R-CNN stage pools from, evaluated lazily.

    The top-down branch deconvolves the semantic map one level above the
    pooling stride (a pyramid level when present, else C5). Each bottom-up
    volume is brought to the pooling stride here, with stride-2 sparse
    convs (identity when already there); no ``bottom_up_strides`` gives the
    semantics-only ablation. The deconv and the 3x3 conv run only when
    :meth:`LateralMap.at` asks for cells.
    """
    if pool_stride not in (2, 4, 8):
        raise ValueError(f"pool_stride must be one of 2, 4, 8, got {pool_stride}")
    for s in bottom_up_strides:
        if s > pool_stride:
            raise ValueError(
                f"bottom-up stride {s} is coarser than pooling stride {pool_stride}"
            )

    semantic_stride = pool_stride * 2
    semantic = pyramid.get(semantic_stride, backbone.c5)
    if semantic is None or semantic.stride != semantic_stride:
        raise ValueError(
            f"no semantic map at stride {semantic_stride} for pooling "
            f"stride {pool_stride}"
        )

    branches = tuple(_downsample_chain(backbone.volume_at(s), pool_stride,
                                       weights, f"neck.pool.s{s}")
                     for s in bottom_up_strides)
    return lateral(semantic, branches, weights, "neck.pool")
