"""Pillar grids and the hybrid sparse/dense BEV feature hierarchy.

Point clouds are collapsed into a sparse set of occupied BEV pillars; the
backbone then runs four sparse stages and one dense stage, producing
feature volumes/maps at strides 1, 2, 4, 8, 16 in a single forward pass.
Everything is forward-only: weights come from a store (or a seeded
initializer), never from training. Kernels compute in the dtype their
inputs promote to (``np.result_type``), so float32 weights give float32
maps; point clouds and geometry stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weights import WeightStore, as_float


@dataclass(frozen=True)
class GridSpec:
    """Detection range plus base pillar size.

    The x/y spans must be integer multiples of ``pillar_size``. Cells are
    half-open ``[lo, hi)`` along every axis, so points exactly at a max
    bound are dropped.
    """

    x_min: float = -75.2
    x_max: float = 75.2
    y_min: float = -75.2
    y_max: float = 75.2
    z_min: float = -2.0
    z_max: float = 4.0
    pillar_size: float = 0.1

    def __post_init__(self):
        if self.pillar_size <= 0:
            raise ValueError("pillar_size must be positive")
        for name, lo, hi in (("x", self.x_min, self.x_max),
                             ("y", self.y_min, self.y_max),
                             ("z", self.z_min, self.z_max)):
            if not hi > lo:
                raise ValueError(f"{name} range is empty: [{lo}, {hi})")
        for name, span in (("x", self.x_max - self.x_min),
                           ("y", self.y_max - self.y_min)):
            cells = span / self.pillar_size
            if abs(cells - round(cells)) > 1e-6:
                raise ValueError(
                    f"{name} span {span} is not an integer number of pillars "
                    f"of size {self.pillar_size}"
                )

    @property
    def nx(self) -> int:
        return round((self.x_max - self.x_min) / self.pillar_size)

    @property
    def ny(self) -> int:
        return round((self.y_max - self.y_min) / self.pillar_size)

    def cell_size(self, stride: int = 1) -> float:
        return self.pillar_size * stride


class PointCloud:
    """Immutable (N, 4) cloud of [x, y, z, intensity] points."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != 4:
            raise ValueError(f"expected (N, 4) point array, got {data.shape}")
        if data.size and not np.all(np.isfinite(data)):
            raise ValueError("point cloud contains non-finite values")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *a):
        raise AttributeError("PointCloud is immutable")

    def __len__(self) -> int:
        return len(self.data)

    @property
    def xyz(self) -> np.ndarray:
        return self.data[:, :3]

    @property
    def intensity(self) -> np.ndarray:
        return self.data[:, 3]

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls(np.zeros((0, 4)))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SparsePillarVolume:
    """Active pillar sites at one stride.

    ``coords`` is (N, 2) int64 of unique (ix, iy) cell indices, sorted
    lexicographically by ix then iy; ``features`` is the aligned (N, C)
    float32 or float64 array (see :func:`~pillardet.weights.as_float`).
    ``nx``/``ny`` are the grid dims at this stride.
    """

    stride: int
    nx: int
    ny: int
    coords: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.int64).reshape(-1, 2)
        feats = as_float(self.features)
        if feats.ndim != 2 or len(feats) != len(coords):
            raise ValueError("features must be (N, C) aligned with coords")
        if len(coords):
            keys = coords[:, 0] * self.ny + coords[:, 1]
            if np.any(np.diff(keys) <= 0):
                raise ValueError("coords must be unique and sorted by (ix, iy)")
            if (coords.min() < 0 or coords[:, 0].max() >= self.nx
                    or coords[:, 1].max() >= self.ny):
                raise ValueError("coords out of grid bounds")
        object.__setattr__(self, "coords", _freeze(coords))
        object.__setattr__(self, "features", _freeze(feats))

    @property
    def n_active(self) -> int:
        return len(self.coords)

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    def keys(self) -> np.ndarray:
        """Flat sort keys ix * ny + iy."""
        return self.coords[:, 0] * self.ny + self.coords[:, 1]

    @classmethod
    def empty(cls, stride: int, nx: int, ny: int, channels: int,
              dtype=np.float64) -> "SparsePillarVolume":
        return cls(stride, nx, ny, np.zeros((0, 2), np.int64),
                   np.zeros((0, channels), dtype))


@dataclass(frozen=True)
class DenseFeatureMap:
    """Dense H x W x C feature grid, row-major, origin at (x_min, y_min).

    Row index is the y cell, column index the x cell, matching
    ``SparsePillarVolume`` coordinates through :func:`densify`.
    """

    stride: int
    data: np.ndarray

    def __post_init__(self):
        data = as_float(self.data)
        if data.ndim != 3:
            raise ValueError(f"expected (H, W, C) data, got shape {data.shape}")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def at(self, iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
        """Values at cells (``iy[k]``, ``ix[k]``) -> (K, C)."""
        return self.data[iy, ix]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def pillarize(points: PointCloud, spec: GridSpec,
              weights: WeightStore) -> SparsePillarVolume:
    """Collapse a point cloud into stride-1 pillar features.

    Each in-range point is encoded as [x - cell_center_x, y - cell_center_y,
    z, intensity], pushed through one linear layer + ReLU, and max-pooled
    over its cell. Unoccupied cells stay implicit. The max makes the result
    independent of point order. The encoder input is cast to the weights'
    dtype, so the features come out in it.
    """
    nx, ny = spec.nx, spec.ny
    w = weights.get("pfe.linear.w")
    b = weights.get("pfe.linear.b")
    channels = w.shape[1]

    data = points.data
    if len(data) == 0:
        return SparsePillarVolume.empty(1, nx, ny, channels, w.dtype)

    x, y, z = data[:, 0], data[:, 1], data[:, 2]
    keep = ((x >= spec.x_min) & (x < spec.x_max)
            & (y >= spec.y_min) & (y < spec.y_max)
            & (z >= spec.z_min) & (z < spec.z_max))
    data = data[keep]
    if len(data) == 0:
        return SparsePillarVolume.empty(1, nx, ny, channels, w.dtype)

    p = spec.pillar_size
    ix = np.floor((data[:, 0] - spec.x_min) / p).astype(np.int64)
    iy = np.floor((data[:, 1] - spec.y_min) / p).astype(np.int64)
    # floor of the division can land on the boundary cell through rounding
    ix = np.clip(ix, 0, nx - 1)
    iy = np.clip(iy, 0, ny - 1)

    enc_in = np.stack([
        data[:, 0] - (spec.x_min + (ix + 0.5) * p),
        data[:, 1] - (spec.y_min + (iy + 0.5) * p),
        data[:, 2],
        data[:, 3],
    ], axis=1).astype(w.dtype)
    enc = relu(gemm_rows(enc_in, w, b))

    key = ix * ny + iy
    order = np.argsort(key, kind="stable")
    key_sorted = key[order]
    enc = enc[order]
    uniq, starts = np.unique(key_sorted, return_index=True)
    pooled = np.maximum.reduceat(enc, starts, axis=0)
    coords = np.stack([uniq // ny, uniq % ny], axis=1)
    return SparsePillarVolume(1, nx, ny, coords, pooled)


def _out_dim(n: int, stride: int) -> int:
    # 3x3 kernel with zero padding 1
    return (n - 1) // stride + 1


# rows of each gemm_rows GEMM: a fixed count, so a row's rounding never
# depends on how many rows its call has
_BAND_ROWS = 512
# pixel rows of one dense conv band, rounded down to whole output rows (at
# least one): the rows of each of its nine offset GEMMs. Apart from
# _BAND_ROWS, so refine's GEMMs and small gemm_rows calls are not padded.
# A full-range scene's dense convs on 2 vCPUs: 2048 ran ~15% faster than
# one 378-pixel row, and 4096 or 8192 ~5% slower than 2048
_CONV_BAND_PIXELS = 2048
# bytes of padded input a dense conv holds at once, rounded to whole bands
_CHUNK_BYTES = 4 << 20


def gemm_rows(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
              index: np.ndarray | None = None, out=None):
    """``x @ weight + bias`` as GEMMs of exactly ``_BAND_ROWS`` rows, the last
    zero-padded: BLAS may round a row by its call's row count, so an output
    row depends on its own input row alone. With ``index``, an (M, J) table
    of rows of ``x``, input row m is ``x[index[m]]`` side by side.

    A whole band of ``x`` that is C-contiguous is multiplied where it lies;
    other bands (the last one when short, gathered or strided rows) are
    copied into one band buffer, made only then. A caller that lays its
    rows out in whole bands, zero rows after the last, makes no copy and
    gets the bits of the padded one (as :func:`~pillardet.rcnn.rcnn_forward`
    does with the pooled features).

    Each GEMM's rows, bias added, are written as ``out[i:j] = rows``, into
    ``out`` when given (an (M, N) array, or any object that takes such
    assignments, as :func:`deconv2x2`'s interleaving does), else into a new
    array; the result is ``out``.
    """
    m = len(x) if index is None else len(index)
    if out is None:
        out = np.empty((m, weight.shape[1]), np.result_type(
            x, weight, *(() if bias is None else (bias,))))
    band = None
    y = np.empty((_BAND_ROWS, weight.shape[1]), out.dtype)
    for i in range(0, m, _BAND_ROWS):
        n = min(_BAND_ROWS, m - i)
        if index is None and n == _BAND_ROWS and x[i:i + n].flags.c_contiguous:
            rows = x[i:i + n]
        else:
            if band is None:
                band = np.empty((_BAND_ROWS, weight.shape[0]), x.dtype)
            if index is None:
                band[:n] = x[i:i + n]
            else:
                # mode="clip" writes into the band; "raise" buffers its output
                np.take(x, index[i:i + n], axis=0, mode="clip",
                        out=band[:n].reshape(index[i:i + n].shape + x.shape[1:]))
            band[n:] = 0
            rows = band
        np.matmul(rows, weight, out=y)
        if bias is not None:
            y += bias
        out[i:i + n] = y[:n]
    return out


def reached_cells(v: SparsePillarVolume, stride: int = 1) -> np.ndarray:
    """Sorted flat output cells ``ox * ny_out + oy`` that a 3x3 window at
    ``stride`` (zero padding 1) reaches from at least one active site.

    Output (ox, oy) reads inputs (ox * stride + kx - 1, oy * stride + ky - 1)
    for kx, ky in 0..2, i.e. cells (ox * stride + kx, oy * stride + ky) of
    the occupancy map padded by one cell.
    """
    s = stride
    nx_out, ny_out = _out_dim(v.nx, s), _out_dim(v.ny, s)
    occupied = np.zeros((v.nx + 2, v.ny + 2), dtype=bool)
    occupied[v.coords[:, 0] + 1, v.coords[:, 1] + 1] = True
    x_hit = np.logical_or.reduce([occupied[kx:kx + s * nx_out:s] for kx in range(3)])
    hit = np.logical_or.reduce([x_hit[:, ky:ky + s * ny_out:s] for ky in range(3)])
    return np.flatnonzero(hit)


def conv3x3_at(v: SparsePillarVolume, weight: np.ndarray, cells: np.ndarray,
               stride: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """The bias-free 3x3 conv (zero padding 1) of ``densify(v)`` at ``cells``.

    ``cells`` are flat output cells ``ox * ny_out + oy`` of the grid at
    ``stride``, in any order; the result is their (len(cells), c_out)
    rows, in the dtype the features and kernel promote to. A neighbour
    table lists, per output cell, the feature row under each of the nine
    kernel offsets, a zero row where no site is active, for one
    :func:`gemm_rows` product against the (9 * C, c_out) kernel, into
    ``out`` when given.
    """
    return _conv3x3_sampler(v, weight, stride)(cells, out)


def _conv3x3_sampler(v: SparsePillarVolume, weight: np.ndarray,
                     stride: int = 1):
    """:func:`conv3x3_at` of ``v`` and ``weight`` as a function of ``cells``
    and ``out``: the feature rows with the zero row after them and the
    neighbour index are built once, for every call, so calls on a volume's
    cells a band at a time copy its features once."""
    if weight.shape[:3] != (3, 3, v.channels):
        raise ValueError(
            f"kernel shape {weight.shape} incompatible with {v.channels} input channels"
        )
    # feature row of each cell of the grid padded by one: its site's, or
    # the zero row appended after the sites
    index = np.full((v.nx + 2, v.ny + 2), v.n_active, dtype=np.int32)
    index[v.coords[:, 0] + 1, v.coords[:, 1] + 1] = np.arange(v.n_active)
    rows = np.concatenate([v.features, np.zeros((1, v.channels), v.features.dtype)])
    kernel = weight.reshape(9 * v.channels, weight.shape[3])
    ny_out = _out_dim(v.ny, stride)
    k = np.arange(3)

    def at(cells: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # output (ox, oy) reads padded cells (ox * stride + kx,
        # oy * stride + ky) under offset (ky, kx), into table column 3 * ky + kx
        x0, y0 = cells // ny_out * stride, cells % ny_out * stride
        table = index[x0[:, None, None] + k, y0[:, None, None] + k[:, None]]
        return gemm_rows(rows, kernel, index=table.reshape(len(cells), 9),
                         out=out)

    return at


def sparse_conv2d(v: SparsePillarVolume, weight: np.ndarray, bias: np.ndarray,
                  stride: int = 1, submanifold: bool = False) -> SparsePillarVolume:
    """3x3 sparse convolution with zero padding.

    Submanifold mode keeps the active set identical to the input (stride
    must be 1). Regular mode activates every output site that receives at
    least one contribution under the strided window. Bias applies at active
    output sites only; inactive sites remain implicit zeros.
    """
    if submanifold and stride != 1:
        raise ValueError("submanifold convolution requires stride 1")
    if stride not in (1, 2):
        raise ValueError(f"unsupported stride {stride}")

    ny_out = _out_dim(v.ny, stride)
    cells = v.keys() if submanifold else reached_cells(v, stride)
    return SparsePillarVolume(stride * v.stride, _out_dim(v.nx, stride), ny_out,
                              np.stack([cells // ny_out, cells % ny_out], axis=1),
                              conv3x3_at(v, weight, cells, stride) + bias)


def densify(v: SparsePillarVolume) -> DenseFeatureMap:
    """Scatter active sites into a zero-initialized dense map."""
    data = np.zeros((v.ny, v.nx, v.channels), v.features.dtype)
    if v.n_active:
        data[v.coords[:, 1], v.coords[:, 0]] = v.features
    return DenseFeatureMap(v.stride, data)


def dense_conv2d(data, weight: np.ndarray, bias: np.ndarray,
                 stride: int = 1, out=None):
    """Dense 3x3 convolution, zero padding 1, via shift-and-matmul.

    The padded input is split into stride x stride phase planes (one plane
    at stride 1), each stored as flat pixel rows of one common width. Output
    pixel (oy, ox) then reads offset (ky, kx) at a fixed row distance in
    plane (ky % stride, kx % stride), so each offset's GEMM operand is a
    contiguous row range and nothing is copied per offset. Outputs are
    computed over the plane width and the extra columns dropped; rows are
    accumulated band by band, a band being the whole output rows of about
    ``_CONV_BAND_PIXELS`` plane pixels (5 rows of a 376-wide map), so each
    offset GEMM has that many rows. The planes are never held whole: one
    buffer takes the plane rows of one chunk of output rows (a whole number
    of bands, about ``_CHUNK_BYTES``) at a time.

    Both ends stream. The input is read only as ``data[r0:r1]``, one row
    range per chunk, ranges never moving backwards, so any object with
    ``.shape``, ``.dtype`` and such row slicing can stand for the map (a
    lateral's upsampled half deconvolves its rows as they are asked for).
    The output is written one band at a time as ``out[y0:y1] = rows``,
    into ``out`` when given (any object with the output's ``.shape`` that
    takes such assignments, as the center heads' band epilogue does), else
    into a new array; the result is ``out``.
    """
    h, w_in, c_in = data.shape
    if weight.shape[:3] != (3, 3, c_in):
        raise ValueError(f"kernel shape {weight.shape} incompatible with input")
    if stride not in (1, 2):
        raise ValueError(f"unsupported stride {stride}")
    c_out = weight.shape[3]
    dtype = np.result_type(data.dtype, weight, bias)
    s = stride
    h_out, w_out = _out_dim(h, s), _out_dim(w_in, s)
    if out is None:
        out = np.empty((h_out, w_out, c_out), dtype)
    elif out.shape != (h_out, w_out, c_out):
        raise ValueError(f"output shape {out.shape} != {(h_out, w_out, c_out)}")
    reach = 2 // s  # largest plane shift of a kernel offset
    width = w_out + reach
    band = max(1, _CONV_BAND_PIXELS // width)
    chunk = band * max(1, _CHUNK_BYTES // (s * s * band * width * c_in * dtype.itemsize))
    # one spare row: the last band's shifted row range ends up to `reach`
    # pixels past the chunk's plane rows
    rows = min(chunk, h_out) + reach + 1
    planes = np.zeros((s, s, rows, width, c_in), dtype)
    flat = planes.reshape(s, s, rows * width, c_in)

    acc = np.empty((band * width, c_out), dtype)
    tmp = np.empty_like(acc)
    for c0 in range(0, h_out, chunk):
        c1 = min(h_out, c0 + chunk)
        # plane row r of phase (py, px), buffer row r - c0, holds data row
        # s*r + py - 1; the chunk's planes read data rows [r_lo, r_hi)
        r_lo, r_hi = max(0, s * c0 - 1), min(h, s * (c0 + rows) - 1)
        block = data[r_lo:r_hi]
        for py in range(s):
            for px in range(s):
                # the first plane row and column holding data, (iy, ix), hold
                # data row and column (dy, dx); the padding above is only in
                # the first, still zero, chunk
                dy, dx = (py - 1) % s, (px - 1) % s
                iy, ix = (dy + 1 - py) // s, (dx + 1 - px) // s
                lo = max(c0, iy)
                hi = max(lo, min(c0 + rows, iy + (h - dy + s - 1) // s))
                src = block[s * (lo - iy) + dy - r_lo::s][:hi - lo, dx::s]
                plane = planes[py, px]
                plane[lo - c0:hi - c0, ix:ix + src.shape[1]] = src
                plane[hi - c0:] = 0
        # a row source may reuse the block's memory for its next read
        del block, src
        for y0 in range(c0, c1, band):
            y1 = min(c1, y0 + band)
            n = (y1 - y0) * width
            a, t = acc[:n], tmp[:n]
            for ky in range(3):
                for kx in range(3):
                    start = (y0 - c0 + ky // s) * width + kx // s
                    src = flat[ky % s, kx % s, start:start + n]
                    if ky == kx == 0:
                        np.matmul(src, weight[ky, kx], out=a)
                    else:
                        np.matmul(src, weight[ky, kx], out=t)
                        a += t
            a += bias
            out[y0:y1] = a.reshape(y1 - y0, width, c_out)[:, :w_out]
    return out


def deconv2x2(data: np.ndarray, weight: np.ndarray, bias: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Stride-2 transposed convolution with a 2x2 kernel: exact 2x upsample.

    All input pixels are one :func:`gemm_rows` product against the kernel
    laid out as (c_in, 4 * c_out), column block ``2 * dy + dx`` holding
    ``weight[dy, dx]``. Each GEMM's rows go straight to their output
    pixels (``2y + dy``, ``2x + dx``), into ``out`` when given (a
    C-contiguous (2h, 2w, c_out) array), else into a new array; the result
    is ``out``. The pipeline passes it a chunk's rows of a map, or the
    parents :func:`deconv2x2_at` asks for.
    """
    h, w_in, c_in = data.shape
    if weight.shape[:3] != (2, 2, c_in):
        raise ValueError(f"deconv kernel shape {weight.shape} incompatible with input")
    c_out = weight.shape[3]
    shape = (2 * h, 2 * w_in, c_out)
    if out is None:
        out = np.empty(shape, np.result_type(data, weight, bias))
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"output must be a C-contiguous {shape} array")
    # input pixel (y, x)'s row block 2 * dy + dx is output pixel
    # (2y + dy, 2x + dx): (y, dy, x, (dx, c)) viewed as (y, x, dy, (dx, c))
    children = out.reshape(h, 2, w_in, 2 * c_out).transpose(0, 2, 1, 3)
    gemm_rows(data.reshape(-1, c_in),
              weight.transpose(2, 0, 1, 3).reshape(c_in, 4 * c_out),
              np.tile(bias, 4), out=_PixelRows(children))
    return out


class _PixelRows:
    """An (h, w, ...) array written by ranges of its flat pixels: ``rows[i:j]
    = values`` puts ``values[k]`` at pixel ``divmod(i + k, w)``."""

    def __init__(self, pixels: np.ndarray):
        self._pixels, self.dtype = pixels, pixels.dtype

    def __setitem__(self, rows: slice, values: np.ndarray) -> None:
        y, x = np.divmod(np.arange(rows.start, rows.stop), self._pixels.shape[1])
        self._pixels[y, x] = values.reshape((len(y),) + self._pixels.shape[2:])


def deconv2x2_at(data: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                 iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
    """Rows ``deconv2x2(data, weight, bias)[iy, ix]``, as (K, c_out).

    Only the input pixels under the requested output cells are
    deconvolved: :func:`deconv2x2` of the distinct parent pixels laid out
    as a one-pixel-wide column, whose output row pair ``2k, 2k + 1``
    holds parent k's four children.
    """
    w_in, c_in = data.shape[1], data.shape[2]
    parents, slot = np.unique((iy // 2) * w_in + ix // 2, return_inverse=True)
    column = deconv2x2(data.reshape(-1, c_in)[parents, None], weight, bias)
    return column[2 * slot.reshape(-1) + iy % 2, ix % 2]


# the field of each sparse backbone level, by stride
_LEVEL_FIELDS = {1: "c1", 2: "c2", 4: "c3", 8: "c4"}


@dataclass
class BackboneFeatures:
    """Backbone hierarchy: sparse C1-C4 at strides 1, 2, 4 and 8 plus the
    dense C5 map at stride 16.

    A level is None once released, after its last reader: a pipeline run
    releases C1 and C2 once the backbone has run, and
    :func:`~pillardet.fpn.build_pyramid` releases C5 and C4 once P4 is
    built and C3 once P3 is built, each unless the pooling map reads it.
    """

    c1: SparsePillarVolume | None
    c2: SparsePillarVolume | None
    c3: SparsePillarVolume | None
    c4: SparsePillarVolume | None
    c5: DenseFeatureMap | None

    def volume_at(self, stride: int) -> SparsePillarVolume:
        if stride not in _LEVEL_FIELDS:
            raise ValueError(f"no sparse volume at stride {stride}")
        v = getattr(self, _LEVEL_FIELDS[stride])
        if v is None:
            raise ValueError(f"the stride-{stride} volume was released")
        return v


def _relu_volume(v: SparsePillarVolume) -> SparsePillarVolume:
    return SparsePillarVolume(v.stride, v.nx, v.ny, v.coords, relu(v.features))


def backbone_forward(v: SparsePillarVolume, weights: WeightStore,
                     channels: tuple[int, ...]) -> BackboneFeatures:
    """Run the five-stage hierarchy on a stride-1 pillar volume.

    Stage 1 is a single submanifold conv; stages 2-4 each apply a regular
    stride-2 conv then a submanifold conv; stage 5 densifies and applies
    two standard convolutions (the first stride-2). Every conv is followed
    by ReLU. Output strides are 1, 2, 4, 8, 16.
    """
    if len(channels) != 5:
        raise ValueError("channel plan must list five stages")
    if v.nx % 16 or v.ny % 16:
        raise ValueError(f"grid dims ({v.nx}, {v.ny}) must be divisible by 16")
    if v.channels != channels[0]:
        raise ValueError(
            f"input volume has {v.channels} channels, plan starts at {channels[0]}"
        )

    def conv(vol, name, stride=1, submanifold=False):
        out = sparse_conv2d(vol, weights.get(f"{name}.w"), weights.get(f"{name}.b"),
                            stride=stride, submanifold=submanifold)
        return _relu_volume(out)

    c1 = conv(v, "backbone.s1.subm", submanifold=True)
    stages = [c1]
    prev = c1
    for k in (2, 3, 4):
        down = conv(prev, f"backbone.s{k}.down", stride=2)
        prev = conv(down, f"backbone.s{k}.subm", submanifold=True)
        stages.append(prev)
    c2, c3, c4 = stages[1], stages[2], stages[3]

    # the densified C4 dies once the stride-2 conv has read it
    d = dense_conv2d(densify(c4).data, weights.get("backbone.s5.down.w"),
                     weights.get("backbone.s5.down.b"), stride=2)
    np.maximum(d, 0.0, out=d)
    d = dense_conv2d(d, weights.get("backbone.s5.conv.w"),
                     weights.get("backbone.s5.conv.b"), stride=1)
    np.maximum(d, 0.0, out=d)
    c5 = DenseFeatureMap(c4.stride * 2, d)
    return BackboneFeatures(c1, c2, c3, c4, c5)
