import tracemalloc

import numpy as np
import pytest

from pillardet import grid
from pillardet.grid import (GridSpec, PointCloud, SparsePillarVolume,
                            backbone_forward, deconv2x2, dense_conv2d,
                            conv3x3_at, densify, gemm_rows, pillarize,
                            reached_cells, sparse_conv2d)
from pillardet.oracles import (deconv_reference, dense_conv_reference,
                               lateral_reference)
from pillardet.verify import border_volume, random_volume
from pillardet.weights import WeightStore


def pfe_store(channels=4, identity=True, seed=0):
    if identity:
        return WeightStore({"pfe.linear.w": np.eye(4)[:, :channels],
                            "pfe.linear.b": np.zeros(channels)})
    return WeightStore.seeded({"pfe.linear.w": (4, channels),
                               "pfe.linear.b": (channels,)}, seed)


class RowSource:
    """An array seen only through ``.shape``, ``.dtype`` and row slices,
    each answered with a copy and logged."""

    def __init__(self, data):
        self._data = data
        self.shape, self.dtype = data.shape, data.dtype
        self.requests = []

    def __getitem__(self, rows):
        r0, r1, step = rows.indices(self.shape[0])
        assert step == 1
        self.requests.append((r0, r1))
        return self._data[r0:r1].copy()


class RowSink:
    """Takes ``sink[y0:y1] = rows`` band by band and logs the rows written."""

    def __init__(self, shape, dtype):
        self.shape = shape
        self.data = np.full(shape, np.nan, dtype)
        self.rows = []

    def __setitem__(self, rows, values):
        r0, r1, _ = rows.indices(self.shape[0])
        self.rows.extend(range(r0, r1))
        self.data[rows] = values


class TestGridSpec:
    def test_default_dims(self):
        spec = GridSpec()
        assert spec.nx == spec.ny == 1504

    def test_non_integer_span_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(x_min=0.0, x_max=1.05, y_min=0.0, y_max=1.0,
                     pillar_size=0.1)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(z_min=4.0, z_max=-2.0)


class TestPillarize:
    def test_single_point_cell_index(self):
        spec = GridSpec()
        v = pillarize(PointCloud(np.array([[0.05, 0.05, 0.0, 0.5]])),
                      spec, pfe_store())
        assert v.coords.tolist() == [[752, 752]]
        assert v.stride == 1 and v.nx == 1504

    def test_point_on_max_boundary_dropped(self):
        spec = GridSpec()
        v = pillarize(PointCloud(np.array([[75.2, 0.0, 0.0, 0.5]])),
                      spec, pfe_store())
        assert v.n_active == 0

    def test_z_out_of_range_dropped(self):
        spec = GridSpec()
        pts = np.array([[0.0, 0.0, 4.0, 0.5], [0.0, 0.0, -2.01, 0.5]])
        assert pillarize(PointCloud(pts), spec, pfe_store()).n_active == 0

    def test_max_pool_of_two_points_in_one_cell(self):
        spec = GridSpec(x_min=0, x_max=1, y_min=0, y_max=1, z_min=0, z_max=4,
                        pillar_size=1.0)
        pts = np.array([[0.2, 0.5, 1.0, 0.3],
                        [0.7, 0.5, 2.0, 0.1]])
        v = pillarize(PointCloud(pts), spec, pfe_store())
        # identity encoder + ReLU: features are relu([dx, dy, z, i]) per point
        enc = np.maximum(np.array([[0.2 - 0.5, 0.0, 1.0, 0.3],
                                   [0.7 - 0.5, 0.0, 2.0, 0.1]]), 0.0)
        np.testing.assert_allclose(v.features[0], enc.max(axis=0))

    def test_permutation_invariance(self):
        spec = GridSpec(x_min=-8, x_max=8, y_min=-8, y_max=8, pillar_size=0.1)
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.uniform(-8, 8, 400), rng.uniform(-8, 8, 400),
                               rng.uniform(-2, 4, 400), rng.random(400)])
        store = pfe_store(identity=False)
        v1 = pillarize(PointCloud(pts), spec, store)
        v2 = pillarize(PointCloud(pts[rng.permutation(400)]), spec, store)
        assert np.array_equal(v1.coords, v2.coords)
        np.testing.assert_array_equal(v1.features, v2.features)

    def test_empty_cloud(self):
        v = pillarize(PointCloud.empty(), GridSpec(), pfe_store())
        assert v.n_active == 0 and v.channels == 4


class TestSparseConv:
    def test_submanifold_rejects_stride_two(self):
        v = random_volume(np.random.default_rng(0), 8, 8, 3)
        w = np.zeros((3, 3, 3, 3))
        with pytest.raises(ValueError):
            sparse_conv2d(v, w, np.zeros(3), stride=2, submanifold=True)

    def test_submanifold_identity_kernel(self):
        v = SparsePillarVolume(1, 8, 8, np.array([[4, 4]]),
                               np.array([[1.0, -2.0, 3.0]]))
        w = np.zeros((3, 3, 3, 3))
        w[1, 1] = np.eye(3)
        out = sparse_conv2d(v, w, np.zeros(3), submanifold=True)
        assert np.array_equal(out.coords, v.coords)
        np.testing.assert_array_equal(out.features, v.features)

    def test_submanifold_preserves_active_set(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = random_volume(rng, 12, 12, 4)
            out = sparse_conv2d(v, rng.normal(size=(3, 3, 4, 5)),
                                rng.normal(size=5), submanifold=True)
            assert np.array_equal(out.coords, v.coords)

    def test_stride_two_active_set_from_dense_oracle(self):
        # single even-coordinate site reaches exactly one output cell,
        # an odd-coordinate site reaches four; the oracle decides
        w = np.random.default_rng(2).normal(size=(3, 3, 2, 2))
        for site in ((4, 4), (3, 3), (5, 2)):
            v = SparsePillarVolume(1, 16, 16, np.array([site]), np.ones((1, 2)))
            out = sparse_conv2d(v, w, np.zeros(2), stride=2)
            ref = dense_conv_reference(densify(v).data, w, stride=2)
            expected = {(int(ix), int(iy)) for iy, ix in
                        np.argwhere(np.any(ref != 0.0, axis=-1))}
            assert {tuple(c) for c in out.coords.tolist()} == expected

    @pytest.mark.parametrize("stride", [1, 2])
    def test_regular_active_set_is_every_reached_cell(self, stride):
        # brute force: an all-ones kernel over the occupancy map counts the
        # active sites under each output cell's window
        rng = np.random.default_rng(13)
        ones = np.ones((3, 3, 1, 1))
        for _ in range(20):
            nx, ny = (int(n) for n in rng.integers(1, 15, 2))
            v = random_volume(rng, nx, ny, 2, density=float(rng.uniform(0.02, 0.3)))
            count = dense_conv_reference(densify(
                SparsePillarVolume(1, nx, ny, v.coords, np.ones((v.n_active, 1)))
            ).data, ones, stride=stride)[:, :, 0]
            oy, ox = np.nonzero(count)
            expected = np.sort(ox * count.shape[0] + oy)
            np.testing.assert_array_equal(reached_cells(v, stride), expected)
            out = sparse_conv2d(v, rng.normal(size=(3, 3, 2, 3)), np.zeros(3),
                                stride=stride)
            assert {tuple(c) for c in out.coords.tolist()} == set(zip(ox, oy))

    @pytest.mark.parametrize("stride,submanifold", [(1, True), (1, False), (2, False)])
    def test_matches_dense_reference(self, stride, submanifold):
        rng = np.random.default_rng(3)
        for _ in range(25):
            c_in, c_out = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            v = random_volume(rng, 14, 14, c_in)
            w = rng.normal(size=(3, 3, c_in, c_out))
            out = sparse_conv2d(v, w, np.zeros(c_out), stride=stride,
                                submanifold=submanifold)
            ref = dense_conv_reference(densify(v).data, w, stride=stride)
            if submanifold:
                mask = np.zeros(ref.shape[:2], dtype=bool)
                mask[v.coords[:, 1], v.coords[:, 0]] = True
                ref = ref * mask[:, :, None]
            assert np.abs(densify(out).data - ref).max() < 1e-5

    def test_bias_applies_at_active_sites_only(self):
        rng = np.random.default_rng(4)
        v = random_volume(rng, 10, 10, 3)
        w = rng.normal(size=(3, 3, 3, 4))
        bias = rng.normal(size=4)
        out = sparse_conv2d(v, w, bias, stride=1)
        ref = dense_conv_reference(densify(v).data, w, stride=1)
        got = densify(out).data
        for ix, iy in out.coords:
            np.testing.assert_allclose(got[iy, ix], ref[iy, ix] + bias,
                                       atol=1e-10)
        active = np.zeros(got.shape[:2], dtype=bool)
        active[out.coords[:, 1], out.coords[:, 0]] = True
        assert np.all(got[~active] == 0.0)

    def test_empty_volume(self):
        v = SparsePillarVolume.empty(1, 8, 8, 3)
        out = sparse_conv2d(v, np.zeros((3, 3, 3, 2)), np.ones(2), stride=2)
        assert out.n_active == 0 and out.nx == 4


class TestDensify:
    def test_empty_volume_gives_zero_map(self):
        m = densify(SparsePillarVolume.empty(2, 8, 6, 3))
        assert m.data.shape == (6, 8, 3) and not m.data.any()

    def test_single_site(self):
        v = SparsePillarVolume(1, 8, 8, np.array([[2, 5]]), np.array([[7.0, -1.0]]))
        m = densify(v)
        assert m.data[5, 2].tolist() == [7.0, -1.0]
        assert np.count_nonzero(m.data) == 2

    def test_sites_at_their_cells_and_zero_elsewhere(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = random_volume(rng, 10, 7, 3)
            m = densify(v)
            assert m.data.shape == (7, 10, 3)
            active = np.zeros((7, 10), dtype=bool)
            for (ix, iy), f in zip(v.coords, v.features):
                np.testing.assert_array_equal(m.data[iy, ix], f)
                active[iy, ix] = True
            assert not m.data[~active].any()


class TestDenseOps:
    def test_dense_conv_matches_reference(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(11, 9, 4))
        w = rng.normal(size=(3, 3, 4, 5))
        b = rng.normal(size=5)
        for stride in (1, 2):
            fast = dense_conv2d(x, w, b, stride=stride)
            np.testing.assert_allclose(
                fast, dense_conv_reference(x, w, stride=stride) + b, atol=1e-10)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("h,w", [(1, 1), (2, 3), (7, 5), (4, 9)])
    def test_dense_conv_small_and_odd_shapes(self, stride, h, w):
        rng = np.random.default_rng(h * 10 + w)
        x = rng.normal(size=(h, w, 3))
        wt = rng.normal(size=(3, 3, 3, 2))
        b = rng.normal(size=2)
        np.testing.assert_allclose(dense_conv2d(x, wt, b, stride=stride),
                                   dense_conv_reference(x, wt, stride=stride) + b,
                                   atol=1e-10)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_dense_conv_across_row_bands(self, stride):
        # tall enough for two full accumulation bands plus a partial one
        w = 5
        width = (w - 1) // stride + 1 + 2 // stride
        band = max(1, grid._CONV_BAND_PIXELS // width)
        h = stride * (2 * band + 1) + 1
        rng = np.random.default_rng(stride)
        x = rng.normal(size=(h, w, 2))
        wt = rng.normal(size=(3, 3, 2, 3))
        b = rng.normal(size=3)
        out = dense_conv2d(x, wt, b, stride=stride)
        assert out.shape[0] > 2 * band
        np.testing.assert_allclose(out, dense_conv_reference(x, wt, stride=stride)
                                   + b, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_dense_conv_across_chunks(self, monkeypatch, stride, dtype):
        # two chunks of two bands each plus a partial chunk give the bits
        # of one chunk spanning the whole map
        w, c = 7, 3
        width = (w - 1) // stride + 1 + 2 // stride
        band = max(1, grid._CONV_BAND_PIXELS // width)
        h_out = 4 * band + band // 2 + 1
        rng = np.random.default_rng(10 + stride)
        x = rng.normal(size=(stride * (h_out - 1) + 1, w, c)).astype(dtype)
        wt = rng.normal(size=(3, 3, c, 2)).astype(dtype)
        b = rng.normal(size=2).astype(dtype)
        band_bytes = stride * stride * band * width * c * np.dtype(dtype).itemsize
        monkeypatch.setattr(grid, "_CHUNK_BYTES", 2 * band_bytes)
        chunked = dense_conv2d(x, wt, b, stride=stride)
        monkeypatch.setattr(grid, "_CHUNK_BYTES", 5 * band_bytes)
        whole = dense_conv2d(x, wt, b, stride=stride)
        assert chunked.shape[0] == h_out and chunked.dtype == dtype
        assert chunked.tobytes() == whole.tobytes()
        tol = 1e-5 if dtype == np.float32 else 1e-10
        np.testing.assert_allclose(chunked, dense_conv_reference(x, wt, stride=stride)
                                   + b, rtol=tol, atol=tol)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_dense_conv_holds_no_padded_copy(self, stride):
        # on a 16 MiB input only the output and chunk-sized buffers are
        # allocated; a full padded copy would be another input's worth
        rng = np.random.default_rng(12)
        x = rng.standard_normal((256, 256, 64), dtype=np.float32)
        wt = rng.standard_normal((3, 3, 64, 64), dtype=np.float32)
        b = np.zeros(64, np.float32)
        tracemalloc.start()
        try:
            out = dense_conv2d(x, wt, b, stride=stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.nbytes >= 16 << 20
        assert peak < out.nbytes + x.nbytes // 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_dense_conv_streams_from_row_source_into_sink(self, monkeypatch,
                                                          stride, dtype):
        # a map of 4.5 chunks of two bands: the row-source and sink call
        # gives the bits of the array call
        w, c = 9, 3
        width = (w - 1) // stride + 1 + 2 // stride
        band = max(1, grid._CONV_BAND_PIXELS // width)
        h_out = 9 * band + 1
        rng = np.random.default_rng(20 + stride)
        x = rng.normal(size=(stride * h_out, w, c)).astype(dtype)
        wt = rng.normal(size=(3, 3, c, 4)).astype(dtype)
        b = rng.normal(size=4).astype(dtype)
        monkeypatch.setattr(grid, "_CHUNK_BYTES",
                            2 * stride * stride * band * width * c * x.itemsize)
        source, sink = RowSource(x), RowSink((h_out, (w - 1) // stride + 1, 4), dtype)
        assert dense_conv2d(source, wt, b, stride=stride, out=sink) is sink
        whole = dense_conv2d(x, wt, b, stride=stride)
        assert sink.data.tobytes() == whole.tobytes()
        assert len(source.requests) >= 3
        assert all(a0 <= b0 and a1 <= b1 for (a0, a1), (b0, b1)
                   in zip(source.requests, source.requests[1:]))
        assert sink.rows == list(range(h_out))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_dense_conv_bits_do_not_depend_on_the_band_size(self, monkeypatch,
                                                             stride):
        # a 376-wide float32 map, as the full-range P3 level, through a row
        # source into a sink: one-row bands (GEMMs of one plane row) and the
        # default bands of several rows give the same bits, so a BLAS that
        # rounds a row by its GEMM's row count fails here
        h, w, c_in, c_out = 48, 376, 128, 64
        rng = np.random.default_rng(30 + stride)
        x = rng.standard_normal((h, w, c_in), dtype=np.float32)
        wt = rng.standard_normal((3, 3, c_in, c_out), dtype=np.float32)
        b = rng.standard_normal(c_out, dtype=np.float32)
        shape = ((h - 1) // stride + 1, (w - 1) // stride + 1, c_out)
        width = shape[1] + 2 // stride
        assert shape[0] > 2 * (grid._CONV_BAND_PIXELS // width) > 2
        banded = RowSink(shape, np.float32)
        dense_conv2d(RowSource(x), wt, b, stride=stride, out=banded)
        monkeypatch.setattr(grid, "_CONV_BAND_PIXELS", 1)
        one_row = RowSink(shape, np.float32)
        dense_conv2d(RowSource(x), wt, b, stride=stride, out=one_row)
        assert banded.rows == one_row.rows == list(range(shape[0]))
        assert banded.data.tobytes() == one_row.data.tobytes()

    def test_dense_conv_rejects_a_sink_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match="output shape"):
            dense_conv2d(np.zeros((4, 4, 1)), np.zeros((3, 3, 1, 2)),
                         np.zeros(2), out=np.zeros((4, 4, 1)))

    def test_dense_conv_takes_channel_slice_of_kernel(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 7, 3))
        full = rng.normal(size=(3, 3, 5, 4))
        for wt in (full[:, :, :3], full[:, :, 2:]):
            assert not wt.flags.c_contiguous
            np.testing.assert_allclose(dense_conv2d(x, wt, np.zeros(4)),
                                       dense_conv_reference(x, np.ascontiguousarray(wt)),
                                       atol=1e-10)

    def test_dense_conv_rejects_unsupported_stride(self):
        with pytest.raises(ValueError, match="stride"):
            dense_conv2d(np.zeros((4, 4, 1)), np.zeros((3, 3, 1, 1)),
                         np.zeros(1), stride=3)

    def test_deconv_doubles_dims(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 7, 3))
        out = deconv2x2(x, rng.normal(size=(2, 2, 3, 4)), rng.normal(size=4))
        assert out.shape == (10, 14, 4)

    def test_deconv_scatter_semantics(self):
        x = np.zeros((2, 2, 1))
        x[0, 0, 0] = 1.0
        w = np.arange(4.0).reshape(2, 2, 1, 1)
        out = deconv2x2(x, w, np.zeros(1))
        np.testing.assert_array_equal(out[:2, :2, 0], [[0, 1], [2, 3]])
        assert not out[2:, 2:].any()

    def test_deconv_matches_per_pixel_formula(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 5, 4))
        w, b = rng.normal(size=(2, 2, 4, 3)), rng.normal(size=3)
        np.testing.assert_allclose(deconv2x2(x, w, b), deconv_reference(x, w, b),
                                   atol=1e-12)

    def test_deconv_writes_into_the_buffer_it_is_given(self):
        # 1400 input pixels: three GEMMs, whose bands end mid-row
        rng = np.random.default_rng(13)
        x = rng.standard_normal((20, 70, 6), dtype=np.float32)
        w = rng.standard_normal((2, 2, 6, 5), dtype=np.float32)
        b = rng.standard_normal(5, dtype=np.float32)
        buf = np.full((41, 140, 5), np.nan, np.float32)
        out = deconv2x2(x, w, b, out=buf[1:])
        assert out.base is buf and np.isnan(buf[0]).all()
        assert out.tobytes() == deconv2x2(x, w, b).tobytes()
        np.testing.assert_allclose(out, deconv_reference(x, w, b), rtol=1e-5,
                                   atol=1e-5)
        for wrong in (buf[1:, :, :4], buf[1:, :, ::-1],
                      np.asfortranarray(buf[1:])):
            with pytest.raises(ValueError, match="C-contiguous"):
                deconv2x2(x, w, b, out=wrong)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_per_pixel_references_compute_in_their_inputs_dtype(self, dtype):
        rng = np.random.default_rng(12)
        x, bottom_up = rng.normal(size=(3, 5, 4)), rng.normal(size=(6, 10, 2))
        w, b = rng.normal(size=(2, 2, 4, 3)), rng.normal(size=3)
        conv_w, conv_b = rng.normal(size=(3, 3, 5, 2)), rng.normal(size=2)
        x, bottom_up, w, b, conv_w, conv_b = (
            a.astype(dtype) for a in (x, bottom_up, w, b, conv_w, conv_b))
        deconv = deconv_reference(x, w, b)
        outs = [dense_conv_reference(x, conv_w[:, :, :4]), deconv,
                lateral_reference(x, w, b, [bottom_up], conv_w, conv_b)]
        assert [o.dtype for o in outs] == [dtype] * 3
        # the kernel sums in another order: equal to float32 rounding
        np.testing.assert_allclose(deconv, deconv2x2(x, w, b), rtol=1e-6,
                                   atol=1e-6)

    @pytest.mark.parametrize("h, w_in, c_in, c_out, dtype", [
        (4, 6, 5, 3, np.float64),
        # 1200 input pixels: the whole map is three GEMMs, while the
        # cells' parents are one column of at most 300 rows
        (30, 40, 128, 128, np.float32)])
    def test_deconv_at_cells_equals_full_map_rows(self, h, w_in, c_in, c_out,
                                                  dtype):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(h, w_in, c_in)).astype(dtype)
        w = rng.normal(size=(2, 2, c_in, c_out)).astype(dtype)
        b = rng.normal(size=c_out).astype(dtype)
        iy = rng.integers(0, 2 * h, 300)
        ix = rng.integers(0, 2 * w_in, 300)
        np.testing.assert_array_equal(grid.deconv2x2_at(x, w, b, iy, ix),
                                      deconv2x2(x, w, b)[iy, ix])
        none = np.zeros(0, dtype=np.int64)
        assert grid.deconv2x2_at(x, w, b, none, none).shape == (0, c_out)


def conv_at_case(name, stride, rng):
    """(volume, kernel, output cells) of one named ``conv3x3_at`` case."""
    nx, ny = (90, 50) if name == "many-bands" else (9, 6)
    v = random_volume(rng, nx, ny, 3, density=0.2)
    if name == "empty-volume":
        v = SparsePillarVolume.empty(1, nx, ny, 3)
    elif name == "border-only":
        v = border_volume(rng, nx, ny, 3)
    full = rng.normal(size=(3, 3, 5, 2))
    wt = full[:, :, 2:] if name == "kernel-slice" else full[:, :, :3]
    cells = np.arange(((nx - 1) // stride + 1) * ((ny - 1) // stride + 1))
    if name == "no-cells":
        cells = cells[:0]
    elif name == "chosen-cells":
        cells = np.sort(rng.choice(cells, size=10, replace=False))
    elif name == "reached-cells":
        cells = reached_cells(v, stride)
    return v, wt, cells


class TestConvAtCells:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("name", ["no-cells", "empty-volume", "border-only",
                                      "many-bands", "kernel-slice",
                                      "chosen-cells", "reached-cells"])
    def test_matches_dense_reference_at_the_cells(self, name, stride):
        v, wt, cells = conv_at_case(name, stride, np.random.default_rng(12))
        if name == "kernel-slice":
            assert not wt.flags.c_contiguous
        if name == "many-bands":
            # more than two full GEMM bands and a partial one
            assert len(cells) > 2 * grid._BAND_ROWS and len(cells) % grid._BAND_ROWS
        ref = dense_conv_reference(densify(v).data, wt, stride=stride)
        got = conv3x3_at(v, wt, cells, stride)
        assert got.shape == (len(cells), 2)
        h_out = ref.shape[0]
        np.testing.assert_allclose(got, ref[cells % h_out, cells // h_out],
                                   atol=1e-10)

    def test_rejects_kernel_of_other_channel_count(self):
        v = SparsePillarVolume.empty(1, 4, 4, 3)
        with pytest.raises(ValueError, match="incompatible"):
            conv3x3_at(v, np.zeros((3, 3, 2, 1)), np.arange(4))



def gemm_case(n, indexed, dtype, rng):
    """(x, weight, bias, index) of an n-row product with K = 64, N = 8: a
    shape where OpenBLAS rounds a row by the row count of its call."""
    if indexed:
        x = rng.normal(size=(300, 32)).astype(dtype)
        index = rng.integers(0, len(x), size=(n, 2))
    else:
        x, index = rng.normal(size=(n, 64)).astype(dtype), None
    return (x, rng.normal(size=(64, 8)).astype(dtype),
            rng.normal(size=8).astype(dtype), index)


class TestGemmRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("indexed", [False, True], ids=["rows", "index"])
    @pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1500])
    def test_every_row_equals_that_row_alone(self, n, indexed, dtype):
        x, w, b, index = gemm_case(n, indexed, dtype, np.random.default_rng(n))
        out = gemm_rows(x, w, b, index)
        assert out.shape == (n, 8) and out.dtype == dtype
        for i in range(n):
            alone = (gemm_rows(x, w, b, index[i:i + 1]) if indexed
                     else gemm_rows(x[i:i + 1], w, b))
            assert alone.tobytes() == out[i].tobytes(), i
        rows = x[index].reshape(n, 64) if indexed else x
        tol = 1e-4 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(out, rows @ w + b, rtol=tol, atol=tol)

    def test_writes_each_gemm_into_a_given_sink_in_order(self):
        x, w, b, index = gemm_case(1300, True, np.float32, np.random.default_rng(5))
        written = []

        class Sink:
            dtype = np.dtype(np.float32)

            def __setitem__(self, rows, values):
                written.append((rows.start, rows.stop, values.copy()))

        sink = Sink()
        assert gemm_rows(x, w, b, index, out=sink) is sink
        assert [(i, j) for i, j, _ in written] == [(0, 512), (512, 1024),
                                                   (1024, 1300)]
        assert (np.concatenate([v for *_, v in written]).tobytes()
                == gemm_rows(x, w, b, index).tobytes())

    def test_without_bias_is_the_bare_product(self):
        x, w, b, _ = gemm_case(700, False, np.float64, np.random.default_rng(3))
        assert (gemm_rows(x, w) + b).tobytes() == gemm_rows(x, w, b).tobytes()

    @pytest.mark.parametrize("indexed", [False, True], ids=["rows", "index"])
    def test_holds_one_band_and_one_result_beyond_its_output(self, indexed):
        # 3000 rows of K = 256: a whole gather would be 3 MB, a band 0.5 MB
        rng = np.random.default_rng(4)
        w = rng.standard_normal((256, 64), dtype=np.float32)
        b = rng.standard_normal(64, dtype=np.float32)
        if indexed:
            x = rng.standard_normal((1000, 64), dtype=np.float32)
            index = rng.integers(0, len(x), size=(3000, 4))
        else:
            x, index = rng.standard_normal((3000, 256), dtype=np.float32), None
        tracemalloc.start()
        try:
            out = gemm_rows(x, w, b, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (3000, 64)
        # and NumPy's 32 KiB buffer for the bias add
        assert peak <= out.nbytes + grid._BAND_ROWS * (256 + 64) * 4 + (64 << 10)

def backbone_store(plan, seed=0):
    layout = {"pfe.linear.w": (4, plan[0]), "pfe.linear.b": (plan[0],),
              "backbone.s1.subm.w": (3, 3, plan[0], plan[0]),
              "backbone.s1.subm.b": (plan[0],)}
    for k in (2, 3, 4):
        layout[f"backbone.s{k}.down.w"] = (3, 3, plan[k - 2], plan[k - 1])
        layout[f"backbone.s{k}.down.b"] = (plan[k - 1],)
        layout[f"backbone.s{k}.subm.w"] = (3, 3, plan[k - 1], plan[k - 1])
        layout[f"backbone.s{k}.subm.b"] = (plan[k - 1],)
    layout["backbone.s5.down.w"] = (3, 3, plan[3], plan[4])
    layout["backbone.s5.down.b"] = (plan[4],)
    layout["backbone.s5.conv.w"] = (3, 3, plan[4], plan[4])
    layout["backbone.s5.conv.b"] = (plan[4],)
    return WeightStore.seeded(layout, seed)


class TestBackbone:
    plan = (4, 8, 8, 16, 16)

    def grid(self):
        return GridSpec(x_min=-3.2, x_max=3.2, y_min=-3.2, y_max=3.2,
                        pillar_size=0.1)

    def test_strides_multiply(self):
        spec = self.grid()
        store = backbone_store(self.plan)
        rng = np.random.default_rng(8)
        pts = np.column_stack([rng.uniform(-3, 3, 200), rng.uniform(-3, 3, 200),
                               rng.uniform(-1, 2, 200), rng.random(200)])
        feats = backbone_forward(pillarize(PointCloud(pts), spec, store),
                                 store, self.plan)
        assert [feats.c1.stride, feats.c2.stride, feats.c3.stride,
                feats.c4.stride, feats.c5.stride] == [1, 2, 4, 8, 16]
        assert (feats.c3.nx, feats.c4.nx) == (16, 8)
        assert feats.c5.data.shape == (4, 4, self.plan[4])

    def test_channel_plan_echo(self):
        plan = (4, 8, 8, 16, 24)
        store = backbone_store(plan, seed=3)
        spec = self.grid()
        rng = np.random.default_rng(9)
        pts = np.column_stack([rng.uniform(-3, 3, 50), rng.uniform(-3, 3, 50),
                               rng.uniform(0, 2, 50), rng.random(50)])
        feats = backbone_forward(pillarize(PointCloud(pts), spec, store),
                                 store, plan)
        assert feats.c5.channels == 24

    def test_empty_cloud_does_not_crash(self):
        store = backbone_store(self.plan)
        feats = backbone_forward(
            pillarize(PointCloud.empty(), self.grid(), store), store, self.plan)
        assert feats.c1.n_active == feats.c4.n_active == 0
        # bias propagation through the dense stage leaves C5 non-zero
        assert np.abs(feats.c5.data).max() > 0

    def test_indivisible_grid_rejected(self):
        spec = GridSpec(x_min=0, x_max=2.4, y_min=0, y_max=2.4, pillar_size=0.1)
        store = backbone_store(self.plan)
        v = pillarize(PointCloud(np.array([[1.0, 1.0, 0.0, 0.5]])), spec, store)
        with pytest.raises(ValueError):
            backbone_forward(v, store, self.plan)

    def test_missing_weight_reported_by_name(self):
        store = backbone_store(self.plan)
        v = pillarize(PointCloud(np.array([[1.0, 1.0, 0.0, 0.5]])),
                      self.grid(), store)
        bad = WeightStore({n: store.get(n) for n in store.names()
                           if n != "backbone.s3.down.w"})
        with pytest.raises(KeyError, match="backbone.s3.down.w"):
            backbone_forward(v, bad, self.plan)
