import numpy as np
import pytest

from pillardet import fpn, grid
from pillardet.config import config_from_dict, weight_layout
from pillardet.fpn import (_LINE_ROWS, LateralMap, _BlendSink, _Rows,
                           _RowSource, _downsample_chain, _pack_lines,
                           _pack_strips, _upsampled_rows, build_pooling_map,
                           build_pyramid, lateral)
from pillardet.grid import (DenseFeatureMap, PointCloud, SparsePillarVolume,
                            _conv3x3_sampler, backbone_forward, conv3x3_at,
                            deconv2x2, dense_conv2d, densify, pillarize,
                            reached_cells, relu)
from pillardet.oracles import lateral_reference
from pillardet.verify import random_volume
from pillardet.weights import WeightStore


class CountedFills:
    """A row source whose fills are logged as ``(start, stop)`` in ``log``."""

    def __init__(self, source, log):
        self.source, self.shape, self.dtype = source, source.shape, source.dtype
        self.log = log

    def fill(self, start, stop, out):
        self.log.append((start, stop))
        self.source.fill(start, stop, out)


def tiny_config(extent=3.2, **overrides):
    raw = {
        "grid": {"x_min": -extent, "x_max": extent, "y_min": -extent,
                 "y_max": extent, "z_min": -2.0, "z_max": 4.0,
                 "pillar_size": 0.1},
        "backbone_channels": [4, 4, 4, 8, 8],
        "neck_channels": 8, "head_channels": 8, "pool_channels": 8,
        "mlp_channels": [16, 16], "seg_hidden": 8, "seed": 0,
    }
    raw.update(overrides)
    return config_from_dict(raw)


def dense_values(pool):
    """The lazy pooling map evaluated at every cell, as (H, W, C)."""
    iy, ix = np.meshgrid(np.arange(pool.height), np.arange(pool.width),
                         indexing="ij")
    return pool.at(iy.ravel(), ix.ravel()).reshape(pool.height, pool.width,
                                                   pool.channels)


# the formula cases run with the seeded float32 store and its float64
# upcast, and build the formula in the store's dtype. The per-pixel
# reference sums in another order than the kernels, so float32 results
# agree to float32 rounding (~2e-8 on these maps), float64 ones to 1e-10.
STORE_DTYPES = [np.float32, np.float64]
FORMULA_ATOL = {np.float32: 1e-6, np.float64: 1e-10}


def stored_lateral_reference(store, prefix, semantic, bottom_up):
    """:func:`lateral_reference` with the ``prefix`` lateral's weights."""
    return lateral_reference(
        semantic, store.get(f"{prefix}.deconv.w"), store.get(f"{prefix}.deconv.b"),
        bottom_up, store.get(f"{prefix}.conv.w"), store.get(f"{prefix}.conv.b"))


def forward_to_backbone(cfg, seed=0, n_points=150, dtype=np.float32):
    store = WeightStore.seeded(weight_layout(cfg), cfg.seed)
    store = WeightStore({n: a.astype(dtype) for n, a in store.items()})
    rng = np.random.default_rng(seed)
    g = cfg.grid
    pts = np.column_stack([rng.uniform(g.x_min, g.x_max, n_points),
                           rng.uniform(g.y_min, g.y_max, n_points),
                           rng.uniform(g.z_min, g.z_max, n_points),
                           rng.random(n_points)])
    volume = pillarize(PointCloud(pts), g, store)
    return store, backbone_forward(volume, store, cfg.backbone_channels)


class TestLateralMerge:
    def test_upsample_doubles_dims(self):
        cfg = tiny_config()
        store, backbone = forward_to_backbone(cfg)
        p4 = lateral(backbone.c5, (backbone.c4,), store, "neck.p4").dense()
        assert (p4.height, p4.width) == (backbone.c4.ny, backbone.c4.nx)
        assert p4.stride == 8

    def test_stride_mismatch_rejected(self):
        cfg = tiny_config()
        store, backbone = forward_to_backbone(cfg)
        with pytest.raises(ValueError):
            lateral(backbone.c5, (backbone.c3,), store, "neck.p4")

    def test_bottom_up_at_the_wrong_stride_rejected(self):
        # grid dims match the upsampled map, but stride 4 is not 16 / 2
        semantic = DenseFeatureMap(16, np.zeros((3, 4, 2)))
        v = SparsePillarVolume.empty(4, 8, 6, 1)
        with pytest.raises(ValueError, match="twice"):
            LateralMap(semantic, (v,), np.zeros((2, 2, 2, 2)), np.zeros(2),
                       np.zeros((3, 3, 3, 1)), np.zeros(1))

    def test_empty_bottom_up_equals_zero_padded_branch(self):
        for dtype in STORE_DTYPES:
            cfg = tiny_config()
            store, backbone = forward_to_backbone(cfg, dtype=dtype)
            empty = SparsePillarVolume.empty(8, backbone.c4.nx, backbone.c4.ny,
                                             backbone.c4.channels, dtype)
            merged = lateral(backbone.c5, (empty,), store, "neck.p4").dense()
            up = relu(deconv2x2(backbone.c5.data, store.get("neck.p4.deconv.w"),
                                store.get("neck.p4.deconv.b")))
            manual = relu(dense_conv2d(
                np.concatenate([up, np.zeros_like(densify(empty).data)], axis=-1),
                store.get("neck.p4.conv.w"), store.get("neck.p4.conv.b")))
            assert merged.data.dtype == dtype
            np.testing.assert_array_equal(merged.data, manual)

    def test_matches_concat_formula(self):
        for dtype in STORE_DTYPES:
            cfg = tiny_config()
            store, backbone = forward_to_backbone(cfg, dtype=dtype)
            p4 = lateral(backbone.c5, (backbone.c4,), store, "neck.p4").dense()
            assert backbone.c3.n_active > 0
            m3 = lateral(p4, (backbone.c3,), store, "neck.p3")
            p3 = m3.dense()
            np.testing.assert_array_equal(p3.data, dense_values(m3))
            expected = stored_lateral_reference(store, "neck.p3", p4.data,
                                                [densify(backbone.c3).data])
            assert p3.data.dtype == expected.dtype == dtype
            np.testing.assert_allclose(p3.data, expected, atol=FORMULA_ATOL[dtype])

    @pytest.mark.parametrize("dtype", STORE_DTYPES)
    def test_streamed_dense_equals_dense_in_one_chunk(self, monkeypatch, dtype):
        # 23 semantic rows of 100; the conv runs in twelve 4-row chunks
        rng = np.random.default_rng(31)
        hs, ws, c_sem, c_up, c_out = 23, 100, 3, 4, 5
        semantic = DenseFeatureMap(8, rng.normal(size=(hs, ws, c_sem)).astype(dtype))
        vol = random_volume(rng, 2 * ws, 2 * hs, 2, density=0.05)
        vol = SparsePillarVolume(4, vol.nx, vol.ny, vol.coords,
                                 vol.features.astype(dtype))
        deconv_w = rng.normal(size=(2, 2, c_sem, c_up)).astype(dtype)
        deconv_b = rng.normal(size=c_up).astype(dtype)
        conv_w = rng.normal(size=(3, 3, c_up + 2, c_out)).astype(dtype)
        conv_b = rng.normal(size=c_out).astype(dtype)
        width = 2 * ws + 2
        monkeypatch.setattr(grid, "_CHUNK_BYTES",
                            4 * width * c_up * np.dtype(dtype).itemsize)
        deconvolved = []

        def logged_deconv(data, w, b, out=None):
            deconvolved.append(len(data))
            return deconv2x2(data, w, b, out=out)

        monkeypatch.setattr(fpn, "deconv2x2", logged_deconv)
        lateral_map = LateralMap(semantic, (vol,), deconv_w, deconv_b, conv_w,
                                 conv_b)
        streamed = lateral_map.dense().data
        monkeypatch.undo()
        monkeypatch.setattr(grid, "_CHUNK_BYTES", 1 << 40)
        whole = lateral_map.dense().data
        assert streamed.dtype == whole.dtype == dtype
        assert streamed.tobytes() == whole.tobytes()
        # every semantic row deconvolved once
        assert len(deconvolved) > 2 and sum(deconvolved) == hs

    @pytest.mark.parametrize("dtype", STORE_DTYPES)
    def test_band_sink_gives_the_bits_of_a_whole_map_blend(self, monkeypatch,
                                                           dtype):
        # 4-row conv bands of 40 cells, bottom-up conv rows in calls of at
        # least 24 cells rounded to 8: each volume's reached cells are
        # computed once, in row order, a few bands at a time, from one
        # sampler (one copy of its features), and the map has the bits of
        # adding each volume at all its reached cells at once
        rng = np.random.default_rng(33)
        hs, ws, c_sem, c_up, c_out = 15, 20, 3, 4, 5
        semantic = DenseFeatureMap(8, rng.normal(size=(hs, ws, c_sem)).astype(dtype))
        vols = []
        for c, density in ((2, 0.02), (3, 0.3)):
            v = random_volume(rng, 2 * ws, 2 * hs, c, density=density)
            vols.append(SparsePillarVolume(4, v.nx, v.ny, v.coords,
                                           v.features.astype(dtype)))
        deconv_w = rng.normal(size=(2, 2, c_sem, c_up)).astype(dtype)
        deconv_b = rng.normal(size=c_up).astype(dtype)
        conv_w = rng.normal(size=(3, 3, c_up + 5, c_out)).astype(dtype)
        conv_b = rng.normal(size=c_out).astype(dtype)
        lateral_map = LateralMap(semantic, tuple(vols), deconv_w, deconv_b,
                                 conv_w, conv_b)
        monkeypatch.setattr(grid, "_CONV_BAND_PIXELS", 4 * (2 * ws + 2))
        monkeypatch.setattr(fpn, "_BLEND_CELLS", 24)
        monkeypatch.setattr(fpn, "_BAND_ROWS", 8)
        samplers, calls = [], []

        def logged_sampler(v, w):
            samplers.append(v)
            conv = _conv3x3_sampler(v, w)

            def logged_conv(cells, out=None):
                calls.append((v, cells))
                return conv(cells, out=out)

            return logged_conv

        monkeypatch.setattr(fpn, "_conv3x3_sampler", logged_sampler)
        banded = lateral_map.dense().data
        monkeypatch.undo()
        up = relu(deconv2x2(semantic.data, deconv_w, deconv_b))
        whole = dense_conv2d(up, conv_w[:, :, :c_up], np.zeros(c_out, dtype))
        start = c_up
        for v in vols:
            reached = reached_cells(v)
            whole[reached % v.ny, reached // v.ny] += conv3x3_at(
                v, conv_w[:, :, start:start + v.channels], reached)
            start += v.channels
        whole = relu(whole + conv_b)
        assert banded.dtype == dtype
        assert banded.tobytes() == whole.tobytes()
        assert list(map(id, samplers)) == list(map(id, vols))
        for v in vols:
            reached = reached_cells(v)
            row_order = reached[np.lexsort((reached // v.ny, reached % v.ny))]
            mine = [cells for u, cells in calls if u is v]
            assert len(mine) > 3 and max(map(len, mine)) <= 4 * 2 * ws
            np.testing.assert_array_equal(np.concatenate(mine), row_order)

    def test_upsampled_rows_fill_any_row_range_into_strided_rows(self):
        # fills that start and stop mid row pair, into the interior of a
        # wider buffer, as a dense conv's plane takes them
        rng = np.random.default_rng(32)
        args = (rng.normal(size=(6, 300, 2)), rng.normal(size=(2, 2, 2, 3)),
                rng.normal(size=3))
        up = _upsampled_rows(*args)
        assert up.shape == (12, 600, 3)
        whole = relu(deconv2x2(*args))
        plane = np.full((14, 602, 3), np.nan)
        for start, stop in ((0, 5), (5, 6), (6, 7), (7, 12), (3, 4), (2, 3)):
            plane[:] = np.nan
            up.fill(start, stop, plane[1:1 + stop - start, 1:601])
            assert plane[1:1 + stop - start, 1:601].tobytes() == \
                whole[start:stop].tobytes()
            assert np.isnan(plane[1 + stop - start:]).all()
            assert np.isnan(plane[:, [0, 601]]).all()

    def test_upsampled_rows_deconvolve_a_shared_row_pair_once_per_fill(
            self, monkeypatch):
        rng = np.random.default_rng(33)
        data = rng.normal(size=(9, 7, 2))
        data[:, :, 0] = np.arange(9)[:, None]  # each row's index
        args = (data, rng.normal(size=(2, 2, 2, 3)), rng.normal(size=3))
        whole = relu(deconv2x2(*args))
        deconvolved = []

        def logged_deconv(rows, w, b, out=None):
            deconvolved.append(rows[:, 0, 0].tolist())
            return deconv2x2(rows, w, b, out=out)

        monkeypatch.setattr(fpn, "deconv2x2", logged_deconv)
        up = _upsampled_rows(*args)
        for r0, r1 in ((0, 5), (5, 9), (9, 10), (10, 18)):
            out = np.empty((r1 - r0, 14, 3))
            up.fill(r0, r1, out)
            np.testing.assert_array_equal(out, whole[r0:r1])
        # the coarse rows both of whose children a fill writes, in one
        # call, then the row of a child at its start or its end: a row
        # whose children two fills share is deconvolved by each
        assert deconvolved == [[0, 1], [2], [3], [2], [4], [4], [5, 6, 7, 8]]

    def test_rows_window_computes_each_row_once_and_aligns_a_skip(
            self, monkeypatch):
        whole = np.arange(40.0).reshape(20, 2)
        calls = []

        def fill(start, stop, out):
            calls.append((start, stop))
            out[...] = whole[start:stop]

        # whole bands of 5 rows, at least 2 per call
        monkeypatch.setattr(fpn, "_BLEND_CELLS", 2)
        monkeypatch.setattr(fpn, "_BAND_ROWS", 5)
        rows = _Rows(fill, whole.shape, whole.dtype)
        for r0, r1 in ((0, 3), (9, 12), (11, 15), (15, 15), (16, 17), (19, 20)):
            np.testing.assert_array_equal(rows[r0:r1], whole[r0:r1])
        assert calls == [(0, 5), (5, 15), (15, 20)]

    def test_band_sink_reads_each_volume_forwards_only(self):
        # a band written above one already written would re-read bottom-up
        # conv rows the sink has dropped
        rng = np.random.default_rng(34)
        semantic = DenseFeatureMap(8, rng.normal(size=(10, 10, 3)))
        v = random_volume(rng, 20, 20, 2, density=0.3)
        v = SparsePillarVolume(4, v.nx, v.ny, v.coords, v.features)
        sink = _BlendSink(LateralMap(
            semantic, (v,), rng.normal(size=(2, 2, 3, 4)), rng.normal(size=4),
            rng.normal(size=(3, 3, 6, 5)), rng.normal(size=5)))
        sink[4:8] = np.zeros((4, 20, 5))
        with pytest.raises(ValueError, match="rows are read in order"):
            sink[0:4] = np.zeros((4, 20, 5))

    def test_verify_suite_streams_a_map_over_three_chunks(self, monkeypatch):
        from pillardet.verify import split_lateral_suite
        reads = []
        conv = fpn.dense_conv2d

        def counting_conv(data, *args, **kwargs):
            if isinstance(data, _RowSource):
                fills = []
                reads.append(fills)
                data = CountedFills(data, fills)
            return conv(data, *args, **kwargs)

        monkeypatch.setattr(fpn, "dense_conv2d", counting_conv)
        assert split_lateral_suite().passed
        # one streamed map per case, each row filled once, in order; the
        # last one read in three chunks
        assert len(reads) == 42 and len(reads[-1]) >= 3
        for fills in reads:
            assert fills[0][0] == 0
            assert all(a[1] == b[0] for a, b in zip(fills, fills[1:]))

    @pytest.mark.parametrize("dtype", STORE_DTYPES)
    def test_chunk_edges_mid_row_pair_and_mid_line_give_the_array_bits(
            self, monkeypatch, dtype):
        # 3-row conv chunks: the fills after the first start at rows 5, 8,
        # 11, ..., so every other one starts mid row pair of the upsampled
        # map and most start mid canvas line. .dense() has the bits of its
        # conv reading the whole upsampled array, and .at() those rows
        rng = np.random.default_rng(37)
        hs, ws, c_sem, c_up, c_out = 15, 20, 3, 4, 5
        data = rng.normal(size=(hs, ws, c_sem))
        data[:, :, 0] = np.arange(hs)[:, None]  # each row's index
        semantic = DenseFeatureMap(8, data.astype(dtype))
        vol = random_volume(rng, 2 * ws, 2 * hs, 2, density=0.1)
        vol = SparsePillarVolume(4, vol.nx, vol.ny, vol.coords,
                                 vol.features.astype(dtype))
        lateral_map = LateralMap(
            semantic, (vol,), rng.normal(size=(2, 2, c_sem, c_up)).astype(dtype),
            rng.normal(size=c_up).astype(dtype),
            rng.normal(size=(3, 3, c_up + 2, c_out)).astype(dtype),
            rng.normal(size=c_out).astype(dtype))
        up = relu(deconv2x2(semantic.data, lateral_map.deconv_w,
                            lateral_map.deconv_b))
        array_path = lateral_map._up_conv(up, _BlendSink(lateral_map)).data
        iy, ix = np.meshgrid(np.arange(0, 2 * hs, 2), np.arange(1, 2 * ws, 3),
                             indexing="ij")
        iy, ix = iy.ravel(), ix.ravel()
        monkeypatch.setattr(grid, "_CONV_BAND_PIXELS", 3 * (2 * ws + 4))
        monkeypatch.setattr(grid, "_CHUNK_BYTES", 1)
        fills, rows, cells = [], [], []
        conv, deconv, deconv_at = (fpn.dense_conv2d, fpn.deconv2x2,
                                   fpn.deconv2x2_at)

        def counting_conv(data, *args, **kwargs):
            log = []
            fills.append((data.shape[0], log))
            return conv(CountedFills(data, log), *args, **kwargs)

        def logged_deconv(data, w, b, out=None):
            rows.extend(data[:, 0, 0].tolist())
            return deconv(data, w, b, out=out)

        def logged_deconv_at(data, w, b, iy, ix):
            cells.extend((iy * 2 * ws + ix).tolist())
            return deconv_at(data, w, b, iy, ix)

        monkeypatch.setattr(fpn, "dense_conv2d", counting_conv)
        monkeypatch.setattr(fpn, "deconv2x2", logged_deconv)
        monkeypatch.setattr(fpn, "deconv2x2_at", logged_deconv_at)
        dense = lateral_map.dense().data
        got = lateral_map.at(iy, ix)
        assert dense.dtype == got.dtype == dtype
        assert dense.tobytes() == array_path.tobytes()
        assert got.tobytes() == array_path[iy, ix].tobytes()
        # each conv fills every row of its source once, forwards
        assert len(fills) == 2
        for height, log in fills:
            assert [r for a, b in log for r in range(a, b)] == list(range(height))
        (_, up_fills), (canvas_rows, canvas_fills) = fills
        assert len(up_fills) == 10 and up_fills[1] == (5, 8)
        assert sum(a % _LINE_ROWS != 0 for a, _ in canvas_fills) > 4
        # a semantic row is deconvolved once, and once more if two fills
        # share its children: the fill boundaries at odd upsampled rows
        shared = [b // 2 for _, b in up_fills[:-1] if b % 2]
        assert len(shared) == 5
        assert sorted(rows) == sorted(list(range(hs)) + shared)
        # each canvas cell on the map is deconvolved once
        map_y, map_x, widths, _ = _pack_strips(iy, ix)
        on_map = ((np.minimum(map_y + _LINE_ROWS, 2 * hs) - np.maximum(map_y, 0))
                  * (np.minimum(map_x + widths, 2 * ws) - np.maximum(map_x, 0)))
        assert len(cells) == on_map.sum() and canvas_rows > 6 * _LINE_ROWS

    def test_kernel_channel_mismatch_rejected(self):
        # 5 upsampled + 2 bottom-up channels, against a 6-channel kernel
        semantic = DenseFeatureMap(2, np.zeros((2, 2, 3)))
        v = SparsePillarVolume.empty(1, 4, 4, 2)
        with pytest.raises(ValueError, match="concatenated"):
            LateralMap(semantic, (v,), np.zeros((2, 2, 3, 5)), np.zeros(5),
                       np.zeros((3, 3, 6, 1)), np.zeros(1))


class TestPyramid:
    def test_level_dims_and_channels(self):
        cfg = tiny_config()
        store, backbone = forward_to_backbone(cfg)
        pyramid = build_pyramid(backbone, store)
        g = cfg.grid
        assert (pyramid[4].height, pyramid[4].width) == (g.ny // 4, g.nx // 4)
        assert (pyramid[8].height, pyramid[8].width) == (g.ny // 8, g.nx // 8)
        assert pyramid[4].channels == pyramid[8].channels == cfg.neck_channels

    def test_bit_identical_across_runs(self):
        cfg = tiny_config()
        store, backbone = forward_to_backbone(cfg)
        a = build_pyramid(backbone, store)
        b = build_pyramid(backbone, store)
        np.testing.assert_array_equal(a[4].data, b[4].data)
        np.testing.assert_array_equal(a[8].data, b[8].data)


class TestPoolingMap:
    def test_default_stride_four_dims(self):
        cfg = tiny_config()
        store, backbone = forward_to_backbone(cfg)
        pool = build_pooling_map(backbone, build_pyramid(backbone, store),
                                 store, cfg.pool_stride, cfg.bottom_up_strides)
        assert pool.stride == 4
        assert (pool.height, pool.width) == (cfg.grid.ny // 4, cfg.grid.nx // 4)
        assert pool.channels == cfg.pool_channels

    def test_stride_eight_uses_c5_semantics(self):
        cfg = tiny_config(pool_stride=8)
        store, backbone = forward_to_backbone(cfg)
        pool = build_pooling_map(backbone, build_pyramid(backbone, store),
                                 store, 8, cfg.bottom_up_strides)
        assert (pool.height, pool.width) == (cfg.grid.ny // 8, cfg.grid.nx // 8)

    def test_stride_two_with_downsampled_finer_volume(self):
        cfg = tiny_config(pool_stride=2, pool_bottom_up_strides=[1, 2])
        store, backbone = forward_to_backbone(cfg)
        pool = build_pooling_map(backbone, build_pyramid(backbone, store),
                                 store, 2, cfg.bottom_up_strides)
        assert (pool.height, pool.width) == (cfg.grid.ny // 2, cfg.grid.nx // 2)

    def test_stride_two_two_branches_match_concat_formula(self):
        for dtype in STORE_DTYPES:
            cfg = tiny_config(pool_stride=2, pool_bottom_up_strides=[1, 2])
            store, backbone = forward_to_backbone(cfg, dtype=dtype)
            pyramid = build_pyramid(backbone, store)
            pool = build_pooling_map(backbone, pyramid, store, 2,
                                     cfg.bottom_up_strides)
            branches = [densify(_downsample_chain(backbone.volume_at(s), 2, store,
                                                  f"neck.pool.s{s}")).data
                        for s in (1, 2)]
            expected = stored_lateral_reference(store, "neck.pool",
                                                pyramid[4].data, branches)
            assert expected.dtype == dtype
            np.testing.assert_allclose(dense_values(pool), expected,
                                       atol=FORMULA_ATOL[dtype])
            np.testing.assert_array_equal(pool.dense().data, dense_values(pool))

    def test_default_stride_matches_concat_formula(self):
        for dtype in STORE_DTYPES:
            cfg = tiny_config()
            store, backbone = forward_to_backbone(cfg, dtype=dtype)
            pyramid = build_pyramid(backbone, store)
            pool = build_pooling_map(backbone, pyramid, store, 4,
                                     cfg.bottom_up_strides)
            expected = stored_lateral_reference(store, "neck.pool", pyramid[8].data,
                                                [densify(backbone.c3).data])
            assert expected.dtype == dtype
            np.testing.assert_allclose(dense_values(pool), expected,
                                       atol=FORMULA_ATOL[dtype])
            np.testing.assert_array_equal(pool.dense().data, dense_values(pool))

    def test_cell_subset_in_any_order_matches_all_cells(self):
        cfg = tiny_config()
        store, backbone = forward_to_backbone(cfg)
        pool = build_pooling_map(backbone, build_pyramid(backbone, store),
                                 store, 4, cfg.bottom_up_strides)
        full = dense_values(pool)
        rng = np.random.default_rng(3)
        iy = rng.integers(0, pool.height, 40)
        ix = rng.integers(0, pool.width, 40)
        iy[:3], ix[:3] = [0, pool.height - 1, iy[3]], [0, pool.width - 1, ix[3]]
        np.testing.assert_array_equal(pool.at(iy, ix), full[iy, ix])

    def test_one_strip_per_queried_column_run_matches_concat_formula(self):
        # every fourth column of a 128x128 map: one strip per band of
        # rows and single-column run, 32 x 32 of them side by side
        for dtype in STORE_DTYPES:
            cfg = tiny_config(extent=25.6)
            store, backbone = forward_to_backbone(cfg, n_points=600, dtype=dtype)
            pyramid = build_pyramid(backbone, store)
            pool = build_pooling_map(backbone, pyramid, store, 4,
                                     cfg.bottom_up_strides)
            expected = stored_lateral_reference(store, "neck.pool", pyramid[8].data,
                                                [densify(backbone.c3).data])
            iy, ix = np.meshgrid(np.arange(pool.height),
                                 np.arange(1, pool.width, 4), indexing="ij")
            iy, ix = iy.ravel(), ix.ravel()
            widths = _pack_strips(iy, ix)[2]
            assert len(widths) == 1024
            atol = FORMULA_ATOL[dtype]
            assert expected.dtype == dtype
            np.testing.assert_allclose(pool.at(iy, ix), expected[iy, ix], atol=atol)
            np.testing.assert_allclose(dense_values(pool), expected, atol=atol)
            np.testing.assert_array_equal(pool.dense().data, dense_values(pool))

    @pytest.mark.parametrize("dtype", STORE_DTYPES)
    def test_cells_on_many_lines_and_chunks_equal_dense_rows(self, monkeypatch,
                                                              dtype):
        # a 120 x 60 map asked at every fifth column of every third row:
        # 30 bands of 12 one-column strips, 360 strips of width 3 on lines
        # of 62 columns, 20 to a line; one 32-row conv band per 4 KiB
        # chunk, so the canvas is filled a few lines at a time, from and to
        # rows inside a line
        rng = np.random.default_rng(35)
        c_sem, c_up, c_out = 3, 4, 5
        semantic = DenseFeatureMap(8, rng.normal(size=(60, 30, c_sem)).astype(dtype))
        vol = random_volume(rng, 60, 120, 2, density=0.1)
        vol = SparsePillarVolume(4, vol.nx, vol.ny, vol.coords,
                                 vol.features.astype(dtype))
        lateral_map = LateralMap(
            semantic, (vol,), rng.normal(size=(2, 2, c_sem, c_up)).astype(dtype),
            rng.normal(size=c_up).astype(dtype),
            rng.normal(size=(3, 3, c_up + 2, c_out)).astype(dtype),
            rng.normal(size=c_out).astype(dtype))
        whole = lateral_map.dense().data
        iy, ix = np.meshgrid(np.arange(0, 120, 3), np.arange(2, 60, 5),
                             indexing="ij")
        iy, ix = iy.ravel(), ix.ravel()
        map_y, map_x, widths, _ = _pack_strips(iy, ix)
        line, col = _pack_lines(widths, 62)
        assert len(widths) == 360 and line.max() == 17
        on_map = ((np.minimum(map_y + _LINE_ROWS, 120) - np.maximum(map_y, 0))
                  * (np.minimum(map_x + widths, 60) - np.maximum(map_x, 0)))
        monkeypatch.setattr(grid, "_CHUNK_BYTES", 4 << 10)
        # parents cut into GEMM bands of 200, so a fill's ~480 take 3 calls
        monkeypatch.setattr(fpn, "_BAND_ROWS", 200)
        reads, deconvolved = [], []
        conv, deconv_at = fpn.dense_conv2d, fpn.deconv2x2_at

        def counting_conv(data, *args, **kwargs):
            return conv(CountedFills(data, reads), *args, **kwargs)

        def logged_deconv_at(data, w, b, iy, ix):
            deconvolved.append((len(iy), len(np.unique(iy // 2 * 30 + ix // 2))))
            return deconv_at(data, w, b, iy, ix)

        monkeypatch.setattr(fpn, "dense_conv2d", counting_conv)
        monkeypatch.setattr(fpn, "deconv2x2_at", logged_deconv_at)
        got = lateral_map.at(iy, ix)
        assert got.dtype == dtype
        assert got.tobytes() == whole[iy, ix].tobytes()
        # one dense conv over 18 lines of 6 rows, read in four chunks; each
        # canvas cell on the map deconvolved once, a GEMM band of parents
        # (or fewer) at a time
        assert len(reads) == 4 and reads[-1][1] == 18 * _LINE_ROWS
        assert reads[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(reads, reads[1:]))
        assert sum(cells for cells, _ in deconvolved) == on_map.sum()
        assert len(deconvolved) > 8
        assert max(parents for _, parents in deconvolved) <= 200

    def test_strips_as_wide_as_the_map(self):
        # whole rows asked for: each band of rows is one strip of the map's
        # width plus its two halo columns, a whole canvas line
        cfg = tiny_config()
        store, backbone = forward_to_backbone(cfg)
        pool = build_pooling_map(backbone, build_pyramid(backbone, store),
                                 store, 4, cfg.bottom_up_strides)
        full = dense_values(pool)
        w = pool.width
        iy, ix = np.meshgrid([0, 1, 5, pool.height - 1], np.arange(w),
                             indexing="ij")
        iy, ix = np.r_[iy.ravel(), 9, 9], np.r_[ix.ravel(), 3, 7]
        widths = _pack_strips(iy, ix)[2]
        line, col = _pack_lines(widths, w + 2)
        wide = widths == w + 2
        assert wide.sum() == 3
        assert len(set(line[wide])) == 3 and (col[wide] == 0).all()
        assert not np.isin(line[~wide], line[wide]).any()
        np.testing.assert_array_equal(pool.at(iy, ix), full[iy, ix])

    def test_lines_hold_strips_apart_and_whole(self):
        widths = np.random.default_rng(36).integers(3, 41, 300)
        line, col = _pack_lines(widths, 42)
        assert (col >= 0).all() and (col + widths <= 42).all()
        for y in range(line.max() + 1):
            on = line == y
            taken = np.concatenate([np.arange(c, c + n) for c, n
                                    in zip(col[on], widths[on])])
            assert len(taken) == len(np.unique(taken))
        # first fit leaves at most one line half empty or less, so it uses
        # under twice the lines the columns need
        assert line.max() + 1 <= 2 * -(-widths.sum() // 42)

    def test_empty_cell_set(self):
        cfg = tiny_config()
        store, backbone = forward_to_backbone(cfg)
        pool = build_pooling_map(backbone, build_pyramid(backbone, store),
                                 store, 4, cfg.bottom_up_strides)
        none = np.zeros(0, dtype=np.int64)
        assert pool.at(none, none).shape == (0, cfg.pool_channels)

    def test_cells_off_the_map_rejected(self):
        cfg = tiny_config()
        store, backbone = forward_to_backbone(cfg)
        pool = build_pooling_map(backbone, build_pyramid(backbone, store),
                                 store, 4, cfg.bottom_up_strides)
        with pytest.raises(IndexError):
            pool.at(np.array([0]), np.array([pool.width]))
        with pytest.raises(IndexError):
            pool.at(np.array([-1]), np.array([0]))

    def test_invalid_stride_rejected(self):
        cfg = tiny_config()
        store, backbone = forward_to_backbone(cfg)
        with pytest.raises(ValueError):
            build_pooling_map(backbone, build_pyramid(backbone, store),
                              store, 16, cfg.bottom_up_strides)

    def test_no_bottom_up_strides_match_semantics_only_formula(self):
        # the ablation: no bottom-up volume, no downsample conv, and a
        # blending kernel over the upsampled channels alone
        for dtype in STORE_DTYPES:
            cfg = tiny_config(pool_bottom_up_strides=[])
            assert not any(".pool.s" in name for name in weight_layout(cfg))
            store, backbone = forward_to_backbone(cfg, dtype=dtype)
            pyramid = build_pyramid(backbone, store)
            pool = build_pooling_map(backbone, pyramid, store, 4,
                                     cfg.bottom_up_strides)
            assert pool.bottom_up == ()
            assert store.get("neck.pool.conv.w").shape == (
                3, 3, cfg.pool_channels, cfg.pool_channels)
            expected = stored_lateral_reference(store, "neck.pool",
                                                pyramid[8].data, [])
            assert expected.dtype == dtype
            np.testing.assert_allclose(dense_values(pool), expected,
                                       atol=FORMULA_ATOL[dtype])
            np.testing.assert_array_equal(pool.dense().data, dense_values(pool))

    def test_perturbation_stays_within_receptive_field(self):
        # 512-cell grid; composed 3x3/deconv footprints bound the reach of a
        # single pillar to ~27 stride-4 cells, checked with margin 30
        cfg = tiny_config(extent=25.6)
        store = WeightStore.seeded(weight_layout(cfg), 0)
        g = cfg.grid
        rng = np.random.default_rng(11)
        n = 400
        pts = np.column_stack([rng.uniform(g.x_min, g.x_max, n),
                               rng.uniform(g.y_min, g.y_max, n),
                               rng.uniform(g.z_min, g.z_max, n),
                               rng.random(n)])

        def pool_for(extra_point):
            data = pts if extra_point is None else np.vstack([pts, extra_point])
            backbone = backbone_forward(pillarize(PointCloud(data), g, store),
                                        store, cfg.backbone_channels)
            pyramid = build_pyramid(backbone, store)
            return build_pooling_map(backbone, pyramid, store, 4,
                                     cfg.bottom_up_strides)

        base = pool_for(None)
        perturbed = pool_for(np.array([[0.05, 0.05, 1.0, 0.9]]))  # cell (256, 256)
        diff = np.any(dense_values(base) != dense_values(perturbed), axis=-1)
        ys, xs = np.nonzero(diff)
        assert len(ys) > 0  # the new pillar must matter somewhere
        center = 256 // 4
        assert np.abs(ys - center).max() <= 30
        assert np.abs(xs - center).max() <= 30
