"""One wiring of the forward pass: ``DetectionPipeline.run`` hands back the
head maps and the pooling map its later stages read, and the float32
verify suite compares those, not a wiring of its own. Each head cell reads
only the points within its receptive reach, and a pillar volume shifted by
whole C5 cells shifts every map cell beyond that reach of the borders."""

import numpy as np

from conftest import SMALL_CONFIG_DICT
from pillardet import fpn, grid, pipeline, rpn
from pillardet.config import config_from_dict
from pillardet.fileio import format_detections
from pillardet.fpn import LateralMap
from pillardet.grid import (PointCloud, SparsePillarVolume, backbone_forward,
                            pillarize)
from pillardet.pipeline import DetectionPipeline
from pillardet.synth import SceneSpec, generate_scene


def spy(monkeypatch, seen, name, index):
    """Record argument ``index`` of each ``pipeline.name`` call in ``seen``."""
    fn = getattr(pipeline, name)

    def wrapped(*args, **kwargs):
        seen[name] = args[index]
        return fn(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, wrapped)


def test_result_holds_the_maps_decode_and_refine_read(monkeypatch,
                                                      small_config):
    seen = {}
    spy(monkeypatch, seen, "decode_proposals", 0)
    spy(monkeypatch, seen, "refine", 1)
    cloud, _ = generate_scene(SceneSpec(seed=3), small_config.grid)
    result = DetectionPipeline(small_config).run(cloud)
    assert result.proposals and result.detections
    assert result.heads is seen["decode_proposals"]
    assert result.pooling_map is seen["refine"]


def test_no_stage_reads_p3_so_it_is_not_built(monkeypatch):
    # every class on the stride-8 head and the pooling map (stride 4)
    # deconvolving P4: P3's lateral is never convolved, and the detections
    # are those of a run that builds it
    cfg = config_from_dict({**SMALL_CONFIG_DICT, "class_strides": {
        "vehicle": 8, "pedestrian": 8, "cyclist": 8}})
    cloud, _ = generate_scene(SceneSpec(seed=3), cfg.grid)
    built = []
    dense = LateralMap.dense

    def logged_dense(self):
        built.append(self.stride)
        return dense(self)

    monkeypatch.setattr(LateralMap, "dense", logged_dense)
    result = DetectionPipeline(cfg).run(cloud)
    assert built == [8]
    assert "P3" not in result.shapes and "P4" in result.shapes
    build = pipeline.build_pyramid
    monkeypatch.setattr(pipeline, "build_pyramid",
                        lambda backbone, weights, *_: build(backbone, weights))
    built.clear()
    every_level = DetectionPipeline(cfg).run(cloud)
    assert built == [8, 4]
    assert result.detections
    assert (format_detections(result.detections)
            == format_detections(every_level.detections))



def head_reach(stride: int) -> int:
    """Pillars right of a stride-``stride`` head cell's first pillar that
    its values can read.

    A 3x3 conv adds the cell size of its input, a 2x2 deconv adds nothing
    on the right and a lateral takes the farther reach of its inputs: the
    backbone reaches 1, 4, 10, 22 and 46 pillars at strides 1 to 16, P4
    54 and P3 58, and the heads' shared conv adds the level's stride.
    """
    size, reach = 1, 1                 # the submanifold conv on the pillars
    backbone = {}
    for _ in range(4):                 # a stride-2 conv, then a 3x3 conv
        reach += size
        size *= 2
        reach += size
        backbone[size] = reach
    level = {16: backbone[16]}
    for s in (8, 4):
        level[s] = max(level[2 * s], backbone[s]) + s
    return level[stride] + stride


def checked_columns(cfg, stride: int) -> int:
    """Head-map columns whose cells read no pillar of the right half of
    the grid."""
    return (cfg.grid.nx // 2 - 1 - head_reach(stride)) // stride + 1


def far_left_changes(cfg, seed: int) -> list[tuple[int, str]]:
    """``(stride, field)`` of each head map whose :func:`checked_columns`
    change when every point right of the grid's middle is dropped from the
    scene of ``seed``; every level must change somewhere, or the drop
    shows nothing."""
    spec = cfg.grid
    cloud, _ = generate_scene(SceneSpec(seed=seed), spec)
    cut = spec.x_min + spec.nx // 2 * spec.pillar_size
    left = PointCloud(cloud.data[cloud.data[:, 0] <= cut])
    pipe = DetectionPipeline(cfg)
    whole, part = pipe.run(cloud).heads, pipe.run(left).heads
    changes = []
    for s in whole:
        n = checked_columns(cfg, s)
        maps = [(f, getattr(whole[s], f), getattr(part[s], f))
                for f in ("heatmap", "reg", "iou")]
        assert any(not np.array_equal(a, b) for _, a, b in maps)
        changes += [(s, f) for f, a, b in maps
                    if a[:, :n].tobytes() != b[:, :n].tobytes()]
    return changes


def test_head_cells_beyond_their_reach_ignore_the_right_half(small_config):
    # the reach is 62 pillars, 6.2 m, at both strides; on these scenes
    # changes come at most 4.8 m left of the middle
    for s in small_config.level_classes:
        assert head_reach(s) == 62
        assert 4 * checked_columns(small_config, s) >= small_config.grid.nx // s
    for seed in (1, 2, 3):
        assert far_left_changes(small_config, seed) == []


def test_locality_check_catches_a_wraparound_read(monkeypatch, small_config):
    # the heads' shared conv reads its input rolled by one column, so the
    # first column reads the last
    conv = rpn.dense_conv2d

    def rolled(data, *args, **kwargs):
        return conv(np.roll(data, 1, axis=1), *args, **kwargs)

    monkeypatch.setattr(rpn, "dense_conv2d", rolled)
    assert far_left_changes(small_config, 1)


# the crowded_near benchmark grid and scene recipe: 512 x 512 pillars
NEAR_CONFIG = {"grid": {"x_min": -25.6, "x_max": 25.6, "y_min": -25.6,
                        "y_max": 25.6, "z_min": -2.0, "z_max": 4.0,
                        "pillar_size": 0.1}}
CROWDED_SCENE = {"counts": {0: 20, 1: 30, 2: 20}, "noise_density": 2.0}
# (dx, dy) in pillars: whole C5 cells, y-offsets no multiple of a conv band
SHIFTS = ((0, 16), (16, 32))


def shifted(volume: SparsePillarVolume, dx: int, dy: int) -> SparsePillarVolume:
    """``volume`` moved by (dx, dy) pillars; pillars moved off the grid
    are dropped."""
    coords = volume.coords + (dx, dy)
    keep = (coords[:, 0] < volume.nx) & (coords[:, 1] < volume.ny)
    return SparsePillarVolume(1, volume.nx, volume.ny, coords[keep],
                              volume.features[keep])


def pyramid_and_head_maps(cfg, weights, volume):
    """P3, P4 and every head map of ``volume``, by name, with their stride;
    and the lazy pooling map."""
    backbone = backbone_forward(volume, weights, cfg.backbone_channels)
    pyramid = pipeline.build_pyramid(backbone, weights, (4, 8))
    heads = pipeline.rpn_forward(pyramid, weights, cfg.level_classes)
    maps = {f"P{s.bit_length()}": (s, m.data) for s, m in pyramid.items()}
    maps.update({f"s{s}.{f}": (s, getattr(h, f)) for s, h in heads.items()
                 for f in ("heatmap", "reg", "iou")})
    pool = pipeline.build_pooling_map(backbone, pyramid, weights,
                                      cfg.pool_stride, cfg.bottom_up_strides)
    return maps, pool


def interior(s: int, size: int, shift: int) -> tuple[int, int]:
    """The first and the end of the interior cells of a stride-``s`` map
    axis of ``size`` cells in the base run, for a shift of ``shift`` cells."""
    lo, hi = -(-(head_reach(s) + 12) // s), -(-(head_reach(s) + 1) // s)
    return lo, size - shift - hi


def shift_mismatches() -> list[tuple[int, int, str]]:
    """``(dx, dy, map)`` of each map of :func:`pyramid_and_head_maps` whose
    interior differs, in any bit, from the base run's shifted by (dx, dy)
    of :data:`SHIFTS`, for the crowded scene of seed 1; ``"pool"`` when the
    pooling map's ``.at()`` rows differ at 1,500 sampled interior cells.
    The shifted run asks for those cells beside as many others drawn
    anywhere on the map, so they sit at other rows of its strip canvas.

    A stride-s cell is interior if no pillar it reads lies within the
    grid border in either run, nor is dropped by the shift: it reads at
    most ``head_reach(s)`` pillars right of its first pillar and, as each
    deconvolution child reads a parent that starts up to one child cell
    left of it, ``head_reach(s)`` + 8 + 4 pillars left of it. The pooling
    map reads what P3 reads, within the same reach.
    """
    cfg = config_from_dict(NEAR_CONFIG)
    weights = DetectionPipeline(cfg).weights
    cloud, _ = generate_scene(SceneSpec(seed=1, **CROWDED_SCENE), cfg.grid)
    volume = pillarize(cloud, cfg.grid, weights)
    base, base_pool = pyramid_and_head_maps(cfg, weights, volume)
    rng = np.random.default_rng(13)
    mismatches = []
    for dx, dy in SHIFTS:
        moved, moved_pool = pyramid_and_head_maps(cfg, weights,
                                                  shifted(volume, dx, dy))
        for name, (s, a) in base.items():
            b = moved[name][1]
            ry, rx = dy // s, dx // s
            (y0, y1), (x0, x1) = (interior(s, a.shape[0], ry),
                                  interior(s, a.shape[1], rx))
            if a[y0:y1, x0:x1].tobytes() != b[y0 + ry:y1 + ry,
                                               x0 + rx:x1 + rx].tobytes():
                mismatches.append((dx, dy, name))
        s = cfg.pool_stride
        ry, rx = dy // s, dx // s
        iy = rng.integers(*interior(s, base_pool.height, ry), 1500)
        ix = rng.integers(*interior(s, base_pool.width, rx), 1500)
        others = (rng.integers(0, moved_pool.height, 1500),
                  rng.integers(0, moved_pool.width, 1500))
        got = moved_pool.at(np.r_[iy + ry, others[0]], np.r_[ix + rx, others[1]])
        if base_pool.at(iy, ix).tobytes() != got[:1500].tobytes():
            mismatches.append((dx, dy, "pool"))
    return mismatches


def test_maps_shift_with_the_pillar_volume_bit_for_bit():
    assert shift_mismatches() == []


def scale_first_rows_of_later_chunks(monkeypatch):
    """Every ``dense_conv2d`` call scales the first output row of each
    chunk after its first by 1 + 1e-6: a fault that depends on absolute
    row position. A chunk's input rows are all filled before its first
    band is written, so a chunk starts at the first band written after a
    fill."""
    conv = grid.dense_conv2d

    def scaled(data, weight, bias, stride=1, out=None):
        chunks = []

        class Rows:
            shape, dtype = data.shape, data.dtype

            def fill(self, start, stop, rows):
                chunks.append(None)
                if isinstance(data, np.ndarray):
                    rows[...] = data[start:stop]
                else:
                    data.fill(start, stop, rows)

        h, w = ((n - 1) // stride + 1 for n in data.shape[:2])
        target = out if out is not None else np.empty(
            (h, w, weight.shape[3]), np.result_type(data.dtype, weight, bias))
        starts = []

        class Sink:
            shape = target.shape

            def __setitem__(self, rows, value):
                if chunks and chunks[-1] is None:
                    chunks[-1] = rows.start
                    starts.append(rows.start)
                    if len(starts) > 1:
                        value = value.copy()
                        value[0] *= 1 + 1e-6
                target[rows] = value

        conv(Rows(), weight, bias, stride, out=Sink())
        return target

    for module in (grid, fpn, rpn):
        monkeypatch.setattr(module, "dense_conv2d", scaled)


def test_shift_check_catches_a_chunk_edge_fault(monkeypatch):
    scale_first_rows_of_later_chunks(monkeypatch)
    assert shift_mismatches()


def scale_first_row_of_later_fills(monkeypatch):
    """Each row source a lateral's dense conv reads (an upsampled half, the
    pooling map's strip canvas) writes the first row of each fill after its
    first scaled by 1 + 1e-6: a fault where the conv's chunks meet, on the
    input side. On the canvas those rows lie inside its lines, where the
    asked cells are; the chunks' first output rows lie on the lines' halo
    rows here (60-row chunks of 6-row lines), which no asked cell reads."""
    conv = fpn.dense_conv2d

    def scaled(data, *args, **kwargs):
        if isinstance(data, fpn._RowSource):
            source, starts = data, []

            def fill(start, stop, out):
                source.fill(start, stop, out)
                if starts:
                    out[0] *= 1 + 1e-6
                starts.append(start)

            data = fpn._RowSource(fill, source.shape, source.dtype)
        return conv(data, *args, **kwargs)

    monkeypatch.setattr(fpn, "dense_conv2d", scaled)


def test_shift_check_catches_a_fill_edge_fault_in_the_pooling_map(monkeypatch):
    scale_first_row_of_later_fills(monkeypatch)
    assert {name for _, _, name in shift_mismatches()} >= {"P3", "pool"}
