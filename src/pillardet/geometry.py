"""Oriented-box geometry on the BEV plane and in 3D.

Boxes live in a right-handed world frame: x/y span the ground plane, z is
up, yaw rotates counter-clockwise about z. All operations are pure and all
types are immutable, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Vertices closer than this are merged before polygon areas are taken, so
# collinear leftovers from clipping cannot produce spurious edges.
_DEGENERATE_EPS = 1e-9


def normalize_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    a = math.remainder(angle, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    return a


# Decoded log-extents are clamped to this magnitude before ``exp``, as
# CenterPoint clamps its size regression: an extreme weight then yields a
# huge (e^10 ~ 22 km) or tiny but finite, positive extent instead of a
# float overflow or a zero extent. Trained heads stay far inside it.
LOG_EXTENT_LIMIT = 10.0


def exp_extent(log_extent: float) -> float:
    """``exp`` of a decoded log-extent clamped to +-LOG_EXTENT_LIMIT."""
    return math.exp(min(max(log_extent, -LOG_EXTENT_LIMIT), LOG_EXTENT_LIMIT))


def heading_delta(a: float, b: float) -> float:
    """Absolute heading difference in [0, pi]."""
    d = abs(math.remainder(a - b, TWO_PI))
    return min(d, TWO_PI - d)


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center, extents and heading.

    ``num_points`` is only meaningful for ground truth (0 for predictions).
    Yaw is normalized into (-pi, pi] at construction; extents must be
    strictly positive.
    """

    cx: float
    cy: float
    cz: float
    length: float
    width: float
    height: float
    yaw: float
    class_id: int = 0
    num_points: int = 0

    def __post_init__(self):
        if not (self.length > 0 and self.width > 0 and self.height > 0):
            raise ValueError(
                f"box extents must be positive, got "
                f"({self.length}, {self.width}, {self.height})"
            )
        if self.num_points < 0:
            raise ValueError("num_points must be non-negative")
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))

    @property
    def z_bottom(self) -> float:
        return self.cz - 0.5 * self.height

    @property
    def z_top(self) -> float:
        return self.cz + 0.5 * self.height

    @property
    def volume(self) -> float:
        return self.length * self.width * self.height

    @property
    def bev_diagonal(self) -> float:
        return math.hypot(self.length, self.width)


@dataclass(frozen=True)
class RotatedRect2D:
    """Rotated rectangle on the BEV plane."""

    cx: float
    cy: float
    length: float
    width: float
    yaw: float

    @property
    def area(self) -> float:
        return self.length * self.width

    def corners(self) -> list[tuple[float, float]]:
        """Four corners in counter-clockwise order."""
        hl, hw = 0.5 * self.length, 0.5 * self.width
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        out = []
        for lx, ly in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)):
            out.append((self.cx + c * lx - s * ly, self.cy + s * lx + c * ly))
        return out


def project_to_bev(box: Box3D) -> RotatedRect2D:
    """Drop z and height, keeping the BEV footprint of the box."""
    return RotatedRect2D(box.cx, box.cy, box.length, box.width, box.yaw)


def points_in_rect(xy: np.ndarray, rect: RotatedRect2D) -> np.ndarray:
    """Which points of an (..., 2) array lie inside or on the boundary of
    ``rect``, as a bool array of the leading shape.

    Each point is rotated into the rect frame and compared against the
    half-extents; boundary points count as inside so downstream labels
    are deterministic.
    """
    dx = xy[..., 0] - rect.cx
    dy = xy[..., 1] - rect.cy
    c, s = math.cos(rect.yaw), math.sin(rect.yaw)
    return ((np.abs(c * dx + s * dy) <= 0.5 * rect.length)
            & (np.abs(-s * dx + c * dy) <= 0.5 * rect.width))


# -- batched rotated IoU ----------------------------------------------------
#
# One Sutherland-Hodgman clip runs over whole arrays of box pairs, row k of
# every array belonging to pair k. A polygon is a vertex count and a padded
# row of each of an x and a y plane, closed by repeating its first vertex
# after the last; each step does, per row, the float operations a
# one-pair-at-a-time clip of Python lists does, in the same order, so every
# area and IoU is the same double as that clip's.

_RECT_FIELDS = ("cx", "cy", "length", "width", "yaw")
_BOX_FIELDS = _RECT_FIELDS + ("cz", "height")

# signs of the half-length and half-width at each corner, counter-clockwise
# from (+l/2, +w/2), and the first corner again
_CORNER_SIGNS = np.array([[1.0, -1.0, -1.0, 1.0, 1.0],
                          [1.0, 1.0, -1.0, -1.0, 1.0]])

# pairs per pass through the kernel, which bounds its temporaries
_CHUNK = 1024

# np.hypot and math.hypot may round differently; a distance this close to
# the merge threshold is retaken with math.hypot.
_HYPOT_GUARD = 1e-20

# a screened near pair is clipped where its IoU bound reaches the threshold
# less this slack. The clip takes its shoelace sums in world coordinates,
# so it can read above the exact IoU: by up to ~1.2e-9 for 0.1 m boxes
# 200 m out, while the bound is exact for equal boxes to ~1e-15.
_BOUND_SLACK = 1e-8


def _fields(boxes: Sequence,
            fields: tuple[str, ...] = _BOX_FIELDS) -> np.ndarray:
    """Float64 field table of ``boxes``, one row each: cx, cy, length,
    width, yaw, ``math.cos`` and ``math.sin`` of the yaw, cz, height.
    Rects, read with ``_RECT_FIELDS``, are unit-height slabs at z = 0."""
    cols = np.array(list(map(attrgetter(*fields), boxes)),
                    np.float64).reshape(len(boxes), len(fields))
    yaws = cols[:, 4].tolist()
    out = np.zeros((len(boxes), 9))
    out[:, :5] = cols[:, :5]
    out[:, 5] = np.fromiter(map(math.cos, yaws), np.float64, len(yaws))
    out[:, 6] = np.fromiter(map(math.sin, yaws), np.float64, len(yaws))
    out[:, 7:] = cols[:, 5:] if len(fields) > 5 else (0.0, 1.0)
    return out


def _pairwise(a: Sequence, b: Sequence, fields: tuple[str, ...], kernel):
    """(N,) ``kernel(rows of a, rows of b)`` (see :func:`_fields`) for two
    equal-length sequences of boxes, in chunks of ``_CHUNK`` pairs. An
    item met in many pairs of a chunk is read once."""
    if len(a) != len(b):
        raise ValueError(f"batches differ in length: {len(a)} vs {len(b)}")
    out = np.empty(len(a))
    for k in range(0, len(a), _CHUNK):
        items = [*a[k:k + _CHUNK], *b[k:k + _CHUNK]]
        _, first, where = np.unique(
            np.fromiter(map(id, items), np.int64, len(items)),
            return_index=True, return_inverse=True)
        rows = _fields([items[i] for i in first.tolist()], fields)[where]
        half = len(items) // 2
        out[k:k + _CHUNK] = kernel(rows[:half], rows[half:])
    return out


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot``."""
    h = np.hypot(dx, dy)
    near = np.abs(h - _DEGENERATE_EPS) <= _HYPOT_GUARD
    if near.any():
        for k in zip(*np.nonzero(near)):
            h[k] = math.hypot(dx[k], dy[k])
    return h


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``tuple(a[k]) < tuple(b[k])``."""
    less = a[:, 0] < b[:, 0]
    tied = a[:, 0] == b[:, 0]
    for col in range(1, a.shape[1]):
        if not tied.any():
            break
        less |= tied & (a[:, col] < b[:, col])
        tied &= a[:, col] == b[:, col]
    return less


def _to_world(rows: np.ndarray, lx: np.ndarray,
              ly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World x and y of offsets ``lx`` along the length and ``ly`` along
    the width of the boxes in :func:`_fields` rows, which carry trailing
    axes that broadcast against the offsets."""
    cx, cy, c, s = rows[:, 0], rows[:, 1], rows[:, 5], rows[:, 6]
    return cx + c * lx - s * ly, cy + s * lx + c * ly


def _corners(rects: np.ndarray) -> np.ndarray:
    """Corners of :func:`_fields` rows, as :meth:`RotatedRect2D.corners`
    computes them: (2, N, 5) x and y planes of the four counter-clockwise
    corners and the first again, closing the polygon."""
    rows = rects[:, :, None]
    # a sign flip is exact: hl * -1.0 is -hl
    lx = (0.5 * rows[:, 2]) * _CORNER_SIGNS[0]
    ly = (0.5 * rows[:, 3]) * _CORNER_SIGNS[1]
    return np.stack(_to_world(rows, lx, ly))


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., 0], b[..., 0], a[..., 1], b[..., 1], ... along the last axis."""
    out = np.empty(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
    out[..., 0::2] = a
    out[..., 1::2] = b
    return out


def _compact(mask: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's points (``pts``: x and y planes) under ``mask``, in
    order, as closed padded polygons, and their counts."""
    n = mask.sum(axis=1)
    r, c = mask.nonzero()
    at = mask.cumsum(axis=1)[r, c] - 1
    out = np.zeros((2, len(n), int(n.max(initial=0)) + 1))
    out[:, r, at] = pts[:, r, c]
    out[:, np.arange(len(n)), n] = out[:, :, 0]
    return out, n


def _clip_edge(poly: np.ndarray, n: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clip each row's closed polygon (``n`` vertices, then the first
    again) to the inside half-plane of the edge ``start`` -> ``end``
    ((2, N) x and y)."""
    x, y = poly
    ax, ay = (end - start)[:, :, None]
    # signed cross product with the edge; >= 0 is the inside half-plane
    side = ax * (y - start[1][:, None]) - ay * (x - start[0][:, None])
    s_cur, s_nxt = side[:, :-1], side[:, 1:]
    valid = np.arange(s_cur.shape[1]) < n[:, None]
    pos, neg = side > 0.0, side < 0.0
    keep = valid & (s_cur >= 0.0)
    cross = valid & ((pos[:, :-1] & neg[:, 1:]) | (neg[:, :-1] & pos[:, 1:]))
    # where an edge crosses, its crossing; elsewhere t = 0 and a dummy
    t = np.divide(s_cur, s_cur - s_nxt, out=np.zeros_like(s_cur), where=cross)
    cur = poly[:, :, :-1]
    hit = cur + t * (poly[:, :, 1:] - cur)
    # each vertex appends itself if kept, then the crossing if any
    return _compact(_interleave(keep, cross), _interleave(cur, hit))


def _polygon_areas(poly: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Shoelace area of each row's closed polygon (``n`` vertices, then
    the first again; x and y planes).

    A vertex within ``_DEGENERATE_EPS`` of the last one kept is merged
    into it, then a last vertex on top of the first is dropped, so
    collinear leftovers from clipping cannot produce spurious edges.
    """
    x, y = poly
    width = x.shape[1] - 1
    valid = np.arange(width) < n[:, None]
    # a vertex apart from the one before it is kept; a row where some
    # vertex is not takes the sequential rule against the last one kept
    kept = valid.copy()
    kept[:, 1:] &= _hypot(x[:, 1:width] - x[:, :width - 1],
                          y[:, 1:width] - y[:, :width - 1]) > _DEGENERATE_EPS
    redo = np.flatnonzero((kept != valid).any(axis=1))
    if len(redo):
        rx, ry, rn = x[redo], y[redo], n[redo]
        last_x, last_y = rx[:, 0], ry[:, 0]
        for k in range(1, width):
            apart = (k < rn) & (_hypot(rx[:, k] - last_x, ry[:, k] - last_y)
                                > _DEGENERATE_EPS)
            kept[redo, k] = apart
            last_x = np.where(apart, rx[:, k], last_x)
            last_y = np.where(apart, ry[:, k], last_y)
    poly, m = _compact(kept, poly)
    x, y = poly
    width = x.shape[1] - 1
    rows, end = np.arange(len(m)), np.maximum(m - 1, 0)
    closes = (m > 1) & (_hypot(x[:, 0] - x[rows, end],
                               y[:, 0] - y[rows, end]) <= _DEGENERATE_EPS)
    m -= closes
    x[rows, m] = x[:, 0]
    y[rows, m] = y[:, 0]
    terms = x[:, :-1] * y[:, 1:] - x[:, 1:] * y[:, :-1]
    # add.accumulate sums each row left to right, as the scalar loop did
    acc = np.cumsum(np.where(np.arange(width) < m[:, None], terms, 0.0),
                    axis=1)[:, -1] if width else np.zeros(len(m))
    return np.where(m >= 3, 0.5 * np.abs(acc), 0.0)


def _intersection_areas(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """BEV intersection areas of the rects of :func:`_fields` rows
    ``ra[k]`` and ``rb[k]``; zero where either area is not positive.

    Each pair's operands are put in a canonical order first, so an area is
    exactly symmetric (bit-identical) under argument swap.
    """
    out = np.zeros(len(ra))
    live = np.flatnonzero(~((ra[:, 2] * ra[:, 3] <= 0.0)
                            | (rb[:, 2] * rb[:, 3] <= 0.0)))
    ra, rb = ra[live], rb[live]
    swap = _lex_less(rb[:, :5], ra[:, :5])[:, None]
    poly = _corners(np.where(swap, rb, ra))
    clip = _corners(np.where(swap, ra, rb))
    n = np.full(len(live), 4)
    for e in range(4):
        # a polygon clipped away stays empty: drop its row
        if not n.all():
            alive = n > 0
            live, poly, clip, n = live[alive], poly[:, alive], clip[:, alive], n[alive]
        poly, n = _clip_edge(poly, n, clip[:, :, e], clip[:, :, e + 1])
    out[live] = _polygon_areas(poly, n)
    return out


def polygon_area(poly: Sequence[tuple[float, float]]) -> float:
    """Shoelace area of a simple polygon (absolute value)."""
    xy = np.array(poly, np.float64).reshape(-1, 2)
    closed = np.vstack([xy, xy[:1]]) if len(xy) else np.zeros((1, 2))
    return float(_polygon_areas(closed.T[:, None, :], np.array([len(xy)]))[0])


def _ious_3d(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """3D IoUs of the boxes in :func:`_fields` rows ``ra[k]`` and
    ``rb[k]``, clamped to at most 1 (away from tiny clipping noise just
    above it); 0 where the intersection or the union is not positive."""
    inter_bev = _intersection_areas(ra, rb)
    half_a, half_b = 0.5 * ra[:, 8], 0.5 * rb[:, 8]
    top_a, top_b = ra[:, 7] + half_a, rb[:, 7] + half_b
    bottom_a, bottom_b = ra[:, 7] - half_a, rb[:, 7] - half_b
    z_overlap = (np.where(top_b < top_a, top_b, top_a)
                 - np.where(bottom_b > bottom_a, bottom_b, bottom_a))
    inter = inter_bev * z_overlap
    union = (ra[:, 2] * ra[:, 3] * ra[:, 8] + rb[:, 2] * rb[:, 3] * rb[:, 8]
             - inter)
    out = np.zeros(len(inter))
    ok = ~((inter_bev <= 0.0) | (z_overlap <= 0.0) | (union <= 0.0))
    q = inter[ok] / union[ok]
    out[ok] = np.where(q < 1.0, q, 1.0)
    return out


def _iou_bounds(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Upper bounds on the 3D IoUs of the boxes in rows ``ra[k]`` and
    ``rb[k]`` (see :func:`_fields`), from the two boxes alone.

    The BEV overlap lies in both boxes, so its extent along either box's
    length or width axis is at most the overlap of the two boxes'
    extents along it: the smaller of the two frames' products bounds its
    area. Times the vertical overlap that bounds the intersection I, and
    I / (Va + Vb - I) rises with I.
    """
    def overlap(half, reach, d):
        """Length of [-half, half] within [d - reach, d + reach]."""
        return np.maximum(np.minimum(half, d + reach)
                          - np.maximum(-half, d - reach), 0.0)

    dx, dy = rb[:, 0] - ra[:, 0], rb[:, 1] - ra[:, 1]
    # |cos| and |sin| of the yaw difference
    c = np.abs(ra[:, 5] * rb[:, 5] + ra[:, 6] * rb[:, 6])
    s = np.abs(ra[:, 6] * rb[:, 5] - ra[:, 5] * rb[:, 6])
    bev = np.inf
    for r, o in ((ra, rb), (rb, ra)):
        cos, sin = r[:, 5], r[:, 6]
        along = overlap(0.5 * r[:, 2], 0.5 * (o[:, 2] * c + o[:, 3] * s),
                        np.abs(cos * dx + sin * dy))
        across = overlap(0.5 * r[:, 3], 0.5 * (o[:, 2] * s + o[:, 3] * c),
                         np.abs(cos * dy - sin * dx))
        bev = np.minimum(bev, along * across)
    z = (np.minimum(ra[:, 7] + 0.5 * ra[:, 8], rb[:, 7] + 0.5 * rb[:, 8])
         - np.maximum(ra[:, 7] - 0.5 * ra[:, 8], rb[:, 7] - 0.5 * rb[:, 8]))
    inter = bev * np.maximum(z, 0.0)
    union = (ra[:, 2] * ra[:, 3] * ra[:, 8] + rb[:, 2] * rb[:, 3] * rb[:, 8]
             - inter)
    # a union that underflows to 0 is a pair the clip gives 0
    return np.divide(inter, union, out=np.zeros(len(inter)), where=union > 0.0)


def rotated_iou_bev(a: Sequence[RotatedRect2D],
                    b: Sequence[RotatedRect2D]) -> np.ndarray:
    """IoUs of rotated rectangles on the BEV plane, in [0, 1]: the (N,)
    array of pair k = (a[k], b[k]) for two equal-length sequences.

    Each rect is read as a unit-height slab at z = 0 and clipped by
    :func:`iou_3d`'s kernel: the vertical overlap is exactly 1, so each
    IoU is the BEV one."""
    return _pairwise(a, b, _RECT_FIELDS, _ious_3d)


def iou_3d(a: Sequence[Box3D], b: Sequence[Box3D]) -> np.ndarray:
    """3D IoUs, rotated BEV intersection times vertical overlap: the (N,)
    array of pair k = (a[k], b[k]) for two equal-length sequences.

    The whole batch is clipped by one vectorised kernel, so callers gather
    their pairs into one call; one pair is a batch of one.
    """
    return _pairwise(a, b, _BOX_FIELDS, _ious_3d)


def _near(ra: np.ndarray, rb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), in row-major order, of the pairs of
    :func:`_fields` rows ``ra[i]`` and ``rb[j]`` whose BEV circumcircles
    touch or overlap.

    Every other pair is disjoint on the BEV plane: its IoU is exactly
    zero and need not be clipped. A radius is ``0.5 * math.hypot(length,
    width)``, as :attr:`Box3D.bev_diagonal` gives it, so exactly touching
    circles stay near.
    """
    def radii(rows):
        return 0.5 * np.fromiter(map(math.hypot, rows[:, 2].tolist(),
                                     rows[:, 3].tolist()), np.float64, len(rows))

    radius_a = radii(ra)
    reach = radius_a[:, None] + (radius_a if rb is ra else radii(rb))
    reach *= reach
    # squared distances in place: dx * dx + dy * dy
    dx = ra[:, :1] - rb[:, 0]
    dx *= dx
    dy = ra[:, 1:2] - rb[:, 1]
    dy *= dy
    dx += dy
    return np.nonzero(dx <= reach)


def near_pairs(boxes_a: Sequence[Box3D],
               boxes_b: Sequence[Box3D]) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), in row-major order, of the pairs of
    ``boxes_a[i]`` and ``boxes_b[j]`` whose BEV circumcircles touch or
    overlap: the pairs :func:`iou_3d_tables` may clip (see :func:`_near`);
    given ``at_least``, it clips only those its screen keeps."""
    ra = _fields(boxes_a)
    return _near(ra, ra if boxes_b is boxes_a else _fields(boxes_b))


def iou_3d_tables(groups: Sequence[tuple[Sequence[Box3D], ...]],
                  clip=iou_3d,
                  at_least: Sequence[float] | None = None) -> list[np.ndarray]:
    """One IoU table per group of boxes, all near pairs clipped in one call.

    A group ``(a, b)`` gives the (len(a), len(b)) table of all its pairs;
    a group ``(a,)`` gives the (len(a), len(a)) table of its pairs i < j
    only. Each distinct box list of a group is read once into a
    :func:`_fields` table, which gives both its near pairs, those whose
    BEV circumcircles touch (:func:`_near`), and the rows of the IoU
    screen below. The near pairs of every group are clipped in a single
    ``clip`` call, which has :func:`iou_3d`'s batch signature. Every other
    cell holds 0: a far pair's exact IoU, and a pair an ``(a,)`` group
    leaves out. Any other group is a ``ValueError``.

    ``at_least``, one threshold in (0, 1] per group, screens the near
    pairs too: a pair is clipped only if an upper bound on its IoU, taken
    from the two boxes' extents, reaches its group's threshold less a
    rounding slack, and a screened cell holds 0. Every cell at or above
    its threshold then holds its clipped IoU, as without ``at_least``.
    At detector scale (extents from 0.1 m, centres within 200 m) the
    clip reads above the bound by less than the slack; for sub-millimetre
    boxes kilometres from the origin the clip itself errs, and the screen
    follows the bound.
    """
    if at_least is not None:
        if len(at_least) != len(groups):
            raise ValueError(f"at_least holds {len(at_least)} thresholds for "
                             f"{len(groups)} groups")
        for thr in at_least:
            if not 0.0 < thr <= 1.0:
                raise ValueError(f"at_least thresholds must be in (0, 1], "
                                 f"got {thr}")
    tables, left, right, cells = [], [], [], []
    for n, group in enumerate(groups):
        if len(group) not in (1, 2):
            raise ValueError(f"a group is (a,) or (a, b), got {len(group)} "
                             f"box lists")
        a, b = group[0], group[-1]
        ra = _fields(a)
        rb = ra if b is a else _fields(b)
        i, j = _near(ra, rb)
        if len(group) == 1:
            ahead = i < j
            i, j = i[ahead], j[ahead]
        if at_least is not None and len(i):
            reach = _iou_bounds(ra[i], rb[j]) >= at_least[n] - _BOUND_SLACK
            i, j = i[reach], j[reach]
        tables.append(np.zeros((len(a), len(b))))
        cells.append((i, j))
        left += [a[k] for k in i.tolist()]
        right += [b[k] for k in j.tolist()]
    values = clip(left, right)
    ends = np.cumsum([len(i) for i, _ in cells], dtype=np.int64)
    for table, (i, j), part in zip(tables, cells, np.split(values, ends[:-1])):
        table[i, j] = part
    return tables


def iou_3d_matrix(boxes_a: Sequence[Box3D],
                  boxes_b: Sequence[Box3D]) -> np.ndarray:
    """Full (N, M) matrix of :func:`iou_3d` values (see
    :func:`iou_3d_tables`)."""
    return iou_3d_tables([(boxes_a, boxes_b)])[0]
