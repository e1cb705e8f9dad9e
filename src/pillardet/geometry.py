"""Oriented-box geometry on the BEV plane and in 3D.

Boxes live in a right-handed world frame: x/y span the ground plane, z is
up, yaw rotates counter-clockwise about z. All operations are pure and all
types are immutable, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def point_in_rect(p: tuple[float, float], rect: RotatedRect2D) -> bool:
    """True iff ``p`` lies inside or on the boundary of ``rect``.

    The point is rotated into the rect frame and compared against the
    half-extents; boundary points count as inside so downstream labels
    are deterministic.
    """
    dx = p[0] - rect.cx
    dy = p[1] - rect.cy
    c, s = math.cos(rect.yaw), math.sin(rect.yaw)
    local_x = c * dx + s * dy
    local_y = -s * dx + c * dy
    return abs(local_x) <= 0.5 * rect.length and abs(local_y) <= 0.5 * rect.width


def _clip_polygon(poly: list[tuple[float, float]],
                  clip: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of ``poly`` against convex CCW ``clip``."""
    out = poly
    n_clip = len(clip)
    for e in range(n_clip):
        if not out:
            return []
        ex1, ey1 = clip[e]
        ex2, ey2 = clip[(e + 1) % n_clip]
        ax, ay = ex2 - ex1, ey2 - ey1
        inp = out
        out = []
        n = len(inp)
        # signed cross product with the edge; >= 0 is the inside half-plane
        sides = [ax * (inp[i][1] - ey1) - ay * (inp[i][0] - ex1) for i in range(n)]
        for i in range(n):
            cur = inp[i]
            nxt = inp[(i + 1) % n]
            s_cur = sides[i]
            s_nxt = sides[(i + 1) % n]
            if s_cur >= 0.0:
                out.append(cur)
            if (s_cur > 0.0 and s_nxt < 0.0) or (s_cur < 0.0 and s_nxt > 0.0):
                t = s_cur / (s_cur - s_nxt)
                out.append((cur[0] + t * (nxt[0] - cur[0]),
                            cur[1] + t * (nxt[1] - cur[1])))
    return out


def _dedupe_vertices(poly: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if len(poly) < 2:
        return poly
    out = []
    for p in poly:
        if not out or math.hypot(p[0] - out[-1][0], p[1] - out[-1][1]) > _DEGENERATE_EPS:
            out.append(p)
    if len(out) > 1 and math.hypot(out[0][0] - out[-1][0], out[0][1] - out[-1][1]) <= _DEGENERATE_EPS:
        out.pop()
    return out


def polygon_area(poly: list[tuple[float, float]]) -> float:
    """Shoelace area of a simple polygon (absolute value)."""
    poly = _dedupe_vertices(poly)
    n = len(poly)
    if n < 3:
        return 0.0
    acc = 0.0
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return 0.5 * abs(acc)


def rect_intersection_area(a: RotatedRect2D, b: RotatedRect2D) -> float:
    """Intersection area of two rotated rectangles via convex clipping.

    Operands are put in a canonical order first so the result is exactly
    symmetric (bit-identical) under argument swap.
    """
    if a.area <= 0.0 or b.area <= 0.0:
        return 0.0
    if (b.cx, b.cy, b.length, b.width, b.yaw) < (a.cx, a.cy, a.length, a.width, a.yaw):
        a, b = b, a
    return polygon_area(_clip_polygon(a.corners(), b.corners()))


def rotated_iou_bev(a: RotatedRect2D, b: RotatedRect2D) -> float:
    """IoU of two rotated rectangles on the BEV plane, in [0, 1]."""
    area_a, area_b = a.area, b.area
    if area_a <= 0.0 or area_b <= 0.0:
        return 0.0
    inter = rect_intersection_area(a, b)
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    # clamp away tiny clipping noise just above 1
    return min(1.0, inter / union)


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU: rotated BEV intersection times vertical overlap."""
    inter_bev = rect_intersection_area(project_to_bev(a), project_to_bev(b))
    if inter_bev <= 0.0:
        return 0.0
    z_overlap = min(a.z_top, b.z_top) - max(a.z_bottom, b.z_bottom)
    if z_overlap <= 0.0:
        return 0.0
    inter = inter_bev * z_overlap
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, inter / union)


def iou_3d_matrix(boxes_a: Sequence[Box3D],
                  boxes_b: Sequence[Box3D]) -> np.ndarray:
    """Full (N, M) matrix of :func:`iou_3d` values.

    Pairs whose BEV circumcircles cannot touch are skipped without
    clipping, as in ``nms_3d``; their IoU is exactly zero.
    """
    out = np.zeros((len(boxes_a), len(boxes_b)))
    radii_b = [0.5 * b.bev_diagonal for b in boxes_b]
    for i, a in enumerate(boxes_a):
        radius = 0.5 * a.bev_diagonal
        for j, (b, rb) in enumerate(zip(boxes_b, radii_b)):
            reach = radius + rb
            if (a.cx - b.cx) ** 2 + (a.cy - b.cy) ** 2 <= reach * reach:
                out[i, j] = iou_3d(a, b)
    return out
