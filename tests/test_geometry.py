import math

import numpy as np
import pytest

from pillardet.geometry import (Box3D, RotatedRect2D, heading_delta, iou_3d,
                                iou_3d_matrix, point_in_rect, polygon_area,
                                project_to_bev, rotated_iou_bev)
from pillardet.oracles import mc_rotated_iou


def random_rect(rng, span=3.0):
    return RotatedRect2D(rng.uniform(-span, span), rng.uniform(-span, span),
                         rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0),
                         rng.uniform(-math.pi, math.pi))


def random_box(rng, span=5.0):
    return Box3D(rng.uniform(-span, span), rng.uniform(-span, span),
                 rng.uniform(-1, 1), rng.uniform(0.5, 5.0),
                 rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0),
                 rng.uniform(-math.pi, math.pi))


class TestBox3D:
    def test_yaw_normalized_into_half_open_interval(self):
        box = Box3D(0, 0, 1, 4, 2, 1.5, math.pi + 0.1)
        assert box.yaw == pytest.approx(-math.pi + 0.1, abs=1e-12)
        assert Box3D(0, 0, 0, 1, 1, 1, -math.pi).yaw == pytest.approx(math.pi)
        assert Box3D(0, 0, 0, 1, 1, 1, math.pi).yaw == pytest.approx(math.pi)

    def test_rejects_non_positive_extents(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 0.0, 1, 1, 0)
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 1, -2, 1, 0)

    def test_projection_drops_z_and_height(self):
        rect = project_to_bev(Box3D(0, 0, 1, 4, 2, 1.5, 0.3))
        assert (rect.cx, rect.cy, rect.length, rect.width, rect.yaw) == \
            (0, 0, 4, 2, 0.3)

    def test_unit_cube_projects_to_unit_square(self):
        rect = project_to_bev(Box3D(0, 0, 0, 1, 1, 1, 0.0))
        assert rect.length == rect.width == 1.0 and rect.yaw == 0.0


class TestCorners:
    def test_counter_clockwise_and_area(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rect = random_rect(rng)
            corners = rect.corners()
            # shoelace of CCW corners is positive
            signed = sum(corners[i][0] * corners[(i + 1) % 4][1]
                         - corners[(i + 1) % 4][0] * corners[i][1]
                         for i in range(4)) / 2
            assert signed > 0
            assert polygon_area(corners) == pytest.approx(
                rect.area, rel=1e-9)


class TestPointInRect:
    def test_center_of_unit_square(self):
        assert point_in_rect((0, 0), RotatedRect2D(0, 0, 1, 1, 0))

    def test_just_outside_half_length(self):
        assert not point_in_rect((0.51, 0), RotatedRect2D(0, 0, 1, 1, 0))

    def test_rotated_square(self):
        rect = RotatedRect2D(0, 0, 1, 1, math.pi / 4)
        assert not point_in_rect((0.6, 0.6), rect)
        assert point_in_rect((0.6, 0.0), rect)

    def test_boundary_is_inside(self):
        assert point_in_rect((0.5, 0.5), RotatedRect2D(0, 0, 1, 1, 0))

    def test_area_fraction_matches_uniform_sampling(self):
        rng = np.random.default_rng(1)
        span = 8.0
        for _ in range(5):
            rect = random_rect(rng)
            pts = rng.uniform(-span, span, size=(100_000, 2))
            frac = np.mean([point_in_rect((x, y), rect) for x, y in pts])
            expected = rect.area / (2 * span) ** 2
            assert frac == pytest.approx(expected, rel=0.02, abs=2e-3)


class TestRotatedIou:
    def test_identical_rects(self):
        rect = RotatedRect2D(1.0, -2.0, 3.0, 1.5, 0.7)
        assert rotated_iou_bev(rect, rect) == 1.0

    def test_offset_unit_squares(self):
        a = RotatedRect2D(0, 0, 1, 1, 0)
        b = RotatedRect2D(0.5, 0, 1, 1, 0)
        assert rotated_iou_bev(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_forty_five_degree_overlap(self):
        # octagonal intersection of area 2*(sqrt(2)-1)
        a = RotatedRect2D(0, 0, 1, 1, 0)
        b = RotatedRect2D(0, 0, 1, 1, math.pi / 4)
        inter = 2 * (math.sqrt(2) - 1)
        expected = inter / (2 - inter)
        assert rotated_iou_bev(a, b) == pytest.approx(expected, abs=1e-12)
        assert rotated_iou_bev(a, b) == pytest.approx(
            mc_rotated_iou(a, b, 1_000_000, seed=3), abs=2e-3)

    def test_degenerate_rect_gives_zero(self):
        a = RotatedRect2D(0, 0, 1, 1, 0)
        assert rotated_iou_bev(a, RotatedRect2D(0, 0, 0.0, 1, 0)) == 0.0

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a, b = random_rect(rng), random_rect(rng)
            assert rotated_iou_bev(a, b) == rotated_iou_bev(b, a)

    def test_yaw_periodicity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = random_rect(rng), random_rect(rng)
            shifted = (RotatedRect2D(a.cx, a.cy, a.length, a.width, a.yaw + math.pi),
                       RotatedRect2D(b.cx, b.cy, b.length, b.width, b.yaw + math.pi))
            assert rotated_iou_bev(*shifted) == pytest.approx(
                rotated_iou_bev(a, b), abs=1e-9)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = random_rect(rng), random_rect(rng)
            tx, ty = rng.uniform(-30, 30, 2)
            rot = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(rot), math.sin(rot)
            moved = [RotatedRect2D(c * r.cx - s * r.cy + tx,
                                   s * r.cx + c * r.cy + ty,
                                   r.length, r.width, r.yaw + rot)
                     for r in (a, b)]
            assert rotated_iou_bev(*moved) == pytest.approx(
                rotated_iou_bev(a, b), abs=1e-9)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(5)
        for k in range(50):
            a = random_rect(rng)
            b = RotatedRect2D(a.cx + rng.uniform(-2, 2), a.cy + rng.uniform(-2, 2),
                              rng.uniform(0.5, 5), rng.uniform(0.5, 5),
                              rng.uniform(-math.pi, math.pi))
            assert rotated_iou_bev(a, b) == pytest.approx(
                mc_rotated_iou(a, b, 200_000, seed=k), abs=7e-3)


class TestIou3D:
    def test_identical_boxes(self):
        box = Box3D(1, 2, 0.5, 4, 2, 1.5, 0.3)
        assert iou_3d(box, box) == 1.0

    def test_z_disjoint(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        assert iou_3d(a, Box3D(0, 0, 5, 1, 1, 1, 0)) == 0.0

    def test_offset_unit_cubes(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(0.5, 0, 0, 1, 1, 1, 0)
        assert iou_3d(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            assert iou_3d(a, b) == iou_3d(b, a)

    def test_matrix_matches_elementwise(self):
        rng = np.random.default_rng(7)
        boxes_a = [random_box(rng) for _ in range(40)]
        boxes_b = [random_box(rng) for _ in range(30)]
        # far pairs: every circumcircle test rejects them
        boxes_b += [Box3D(50.0 + 3 * k, -40.0, 0.0, 4.0, 2.0, 1.5, 0.1 * k)
                    for k in range(5)]
        # pairs whose circumcircles just touch (3-4-5 boxes: radius 2.5),
        # corner to corner, a hair apart and a hair overlapping
        corner_yaw = -math.atan2(2.0, 1.5)
        boxes_a.append(Box3D(0.0, 0.0, 0.0, 3.0, 4.0, 1.0, corner_yaw))
        for eps in (0.0, 1e-12, -1e-12, 1e-9, -1e-9):
            boxes_b.append(Box3D(5.0 + eps, 0.0, 0.0, 3.0, 4.0, 1.0, corner_yaw))
        for _ in range(20):
            t = rng.uniform(-math.pi, math.pi)
            a, b = random_box(rng), random_box(rng)
            reach = 0.5 * (a.bev_diagonal + b.bev_diagonal)
            boxes_a.append(a)
            boxes_b.append(Box3D(a.cx + reach * math.cos(t), a.cy + reach * math.sin(t),
                                 b.cz, b.length, b.width, b.height, b.yaw))
        matrix = iou_3d_matrix(boxes_a, boxes_b)
        assert matrix.shape == (len(boxes_a), len(boxes_b))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert matrix[i, j] == iou_3d(a, b)  # exact, not approximate
        assert not matrix[:, 30:35].any()
        assert matrix.any()
        assert iou_3d_matrix([], boxes_b).shape == (0, len(boxes_b))


class TestHeadingDelta:
    def test_wraps_into_zero_pi(self):
        assert heading_delta(0.0, math.pi) == pytest.approx(math.pi)
        assert heading_delta(-3.0, 3.0) == pytest.approx(2 * math.pi - 6.0)
        assert heading_delta(0.4, 0.4) == 0.0
