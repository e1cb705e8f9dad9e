import math

import numpy as np
import pytest

from conftest import footprint_margin
from pillardet.geometry import (Box3D, RotatedRect2D, heading_delta, iou_3d,
                                iou_3d_matrix, iou_3d_tables, near_pairs,
                                points_in_rect, polygon_area, project_to_bev,
                                rotated_iou_bev)
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


class TestPointsInRect:
    def test_center_of_unit_square(self):
        assert points_in_rect(np.array([0.0, 0.0]), RotatedRect2D(0, 0, 1, 1, 0))

    def test_just_outside_half_length(self):
        assert not points_in_rect(np.array([0.51, 0.0]),
                                  RotatedRect2D(0, 0, 1, 1, 0))

    def test_rotated_square(self):
        rect = RotatedRect2D(0, 0, 1, 1, math.pi / 4)
        np.testing.assert_array_equal(
            points_in_rect(np.array([[0.6, 0.6], [0.6, 0.0]]), rect),
            [False, True])

    def test_boundary_is_inside(self):
        assert points_in_rect(np.array([0.5, 0.5]), RotatedRect2D(0, 0, 1, 1, 0))

    # an axis-aligned rect with dyadic fields: its edges, corners and the
    # oracle's margins are exact, so boundary points are decidable
    BOUNDARY_RECT = RotatedRect2D(1.0, -0.5, 4.0, 2.0, 0.0)
    ON_BOUNDARY = [(3.0, -0.5), (-1.0, 0.25), (1.5, 0.5), (0.0, -1.5),
                   (3.0, 0.5), (-1.0, 0.5), (-1.0, -1.5), (3.0, -1.5)]
    OFF_BOUNDARY = [(3.0 + 2 ** -20, -0.5), (1.5, 0.5 + 2 ** -20),
                    (-1.0 - 2 ** -20, -1.5), (3.0, -1.5 - 2 ** -20),
                    (3.0 - 2 ** -20, 0.5 - 2 ** -20)]

    def test_edges_and_corners_are_inside_for_n_points(self):
        pts = np.array(self.ON_BOUNDARY + self.OFF_BOUNDARY)
        margin = footprint_margin(pts, self.BOUNDARY_RECT)
        assert (margin[:len(self.ON_BOUNDARY)] == 0.0).all()
        assert (margin[len(self.ON_BOUNDARY):] != 0.0).all()
        got = points_in_rect(pts, self.BOUNDARY_RECT)
        assert got.shape == (len(pts),)
        np.testing.assert_array_equal(got, margin >= 0.0)
        assert got[:len(self.ON_BOUNDARY)].all()

    def test_edges_and_corners_are_inside_for_a_grid(self):
        # a 5 x 5 lattice over the rect's closed extent: its outer ring is
        # the boundary, corners included; a wider lattice adds outside points
        inside = {}
        for span in (1.0, 1.25):
            xs = 1.0 + span * np.linspace(-2.0, 2.0, 5)
            ys = -0.5 + span * np.linspace(-1.0, 1.0, 5)
            pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
            got = points_in_rect(pts, self.BOUNDARY_RECT)
            assert got.shape == (5, 5)
            np.testing.assert_array_equal(
                got, footprint_margin(pts, self.BOUNDARY_RECT) >= 0.0)
            inside[span] = int(got.sum())
        assert inside == {1.0: 25, 1.25: 9}

    def test_matches_edge_cross_product_oracle(self):
        # random rects and points: no point lies within rounding of an
        # edge, so the two formulas must agree on every point
        rng = np.random.default_rng(2)
        for _ in range(50):
            rect = random_rect(rng)
            pts = rng.uniform(-8.0, 8.0, size=(40, 50, 2))
            margin = footprint_margin(pts, rect)
            assert np.abs(margin).min() > 1e-9
            np.testing.assert_array_equal(points_in_rect(pts, rect),
                                          margin > 0.0)

    def test_area_fraction_matches_uniform_sampling(self):
        rng = np.random.default_rng(1)
        span = 8.0
        for _ in range(5):
            rect = random_rect(rng)
            pts = rng.uniform(-span, span, size=(100_000, 2))
            frac = np.mean(points_in_rect(pts, rect))
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
        pairs = [(random_rect(rng), random_rect(rng)) for _ in range(300)]
        a, b = [p[0] for p in pairs], [p[1] for p in pairs]
        assert rotated_iou_bev(a, b).tolist() == rotated_iou_bev(b, a).tolist()

    def test_yaw_periodicity(self):
        rng = np.random.default_rng(3)
        pairs, shifted = [], []
        for _ in range(200):
            a, b = random_rect(rng), random_rect(rng)
            pairs.append((a, b))
            shifted.append((
                RotatedRect2D(a.cx, a.cy, a.length, a.width, a.yaw + math.pi),
                RotatedRect2D(b.cx, b.cy, b.length, b.width, b.yaw + math.pi)))
        assert rotated_iou_bev(*zip(*shifted)) == pytest.approx(
            rotated_iou_bev(*zip(*pairs)), abs=1e-9)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(4)
        pairs, moved = [], []
        for _ in range(200):
            a, b = random_rect(rng), random_rect(rng)
            tx, ty = rng.uniform(-30, 30, 2)
            rot = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(rot), math.sin(rot)
            pairs.append((a, b))
            moved.append([RotatedRect2D(c * r.cx - s * r.cy + tx,
                                        s * r.cx + c * r.cy + ty,
                                        r.length, r.width, r.yaw + rot)
                          for r in (a, b)])
        assert rotated_iou_bev(*zip(*moved)) == pytest.approx(
            rotated_iou_bev(*zip(*pairs)), abs=1e-9)

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
        pairs = [(random_box(rng), random_box(rng)) for _ in range(200)]
        a, b = [p[0] for p in pairs], [p[1] for p in pairs]
        assert iou_3d(a, b).tolist() == iou_3d(b, a).tolist()

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
        # every pair clipped, in one batch: exact, not approximate
        every_pair = iou_3d([a for a in boxes_a for _ in boxes_b],
                            boxes_b * len(boxes_a))
        assert matrix.ravel().tolist() == every_pair.tolist()
        assert not matrix[:, 30:35].any()
        assert matrix.any()
        assert iou_3d_matrix([], boxes_b).shape == (0, len(boxes_b))


class TestIouTables:
    def groups(self, rng):
        """Near and far boxes: a cluster around the origin, and a few boxes
        40 m away whose circumcircles touch nothing in it."""
        def boxes(n):
            return [random_box(rng) for _ in range(n)] + \
                [Box3D(40.0 + 6 * k, 0.0, 0.0, 4.0, 2.0, 1.5, 0.3 * k)
                 for k in range(int(rng.integers(0, 3)))]
        return [(boxes(9), boxes(7)), (boxes(12),), (boxes(5), boxes(11))]

    def test_near_pairs_equal_per_pair_iou_and_the_rest_zero(self):
        rng = np.random.default_rng(61)
        for _ in range(3):
            groups = self.groups(rng)
            for group, table in zip(groups, iou_3d_tables(groups)):
                a, b = group[0], group[-1]
                assert table.shape == (len(a), len(b))
                want = np.zeros((len(a), len(b)))
                for i, j in zip(*near_pairs(a, b)):
                    if len(group) == 2 or i < j:
                        want[i, j] = iou_3d(a[i], b[j])
                assert table.tolist() == want.tolist()
                assert table.any() and not table.all()

    def test_one_box_list_fills_only_pairs_ahead(self):
        rng = np.random.default_rng(62)
        boxes = [random_box(rng, span=2.0) for _ in range(15)]
        (table,) = iou_3d_tables([(boxes,)])
        full = iou_3d_matrix(boxes, boxes)
        upper = np.triu(np.ones(table.shape, bool), 1)
        assert table[upper].tolist() == full[upper].tolist()
        assert not table[~upper].any() and table[upper].any()

    def test_empty_lists_and_empty_groups(self):
        rng = np.random.default_rng(63)
        b = [random_box(rng) for _ in range(4)]
        assert iou_3d_tables([]) == []
        tables = iou_3d_tables([([], b), (b, []), ([],), ([], [])])
        assert [t.shape for t in tables] == [(0, 4), (4, 0), (0, 0), (0, 0)]

    def test_all_groups_make_one_clip_call(self):
        rng = np.random.default_rng(64)
        batches = []

        def counting(a, b):
            batches.append(len(a))
            return iou_3d(a, b)

        groups = self.groups(rng)
        tables = iou_3d_tables(groups, clip=counting)
        assert len(batches) == 1
        near = [near_pairs(g[0], g[-1]) for g in groups]
        assert batches[0] == sum(len(i) if len(g) == 2 else int((i < j).sum())
                                 for g, (i, j) in zip(groups, near))
        assert len(tables) == len(groups)
        assert iou_3d_tables([], clip=counting) == [] and len(batches) == 2

    def test_matrix_of_a_list_with_itself_is_full_and_symmetric(self):
        rng = np.random.default_rng(65)
        boxes = [random_box(rng, span=2.0) for _ in range(12)]
        matrix = iou_3d_matrix(boxes, boxes)
        every_pair = iou_3d([a for a in boxes for _ in boxes],
                            boxes * len(boxes)).reshape(len(boxes), len(boxes))
        assert matrix.tolist() == every_pair.tolist()
        assert matrix.tolist() == matrix.T.tolist()
        assert (np.diag(matrix) > 0.999).all()


class TestHeadingDelta:
    def test_wraps_into_zero_pi(self):
        assert heading_delta(0.0, math.pi) == pytest.approx(math.pi)
        assert heading_delta(-3.0, 3.0) == pytest.approx(2 * math.pi - 6.0)
        assert heading_delta(0.4, 0.4) == 0.0


# -- bit reference: the one-pair-at-a-time clipper on Python lists ----------

def ref_clip_polygon(poly, clip):
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


def ref_polygon_area(poly):
    if len(poly) >= 2:
        kept = []
        for p in poly:
            if not kept or math.hypot(p[0] - kept[-1][0], p[1] - kept[-1][1]) > 1e-9:
                kept.append(p)
        if len(kept) > 1 and math.hypot(kept[0][0] - kept[-1][0],
                                        kept[0][1] - kept[-1][1]) <= 1e-9:
            kept.pop()
        poly = kept
    n = len(poly)
    if n < 3:
        return 0.0
    acc = 0.0
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return 0.5 * abs(acc)


def ref_intersection_area(a, b):
    if a.area <= 0.0 or b.area <= 0.0:
        return 0.0
    if (b.cx, b.cy, b.length, b.width, b.yaw) < (a.cx, a.cy, a.length, a.width, a.yaw):
        a, b = b, a
    return ref_polygon_area(ref_clip_polygon(a.corners(), b.corners()))


def ref_bev_iou(ra, rb, inter):
    if ra.area <= 0.0 or rb.area <= 0.0:
        return 0.0
    union = ra.area + rb.area - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, inter / union)


def ref_ious(a, b):
    """(rotated_iou_bev, iou_3d) of two Box3D, from one reference clip."""
    ra, rb = project_to_bev(a), project_to_bev(b)
    inter = ref_intersection_area(ra, rb)
    bev = ref_bev_iou(ra, rb, inter)
    iou = 0.0
    z_overlap = min(a.z_top, b.z_top) - max(a.z_bottom, b.z_bottom)
    if inter > 0.0 and z_overlap > 0.0:
        inter3 = inter * z_overlap
        union = a.volume + b.volume - inter3
        if union > 0.0:
            iou = min(1.0, inter3 / union)
    return bev, iou


FAMILIES = ("random", "identical", "same_object", "turn_90", "turn_180",
            "shared_edge", "shared_vertex", "nested", "far", "tiny_extent",
            "sliver", "far_out")


def family_pairs(family, rng, n):
    """``n`` seeded Box3D pairs of one family of hard cases."""
    cx, cy = rng.integers(-20, 21, (2, n)) * 0.5
    length, width = rng.integers(1, 17, (2, n)) * 0.25
    yaw = rng.uniform(-math.pi, math.pi, n)
    if family in ("shared_edge", "shared_vertex"):
        yaw[rng.random(n) < 0.5] = 0.0   # exact shared edges need yaw 0
    if family == "far_out":              # +-75 m from the origin
        cx = rng.choice([-75.0, 75.0], n) + 0.01 * cx
        cy = rng.choice([-75.0, 75.0], n) + 0.01 * cy
    fields = np.column_stack([cx, cy, rng.uniform(-0.5, 0.5, n), length, width,
                              rng.uniform(0.5, 2.0, n), yaw])
    # per pair: six uniforms in [0, 1), three standard normals, a sign
    draws = np.column_stack([rng.random((n, 6)), rng.normal(size=(n, 3)),
                             rng.choice([-1.0, 1.0], n)])
    pairs = []
    for row, (u0, u1, u2, u3, u4, u5, g0, g1, g2, sign) in zip(
            fields.tolist(), draws.tolist()):
        a = Box3D(*row)
        if family == "random":
            b = Box3D(a.cx + 1.5 * g0, a.cy + 1.5 * g1, u0 - 0.5, 0.3 + 4.7 * u1,
                      0.3 + 4.7 * u2, 0.5 + 1.5 * u3, math.pi * (2 * u4 - 1))
        elif family == "identical":
            b = Box3D(a.cx, a.cy, a.cz, a.length, a.width, a.height, a.yaw)
        elif family == "same_object":
            b = a
        elif family in ("turn_90", "turn_180"):
            turn = math.pi / 2 if family == "turn_90" else math.pi
            b = Box3D(a.cx, a.cy, a.cz, a.length, a.width, a.height,
                      a.yaw + sign * turn)
        elif family in ("shared_edge", "shared_vertex"):
            # edge to edge outside, or flush inside along one edge
            c, s = math.cos(a.yaw), math.sin(a.yaw)
            b_length = 0.25 * (1 + int(16 * u0))
            along = 0.5 * (a.length + sign * b_length)
            across = a.width if family == "shared_vertex" else 0.0
            b = Box3D(a.cx + c * along - s * across, a.cy + s * along + c * across,
                      a.cz, b_length, a.width, a.height, a.yaw)
        elif family == "nested":
            b = Box3D(a.cx + 0.1 * (u0 - 0.5), a.cy, a.cz,
                      a.length * (0.1 + 0.8 * u1), a.width * (0.1 + 0.8 * u2),
                      a.height * 0.5, a.yaw + 0.4 * (u3 - 0.5))
        elif family == "far":
            t, r = math.pi * (2 * u0 - 1), 8.0 + 72.0 * u1
            b = Box3D(a.cx + r * math.cos(t), a.cy + r * math.sin(t), a.cz,
                      a.length, a.width, a.height, math.pi * (2 * u2 - 1))
        elif family == "tiny_extent":
            # extents whose products underflow, or nearly so
            tiny = (1e-200, 1e-160, 1e-12)[int(3 * u0)]
            b = Box3D(a.cx, a.cy, a.cz, tiny, a.width, a.height, a.yaw)
        elif family == "sliver":
            b = Box3D(a.cx + u0 - 0.5, a.cy + u1 - 0.5, a.cz, 0.5 + 4.5 * u2,
                      (1e-6, 1e-9, 1e-12)[int(3 * u3)], a.height,
                      a.yaw + (0.0, 1e-12, 0.3 * g0)[int(3 * u4)])
        else:   # far_out
            b = Box3D(a.cx + 0.5 * g0, a.cy + 0.5 * g1, a.cz,
                      a.length * (0.8 + 0.4 * u0), a.width, a.height,
                      a.yaw + 0.2 * g2)
        pairs.append((a, b))
    return pairs


class TestBatchedKernelBitExact:
    """The batched clip against the one-pair clip it replaced, bit for bit."""

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(2024)
        per_family = 100_000 // len(FAMILIES) + 1
        return [p for f in FAMILIES for p in family_pairs(f, rng, per_family)]

    def test_hundred_thousand_pairs_match_the_reference(self, pairs):
        assert len(pairs) >= 100_000
        a, b = [p[0] for p in pairs], [p[1] for p in pairs]
        got_3d = iou_3d(a, b)
        got_bev = rotated_iou_bev([project_to_bev(x) for x in a],
                                  [project_to_bev(x) for x in b])
        ref = [ref_ious(x, y) for x, y in pairs]
        assert [v.hex() for v in got_bev.tolist()] == [r[0].hex() for r in ref]
        assert [v.hex() for v in got_3d.tolist()] == [r[1].hex() for r in ref]
        # apart and degenerate families stay at zero; every other one overlaps
        by_family = np.array(ref)[:, 1].reshape(len(FAMILIES), -1)
        for name, values in zip(FAMILIES, by_family):
            if name in ("far", "tiny_extent", "shared_vertex"):
                assert not values.any(), name
            else:
                assert values.any(), name

    def test_symmetry_is_exact(self, pairs):
        a, b = [p[0] for p in pairs[::10]], [p[1] for p in pairs[::10]]
        assert np.array_equal(iou_3d(a, b), iou_3d(b, a))
        ra = [project_to_bev(x) for x in a]
        rb = [project_to_bev(x) for x in b]
        assert np.array_equal(rotated_iou_bev(ra, rb), rotated_iou_bev(rb, ra))

    def test_batch_equals_elementwise_calls(self, pairs):
        picked = pairs[::400]
        a, b = [p[0] for p in picked], [p[1] for p in picked]
        batch = iou_3d(a, b)
        assert batch.tolist() == [iou_3d(x, y) for x, y in picked]
        ra = [project_to_bev(x) for x in a]
        rb = [project_to_bev(x) for x in b]
        assert rotated_iou_bev(ra, rb).tolist() == [
            rotated_iou_bev(x, y) for x, y in zip(ra, rb)]
        assert all(type(iou_3d(x, y)) is float for x, y in picked[:5])

    def test_zero_extent_rects(self):
        rng = np.random.default_rng(77)
        a = [random_rect(rng) for _ in range(60)]
        b = [RotatedRect2D(r.cx, r.cy, *rng.choice([(0.0, 1.0), (1.0, 0.0),
                                                    (0.0, 0.0), (-1.0, 2.0)]),
                           r.yaw) for r in a]
        assert rotated_iou_bev(a, b).tolist() == [
            ref_bev_iou(x, y, ref_intersection_area(x, y)) for x, y in zip(a, b)]
        assert rotated_iou_bev(b, a).tolist() == [0.0] * len(a)

    def test_empty_batches(self):
        assert iou_3d([], []).shape == (0,)
        assert rotated_iou_bev([], []).shape == (0,)

    def test_mismatched_batches_are_rejected(self):
        box = Box3D(0, 0, 0, 1, 1, 1, 0)
        with pytest.raises(ValueError, match="differ in length"):
            iou_3d([box, box], [box])
        with pytest.raises(TypeError):
            iou_3d(box, [box])

    def test_polygon_area_merges_near_duplicates(self):
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        noisy = [(0.0, 0.0), (1.0, 0.0), (1.0 + 4e-10, 3e-10), (1.0, 1.0),
                 (0.0, 1.0), (2e-10, -1e-10)]
        for poly in (square, noisy, noisy[::-1], square[:2], []):
            assert polygon_area(poly).hex() == ref_polygon_area(poly).hex()
        assert polygon_area(noisy) != 0.5 * abs(sum(
            noisy[i][0] * noisy[(i + 1) % 6][1] - noisy[(i + 1) % 6][0] * noisy[i][1]
            for i in range(6)))
