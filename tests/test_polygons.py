import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netqa import polygons
from netqa.errors import GeometryError
from netqa.geometry import Point2D, Polyline
from netqa.polygons import (
    PolygonArea,
    clip_polyline_to_polygon,
    ring_signed_area,
    rings_intersect_polygon,
)

from conftest import (
    lattice_points,
    lattice_polygons,
    point_in_rings,
    rect_polygon,
    reference_clip_polyline_to_polygon,
    reference_ring_intersects_polygon,
)


def line(*coords):
    return Polyline(tuple(Point2D(float(x), float(y)) for x, y in coords))


def ring_intersects_polygon(ring, poly):
    # ``rings_intersect_polygon`` of a one-ring array
    x = np.array([[v.x for v in ring]], dtype=float)
    y = np.array([[v.y for v in ring]], dtype=float)
    return bool(rings_intersect_polygon(x, y, poly)[0])


def contains(poly, points):
    # ``contains_many`` of each point
    x, y = np.array(points, dtype=float).reshape(-1, 2).T
    return poly.contains_many(x, y).tolist()


def edges_near(poly, xmin, ymin, xmax, ymax):
    # ``near_pairs`` of one box, as the (cx, cy, dx, dy) of its boundary edges
    _, entry = poly.near_pairs(*(np.array([v], dtype=float) for v in (xmin, ymin, xmax, ymax)))
    s = poly._slabs
    return entry, list(zip(s.cx[entry].tolist(), s.cy[entry].tolist(), s.dx[entry].tolist(), s.dy[entry].tolist()))


def test_square_area():
    assert rect_polygon(0, 0, 10, 10).area == 100.0


def test_area_with_hole():
    outer = (Point2D(0, 0), Point2D(10, 0), Point2D(10, 10), Point2D(0, 10))
    hole = (Point2D(3, 3), Point2D(7, 3), Point2D(7, 7), Point2D(3, 7))
    poly = PolygonArea(rings=(outer, hole))
    assert poly.area == 100.0 - 16.0


def test_degenerate_polygon_rejected():
    with pytest.raises(GeometryError):
        PolygonArea(rings=((Point2D(0, 0), Point2D(1, 0), Point2D(2, 0)),))


def test_point_in_rings_with_hole():
    outer = (Point2D(0, 0), Point2D(10, 0), Point2D(10, 10), Point2D(0, 10))
    hole = (Point2D(3, 3), Point2D(7, 3), Point2D(7, 7), Point2D(3, 7))
    poly = PolygonArea(rings=(outer, hole))
    inside = poly.contains_many(np.array([1.0, 5.0, 11.0]), np.array([1.0, 5.0, 5.0]))
    assert inside.tolist() == [True, False, False]  # (5, 5) is inside the hole


def test_clip_full_crossing():
    poly = rect_polygon(0, 0, 10, 10)
    assert abs(clip_polyline_to_polygon(line((-5, 5), (15, 5)), poly) - 10.0) < 1e-9


def test_clip_outside():
    poly = rect_polygon(0, 0, 10, 10)
    assert clip_polyline_to_polygon(line((0, 20), (10, 20)), poly) == 0.0


def test_clip_half_inside():
    poly = rect_polygon(0, 0, 10, 10)
    assert abs(clip_polyline_to_polygon(line((5, 5), (5, 15)), poly) - 5.0) < 1e-9


def test_clip_respects_holes():
    outer = (Point2D(0, 0), Point2D(10, 0), Point2D(10, 10), Point2D(0, 10))
    hole = (Point2D(4, 4), Point2D(6, 4), Point2D(6, 6), Point2D(4, 6))
    poly = PolygonArea(rings=(outer, hole))
    # crosses the square and the hole: 10 total, minus 2 inside the hole
    assert abs(clip_polyline_to_polygon(line((-1, 5), (11, 5)), poly) - 8.0) < 1e-9


def test_ring_intersects_polygon_cases():
    poly = rect_polygon(0, 0, 10, 10)
    inside_ring = (Point2D(2, 2), Point2D(4, 2), Point2D(4, 4), Point2D(2, 4))
    outside_ring = (Point2D(20, 20), Point2D(22, 20), Point2D(22, 22), Point2D(20, 22))
    crossing_ring = (Point2D(8, 8), Point2D(14, 8), Point2D(14, 12), Point2D(8, 12))
    containing_ring = (Point2D(-5, -5), Point2D(15, -5), Point2D(15, 15), Point2D(-5, 15))
    assert ring_intersects_polygon(inside_ring, poly)
    assert not ring_intersects_polygon(outside_ring, poly)
    assert ring_intersects_polygon(crossing_ring, poly)
    assert ring_intersects_polygon(containing_ring, poly)


def test_ring_inside_hole_does_not_intersect():
    outer = (Point2D(0, 0), Point2D(20, 0), Point2D(20, 20), Point2D(0, 20))
    hole = (Point2D(5, 5), Point2D(15, 5), Point2D(15, 15), Point2D(5, 15))
    poly = PolygonArea(rings=(outer, hole))
    ring_in_hole = (Point2D(9, 9), Point2D(11, 9), Point2D(11, 11), Point2D(9, 11))
    assert not ring_intersects_polygon(ring_in_hole, poly)


def test_signed_area_orientation():
    ccw = (Point2D(0, 0), Point2D(1, 0), Point2D(1, 1))
    cw = tuple(reversed(ccw))
    assert ring_signed_area(ccw) == 0.5
    assert ring_signed_area(cw) == -0.5


# ------------------------------------------------ boundary-edge index
#
# The index must give exactly (==) what testing every boundary edge gives,
# on the lattice polygons and points of conftest.


def test_index_with_vertices_on_slab_boundaries():
    # 16 edges give 4 slabs of height 2 over y in [0, 8]; the zigzag puts
    # vertices and horizontal edges on every slab boundary
    ring = [Point2D(float(x), float(y)) for x, y in [(0, 0), (8, 0), (8, 2), (6, 2), (6, 4), (8, 4), (8, 6), (6, 6)]]
    ring += [Point2D(float(x), float(y)) for x, y in [(6, 8), (2, 8), (2, 6), (0, 6), (0, 4), (2, 4), (2, 2), (0, 2)]]
    poly = PolygonArea(rings=(tuple(ring),))
    assert len(edges_near(poly, *poly.bbox)[1]) == 16
    points = [(x, y) for y in [k / 2.0 for k in range(-2, 19)] for x in [k / 2.0 for k in range(-2, 19)]]
    assert contains(poly, points) == [point_in_rings(x, y, poly.rings) for x, y in points]
    for x0, y0, x1, y1 in [(-1, 2, 9, 2), (1, -1, 1, 9), (7, 6, 7, 9), (-1, -1, 9, 9), (3, 8, 5, 8)]:
        p = line((x0, y0), (x1, y1))
        assert clip_polyline_to_polygon(p, poly) == reference_clip_polyline_to_polygon(p, poly)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_indexed_contains_equals_every_edge_test(data):
    poly, unit = data.draw(lattice_polygons())
    points = data.draw(lattice_points(unit, 40))
    xmin, ymin, xmax, ymax = poly.bbox
    points += [(x, ymax) for x, _ in points[:10]] + [(x, ymin) for x, _ in points[10:20]]
    points += [(v.x, v.y) for ring in poly.rings for v in ring]
    assert contains(poly, points) == [point_in_rings(x, y, poly.rings) for x, y in points]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_edges_near_equals_every_edge_meeting_the_box(data):
    poly, unit = data.draw(lattice_polygons())
    (ax, ay), (bx, by) = data.draw(lattice_points(unit, 2))
    box = (min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))
    expected = [
        (c.x, c.y, d.x, d.y)
        for ring in poly.rings
        for c, d in zip(ring, ring[1:] + ring[:1])
        if min(c.x, d.x) <= box[2] and max(c.x, d.x) >= box[0] and min(c.y, d.y) <= box[3] and max(c.y, d.y) >= box[1]
    ]
    entry, near = edges_near(poly, *box)
    assert len(entry) == len(set(entry.tolist()))  # each entry once
    assert sorted(near) == sorted(expected)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_indexed_ring_intersects_equals_every_edge_test(data):
    poly, unit = data.draw(lattice_polygons())
    for _ in range(5):
        pts = data.draw(lattice_points(unit, data.draw(st.integers(3, 6))))
        ring = tuple(Point2D(x, y) for x, y in pts)
        assert ring_intersects_polygon(ring, poly) == reference_ring_intersects_polygon(ring, poly)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_indexed_clip_equals_every_edge_test(data):
    poly, unit = data.draw(lattice_polygons())
    for _ in range(5):
        pts = data.draw(lattice_points(unit, data.draw(st.integers(2, 5))))
        pts = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
        if len(pts) < 2:
            continue
        p = Polyline(tuple(Point2D(x, y) for x, y in pts))
        assert clip_polyline_to_polygon(p, poly) == reference_clip_polyline_to_polygon(p, poly)


@pytest.mark.parametrize("block", [7, 1 << 12])
def test_pieces_crossing_a_comb_many_times_equal_every_edge_test(block):
    # 40 teeth: each straight piece across them crosses the boundary up to
    # 80 times, in an order the clip has to sort
    ring = [(0.0, 0.0), (800.0, 0.0)]
    for i in reversed(range(40)):
        ring += [(20.0 * i + 10.0, 100.0), (20.0 * i + 10.0, 10.0), (20.0 * i, 10.0), (20.0 * i, 100.0)][: 4 if i else 2]
    comb = PolygonArea(rings=(tuple(Point2D(x, y) for x, y in ring),))
    rng = np.random.default_rng(11)
    lines = [[(-5.0, 50.0), (805.0, 55.0)], [(805.0, 20.0), (-5.0, 90.0), (805.0, 95.0)]]
    lines.append(np.column_stack([rng.uniform(-20.0, 820.0, 300), rng.uniform(-20.0, 120.0, 300)]).tolist())
    # blocks are cut by candidate pairs: no block returns more pairs than
    # the block size, unless it is one piece with more on its own
    near_pairs = PolygonArea.near_pairs
    calls = []

    def counted(self, xmin, ymin, xmax, ymax):
        pairs = near_pairs(self, xmin, ymin, xmax, ymax)
        calls.append((len(xmin), len(pairs[0])))
        return pairs

    for coords in lines:
        p = Polyline(tuple(Point2D(x, y) for x, y in coords))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polygons, "_BLOCK_ELEMENTS", block)
            mp.setattr(PolygonArea, "near_pairs", counted)
            got = clip_polyline_to_polygon(p, comb)
        assert got.hex() == reference_clip_polyline_to_polygon(p, comb).hex()
    assert calls and all(n_pairs <= block or n_pieces == 1 for n_pieces, n_pairs in calls)


# ------------------------------------------------ batch queries
#
# The batch forms hold to the loops over every boundary edge element by
# element; small blocks split the (point, edge) and (box, edge) pairs of one
# point or box across blocks.

BLOCKS = st.sampled_from([1, 7, 1 << 12])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), block=BLOCKS)
def test_contains_many_equals_every_edge_test(data, block):
    poly, unit = data.draw(lattice_polygons())
    points = data.draw(lattice_points(unit, 40)) + [(v.x, v.y) for ring in poly.rings for v in ring]
    x, y = (np.array(column, dtype=float) for column in zip(*points))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polygons, "_BLOCK_ELEMENTS", block)
        inside = poly.contains_many(x, y)
    assert inside.tolist() == [point_in_rings(px, py, poly.rings) for px, py in points]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), block=BLOCKS)
def test_near_pairs_equal_every_edge_meeting_each_box(data, block):
    poly, unit = data.draw(lattice_polygons())
    corners = data.draw(lattice_points(unit, 2 * data.draw(st.integers(1, 6))))
    boxes = [
        (min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))
        for (ax, ay), (bx, by) in zip(corners[0::2], corners[1::2])
    ]
    edges = [(c.x, c.y, d.x, d.y) for ring in poly.rings for c, d in zip(ring, ring[1:] + ring[:1])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polygons, "_BLOCK_ELEMENTS", block)
        box, entry = poly.near_pairs(*(np.array(column, dtype=float) for column in zip(*boxes)))
    s = poly._slabs
    near = list(zip(s.cx[entry].tolist(), s.cy[entry].tolist(), s.dx[entry].tolist(), s.dy[entry].tolist()))
    assert box.tolist() == sorted(box.tolist())  # grouped by box, in box order
    for i, (x0, y0, x1, y1) in enumerate(boxes):
        expected = [
            e
            for e in edges
            if min(e[0], e[2]) <= x1 and max(e[0], e[2]) >= x0 and min(e[1], e[3]) <= y1 and max(e[1], e[3]) >= y0
        ]
        assert sorted(e for b, e in zip(box.tolist(), near) if b == i) == sorted(expected)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), block=BLOCKS)
def test_batched_ring_intersects_equals_every_edge_test(data, block):
    poly, unit = data.draw(lattice_polygons())
    k = data.draw(st.integers(3, 6))
    rings = [tuple(Point2D(x, y) for x, y in data.draw(lattice_points(unit, k))) for _ in range(5)]
    x = np.array([[v.x for v in ring] for ring in rings])
    y = np.array([[v.y for v in ring] for ring in rings])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polygons, "_BLOCK_ELEMENTS", block)
        hit = rings_intersect_polygon(x, y, poly)
    assert hit.tolist() == [reference_ring_intersects_polygon(ring, poly) for ring in rings]
