import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netqa.errors import GeometryError
from netqa.geometry import Point2D, Polyline
from netqa.polygons import (
    PolygonArea,
    clip_polyline_to_polygon,
    point_in_rings,
    ring_intersects_polygon,
    ring_signed_area,
)

from conftest import rect_polygon, reference_clip_polyline_to_polygon, reference_ring_intersects_polygon


def line(*coords):
    return Polyline(tuple(Point2D(float(x), float(y)) for x, y in coords))


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
    rings = (outer, hole)
    assert point_in_rings(1, 1, rings)
    assert not point_in_rings(5, 5, rings)  # inside the hole
    assert not point_in_rings(11, 5, rings)


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
# The index must give exactly (==) what testing every boundary edge gives.
# Coordinates sit on a coarse lattice so that horizontal edges, collinear
# edges, vertices on slab boundaries and queries at y = ymax are common.

UNITS = st.sampled_from([1.0, 0.1, 37.5])


def _star_ring(angles, radii, unit):
    return tuple(
        Point2D(round(r * math.cos(math.radians(a))) * unit, round(r * math.sin(math.radians(a))) * unit)
        for a, r in zip(angles, radii)
    )


def test_index_with_vertices_on_slab_boundaries():
    # 16 edges give 4 slabs of height 2 over y in [0, 8]; the zigzag puts
    # vertices and horizontal edges on every slab boundary
    ring = [Point2D(float(x), float(y)) for x, y in [(0, 0), (8, 0), (8, 2), (6, 2), (6, 4), (8, 4), (8, 6), (6, 6)]]
    ring += [Point2D(float(x), float(y)) for x, y in [(6, 8), (2, 8), (2, 6), (0, 6), (0, 4), (2, 4), (2, 2), (0, 2)]]
    poly = PolygonArea(rings=(tuple(ring),))
    assert len(poly.edges_near(*poly.bbox)) == 16
    for y in [k / 2.0 for k in range(-2, 19)]:
        for x in [k / 2.0 for k in range(-2, 19)]:
            assert poly.contains(x, y) == point_in_rings(x, y, poly.rings)
    for x0, y0, x1, y1 in [(-1, 2, 9, 2), (1, -1, 1, 9), (7, 6, 7, 9), (-1, -1, 9, 9), (3, 8, 5, 8)]:
        p = line((x0, y0), (x1, y1))
        assert clip_polyline_to_polygon(p, poly) == reference_clip_polyline_to_polygon(p, poly)


@st.composite
def lattice_polygons(draw):
    """Star-shaped polygons on a lattice, some with a star-shaped hole."""
    unit = draw(UNITS)
    angles = sorted(draw(st.sets(st.integers(0, 359), min_size=3, max_size=60)))
    radii = draw(st.lists(st.integers(6, 12), min_size=len(angles), max_size=len(angles)))
    rings = [_star_ring(angles, radii, unit)]
    if draw(st.booleans()):
        hole_angles = sorted(draw(st.sets(st.integers(0, 359), min_size=3, max_size=12)))
        hole_radii = draw(st.lists(st.integers(1, 4), min_size=len(hole_angles), max_size=len(hole_angles)))
        rings.append(_star_ring(hole_angles, hole_radii, unit))
    try:
        return PolygonArea(rings=tuple(rings)), unit
    except GeometryError:  # rounding collapsed a ring to zero area
        return rect_polygon(-3 * unit, -2 * unit, 6 * unit, 4 * unit), unit


def lattice_points(unit, n):
    # half-lattice coordinates reaching past the polygon's bbox
    coord = st.integers(-30, 30).map(lambda k: k * unit / 2.0)
    return st.lists(st.tuples(coord, coord), min_size=n, max_size=n)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_indexed_contains_equals_every_edge_test(data):
    poly, unit = data.draw(lattice_polygons())
    points = data.draw(lattice_points(unit, 40))
    xmin, ymin, xmax, ymax = poly.bbox
    points += [(x, ymax) for x, _ in points[:10]] + [(x, ymin) for x, _ in points[10:20]]
    points += [(v.x, v.y) for ring in poly.rings for v in ring]
    for x, y in points:
        assert poly.contains(x, y) == point_in_rings(x, y, poly.rings)


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
    near = poly.edges_near(*box)
    assert len(near) == len(set(map(id, near)))  # each edge once
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
