import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netqa import polygons
from netqa.errors import GeometryError
from netqa.geometry import Point2D, Polyline
from netqa.hexgrid import assign_lengths, build_grid, edge_length_for_area
from netqa.polygons import PolygonArea, ring_signed_area

from conftest import (
    cell_polygon,
    clip,
    lattice_polygons,
    make_edge,
    point_in_rings,
    polyline_length,
    rect_polygon,
    reference_build_grid,
    wobbly_polygon,
)


def test_edge_length_formula():
    s = edge_length_for_area(740000.0)
    assert abs(3.0 * math.sqrt(3.0) / 2.0 * s * s - 740000.0) < 1e-6


def test_interior_cell_area_exact():
    grid = build_grid(rect_polygon(0, 0, 10000, 10000), 740000.0)
    for cell in list(grid.cells.values())[:20]:
        assert abs(abs(ring_signed_area(cell.polygon)) - 740000.0) < 1e-6
        assert point_in_rings(cell.center.x, cell.center.y, (cell.polygon,))


def test_tiny_study_area_yields_a_cell():
    grid = build_grid(rect_polygon(100, 100, 5, 5), 740000.0)
    assert len(grid.cells) >= 1


def test_degenerate_study_area_rejected():
    with pytest.raises(GeometryError):
        build_grid([], 740000.0)
    with pytest.raises(GeometryError):
        build_grid(rect_polygon(0, 0, 10, 10), -5.0)


def test_grid_deterministic():
    study = rect_polygon(0, 0, 10000, 10000)
    g1 = build_grid(study, 740000.0)
    g2 = build_grid(study, 740000.0)
    assert list(g1.cells) == list(g2.cells)
    for cid in g1.cells:
        assert g1.cells[cid].polygon == g2.cells[cid].polygon


def test_retained_count_matches_rasterization_oracle():
    study = rect_polygon(0, 0, 10000, 10000)
    grid = build_grid(study, 740000.0)
    s = grid.edge_len
    # oracle: a cell counts as intersecting iff any point of a dense point
    # raster of its hexagon lies inside the study polygon (even-odd test)
    oracle_cells = set()
    q_lo = math.floor((-s) / (1.5 * s)) - 1
    q_hi = math.ceil((10000 + s) / (1.5 * s)) + 1
    sqrt3 = math.sqrt(3.0)
    step = s / 30.0
    for q in range(q_lo, q_hi + 1):
        r_lo = math.floor((-s) / (sqrt3 * s) - q / 2.0) - 1
        r_hi = math.ceil((10000 + s) / (sqrt3 * s) - q / 2.0) + 1
        for r in range(r_lo, r_hi + 1):
            ring = cell_polygon(grid, q, r)
            xs = np.arange(min(v.x for v in ring), max(v.x for v in ring), step)
            ys = np.arange(min(v.y for v in ring), max(v.y for v in ring), step)
            hit = False
            for x in xs:
                if hit:
                    break
                for y in ys:
                    if point_in_rings(x, y, (ring,)) and point_in_rings(x, y, study.rings):
                        hit = True
                        break
            if hit:
                oracle_cells.add((q, r))
    retained = set(grid.cells)
    assert oracle_cells <= retained
    assert abs(len(retained) - len(oracle_cells)) / len(oracle_cells) <= 0.05


def test_grid_on_wobbly_outline_matches_unindexed_build():
    study = wobbly_polygon(1500)
    grid = build_grid(study, 400000.0)
    reference = reference_build_grid(study, 400000.0)
    assert list(grid.cells) == list(reference.cells)
    assert len(grid.cells) > 50


def test_cell_containing_agrees_with_polygon_test(rng):
    grid = build_grid(rect_polygon(0, 0, 5000, 5000), 500000.0)
    for _ in range(300):
        x = float(rng.uniform(500, 4500))
        y = float(rng.uniform(500, 4500))
        i = int(grid.cells_at(np.array([x]), np.array([y]))[0])
        assert i >= 0
        ring = grid.cells[grid.cell_ids[i]].polygon
        # the point must be inside (or on the boundary of) the found hexagon:
        # nearest-center metric and even-odd agree except exactly on edges
        assert point_in_rings(x, y, (ring,)) or _on_ring_boundary(x, y, ring)


def _on_ring_boundary(x, y, ring, tol=1e-9):
    from netqa.geometry import point_segment_distance

    n = len(ring)
    return any(
        point_segment_distance(x, y, ring[i].x, ring[i].y, ring[(i + 1) % n].x, ring[(i + 1) % n].y) < tol
        for i in range(n)
    )


def test_clip_edge_inside_one_cell():
    grid = build_grid(rect_polygon(0, 0, 10000, 10000), 740000.0)
    cell = grid.cells[(3, 3)]
    cx, cy = cell.center.x, cell.center.y
    edge = make_edge("e", [(cx - 400, cy), (cx + 400, cy)])
    contributions = grid.clip_polyline(edge.geometry)
    assert set(contributions) == {(3, 3)}
    assert abs(contributions[(3, 3)] - 800.0) < 1e-9


def test_clip_split_between_two_cells():
    grid = build_grid(rect_polygon(0, 0, 10000, 10000), 740000.0)
    cell = grid.cells[(3, 3)]
    boundary_y = cell.center.y + grid.apothem  # top edge, shared with (3, 4)
    edge = make_edge("e", [(cell.center.x, boundary_y - 100), (cell.center.x, boundary_y + 100)])
    contributions = grid.clip_polyline(edge.geometry)
    assert abs(contributions[(3, 3)] - 100.0) < 1e-9
    assert abs(contributions[(3, 4)] - 100.0) < 1e-9


def _discretization_oracle(edges, grid, step=0.1):
    """Bin densely sampled edge points to cells by nearest hexagon center."""
    ids = list(grid.cells)
    centers = np.array([(grid.cells[c].center.x, grid.cells[c].center.y) for c in ids])
    totals = {}
    for edge in edges:
        for a, b in zip(edge.geometry.vertices, edge.geometry.vertices[1:]):
            length = math.dist((a.x, a.y), (b.x, b.y))
            n = max(1, int(length / step))
            t = (np.arange(n) + 0.5) / n
            px = a.x + t * (b.x - a.x)
            py = a.y + t * (b.y - a.y)
            d2 = (px[:, None] - centers[None, :, 0]) ** 2 + (py[:, None] - centers[None, :, 1]) ** 2
            nearest = d2.argmin(axis=1)
            for idx, count in zip(*np.unique(nearest, return_counts=True)):
                cell = ids[idx]
                totals[cell] = totals.get(cell, 0.0) + count * (length / n)
    return totals


def test_clip_matches_discretization_oracle(rng):
    grid = build_grid(rect_polygon(0, 0, 3000, 3000), 200000.0)
    edges = []
    for i in range(200):
        x, y = rng.uniform(200, 2800, size=2)
        ang = rng.uniform(0, 2 * np.pi)
        length = rng.uniform(20, 400)
        x2 = float(np.clip(x + length * np.cos(ang), 100, 2900))
        y2 = float(np.clip(y + length * np.sin(ang), 100, 2900))
        if (x2, y2) == (x, y):
            continue
        edges.append(make_edge(f"e{i}", [(float(x), float(y)), (x2, y2)]))
    exact, outside = assign_lengths(edges, clip(grid, edges))
    oracle = _discretization_oracle(edges, grid)
    assert outside < 1e-6
    for cell in oracle:
        if oracle[cell] > 1.0:  # sub-meter slivers are dominated by step noise
            assert exact.get(cell, 0.0) == pytest.approx(oracle[cell], rel=0.005)


def test_conservation(rng):
    grid = build_grid(rect_polygon(0, 0, 3000, 3000), 200000.0)
    edges = []
    for i in range(150):
        x, y = rng.uniform(100, 2900, size=2)
        dx, dy = rng.uniform(-300, 300, size=2)
        x2 = float(np.clip(x + dx, 50, 2950))
        y2 = float(np.clip(y + dy, 50, 2950))
        if (x2, y2) == (x, y):
            continue
        edges.append(make_edge(f"e{i}", [(float(x), float(y)), (x2, y2)]))
    totals, outside = assign_lengths(edges, clip(grid, edges))
    total_in = sum(totals.values()) + outside
    total_edges = sum(polyline_length(e.geometry) for e in edges)
    assert total_in == pytest.approx(total_edges, rel=1e-3)


@pytest.mark.parametrize("x0, y0", [(0.0, 0.0), (400000.0, 5800000.0)])
def test_each_shared_side_is_attributed_to_one_cell(x0, y0):
    # a line along a side shared by two cells lies on the boundary of both;
    # it must count once, in one of them
    grid = build_grid(rect_polygon(x0, y0, 10000, 10000), 740000.0)
    sides = {}
    for cell in grid.cells.values():
        ring = cell.polygon
        for k in range(6):
            a, b = ring[k], ring[(k + 1) % 6]
            key = tuple(sorted(((round(a.x, 3), round(a.y, 3)), (round(b.x, 3), round(b.y, 3)))))
            sides.setdefault(key, []).append((a, b))
    shared = [pair[0] for pair in sides.values() if len(pair) == 2]
    assert len(shared) > 400
    for a, b in shared:
        for line in (Polyline((a, b)), Polyline((b, a))):
            length = polyline_length(line)
            assert math.isclose(sum(grid.clip_polyline(line).values()), length, rel_tol=1e-9), (a, b)


def test_assign_lengths_multiplier_and_outside(caplog):
    grid = build_grid(rect_polygon(0, 0, 1000, 1000), 200000.0)
    inside = make_edge("in", [(400, 400), (500, 400)], model="centerline", direction="bidirectional")
    far_away = make_edge("out", [(90000, 90000), (90100, 90000)])
    import logging

    with caplog.at_level(logging.WARNING):
        totals, outside = assign_lengths(
            [inside, far_away], clip(grid, [inside, far_away]), policy=_default_policy()
        )
    assert sum(totals.values()) == pytest.approx(200.0)  # 100 m * factor 2
    assert outside == pytest.approx(100.0)
    assert "outside" in caplog.text


def _default_policy():
    from netqa.completeness import LengthPolicy

    return LengthPolicy.default()


@settings(max_examples=25, deadline=None)
@given(data=st.data(), share=st.sampled_from([0.05, 0.2, 0.5]), block=st.sampled_from([1, 7, 1 << 12]))
def test_grid_equals_the_unindexed_build(data, share, block):
    # one or two lattice parts, with holes, overlapping or apart
    parts = []
    for shift in data.draw(st.lists(st.integers(-12, 12), min_size=1, max_size=2)):
        poly, unit = data.draw(lattice_polygons())
        rings = tuple(tuple(Point2D(v.x + shift * unit, v.y) for v in ring) for ring in poly.rings)
        parts.append(PolygonArea(rings=rings))
    area = share * max(p.area for p in parts)  # cells of a share of the larger part
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polygons, "_BLOCK_ELEMENTS", block)
        grid = build_grid(parts, area)
    assert list(grid.cells.items()) == list(reference_build_grid(parts, area).cells.items())


def test_cells_on_the_bottom_side_are_kept_or_dropped_as_before():
    # hexagons below the study bbox touch its bottom side along a whole
    # side; a translation by (0, 1.56e-91) drops 8 of them on the last bit.
    # The reference tests only the near edges: over every edge, a crossing
    # parameter that underflows to -0.0 keeps some of them
    for dy, n_cells in ((0.0, 128), (1.563990435803101e-91, 120)):
        study = rect_polygon(0.0, dy, 2000.0, 1000.0)
        grid = build_grid(study, 20000.0)
        assert len(grid.cells) == n_cells
        reference = reference_build_grid(study, 20000.0, near_only=True)
        assert list(grid.cells.items()) == list(reference.cells.items())
