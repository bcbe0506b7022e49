"""Per-cell sums over the clip index against the loops they replaced, and
the paper's invariants on generated networks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netqa.completeness import LengthPolicy, build_density_surface, infrastructure_length
from netqa.geometry import Point2D, Segment
from netqa.graph import build_graph, connected_components, local_component_count
from netqa import hexgrid
from netqa.hexgrid import assign_lengths, build_grid
from netqa.ingest import Dataset
from netqa.matching import MatchRecord, match_summary
from netqa.tags import TagSpec, tag_share

from conftest import (
    bits,
    clip,
    make_edge,
    polyline_length,
    rect_polygon,
    reference_assign_lengths,
    reference_cell_containing,
    reference_clip_polyline,
    reference_connected_components,
    reference_local_component_count,
    reference_match_summary,
    reference_tag_share,
)

POLICY = LengthPolicy.default()
SPECS = (TagSpec("surface", ("surface", "cycleway:surface")), TagSpec("nowhere", ("no_such_key",)))


def _grid(draw):
    x0, y0 = draw(st.sampled_from([(0.0, 0.0), (400000.0, 5800000.0), (-37.5, 12.25)]))
    width = draw(st.floats(200.0, 1200.0))
    height = draw(st.floats(200.0, 1200.0))
    area = draw(st.sampled_from([20000.0, 50000.0, 200000.0]))
    return build_grid(rect_polygon(x0, y0, width, height), area), (x0, y0, width, height)


def _boundary_points(grid, cell_id):
    """A cell's center, its six corners and the midpoints of its six sides:
    every point but the center lies on a boundary shared with a neighbour."""
    cell = grid.cells[cell_id]
    ring = cell.polygon
    sides = [Point2D((a.x + b.x) / 2.0, (a.y + b.y) / 2.0) for a, b in zip(ring, ring[1:] + ring[:1])]
    return [cell.center, *ring, *sides]


@st.composite
def network(draw):
    """A grid and edges: free polylines reaching up to 30% beyond the study
    area (so some leave the grid), chains along hexagon sides, lines
    through hexagon corners, and polylines that leave a cell and come back
    to it. Some edges are bidirectional centerlines (factor 2), some carry
    a surface."""
    grid, (x0, y0, width, height) = _grid(draw)
    xs = st.floats(x0 - 0.3 * width, x0 + 1.3 * width)
    ys = st.floats(y0 - 0.3 * height, y0 + 1.3 * height)
    edges = []
    for i in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["free", "sides", "corners", "return"]))
        cell = grid.cells[draw(st.sampled_from(grid.cell_ids))]
        ring = cell.polygon
        k = draw(st.integers(0, 5))
        if kind == "free":
            coords = draw(st.lists(st.tuples(xs, ys), min_size=2, max_size=4, unique=True))
        elif kind == "sides":
            coords = [(p.x, p.y) for p in (ring + ring)[k : k + draw(st.integers(2, 4))]]
        elif kind == "corners":
            # corner to opposite corner through the center, then on to the
            # corner of another cell
            other = grid.cells[draw(st.sampled_from(grid.cell_ids))].polygon[draw(st.integers(0, 5))]
            coords = [(ring[k].x, ring[k].y), (ring[k - 3].x, ring[k - 3].y), (other.x, other.y)]
        else:
            away = draw(st.tuples(xs, ys))
            back = draw(st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)))
            s = grid.edge_len
            coords = [(cell.center.x, cell.center.y), away, (cell.center.x + back[0] * s, cell.center.y + back[1] * s)]
        coords = [c for j, c in enumerate(coords) if j == 0 or c != coords[j - 1]]
        if len(coords) < 2:
            continue
        centerline = draw(st.booleans())
        edges.append(
            make_edge(
                f"e{i}",
                coords,
                model="centerline" if centerline else "separate_geometry",
                direction="bidirectional" if centerline else "oneway",
                attrs={"surface": "paved"} if draw(st.booleans()) else {},
            )
        )
    return grid, edges


@settings(max_examples=80, deadline=None)
@given(network(), st.sampled_from([1, 5, 1 << 12]))
def test_edge_cells_equal_the_scalar_clip_bit_for_bit(case, block):
    # rows in edge order, then in the order each edge first meets a cell,
    # with the scalar loop's sums; small blocks split an edge's pieces
    # across clip blocks, and group the rows a few edges at a time
    grid, edges = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hexgrid, "_BLOCK_ELEMENTS", block)
        cells = clip(grid, edges)
        one_at_a_time = [grid.clip_polyline(e.geometry) for e in edges]
    expected = [reference_clip_polyline(grid, e.geometry) for e in edges]
    rows = zip(cells.edge.tolist(), cells.cell.tolist(), cells.length.tolist())
    assert [(e, grid.cell_ids[c], v.hex()) for e, c, v in rows] == [
        (e, cell, v.hex()) for e, clip in enumerate(expected) for cell, v in clip.items()
    ]
    assert [list(bits(clip).items()) for clip in one_at_a_time] == [list(bits(clip).items()) for clip in expected]
    assert bits(cells.vertices.length.tolist()) == [polyline_length(e.geometry).hex() for e in edges]


@pytest.mark.parametrize("block", [7, 1 << 12])
def test_one_long_edge_equals_the_scalar_clip_bit_for_bit(block):
    # an edge of 2,000 vertices wandering over a few cells meets each of
    # them in hundreds of rows; small blocks split its pieces across clip
    # blocks, and its rows are grouped in one block all the same
    grid = build_grid(rect_polygon(0.0, 0.0, 600.0, 600.0), 20000.0)
    walk = np.cumsum(np.random.default_rng(7).uniform(-40.0, 40.0, size=(2000, 2)), axis=0)
    coords = np.abs((walk + 300.0) % 1200.0 - 600.0)  # folded back into the study area
    edges = [make_edge("short", [(10.0, 10.0), (590.0, 20.0)]), make_edge("long", coords.tolist())]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hexgrid, "_BLOCK_ELEMENTS", block)
        cells = clip(grid, edges)
    expected = [reference_clip_polyline(grid, e.geometry) for e in edges]
    rows = zip(cells.edge.tolist(), cells.cell.tolist(), cells.length.tolist())
    assert [(e, grid.cell_ids[c], v.hex()) for e, c, v in rows] == [
        (e, cell, v.hex()) for e, lengths in enumerate(expected) for cell, v in lengths.items()
    ]
    assert np.count_nonzero(cells.edge == 1) < 40  # the long edge's rows fold into few groups


@settings(max_examples=80, deadline=None)
@given(network())
def test_clip_index_sums_equal_the_reference_loops(case):
    grid, edges = case
    cells = clip(grid, edges)
    for policy in (None, POLICY):
        assert bits(assign_lengths(edges, cells, policy)) == bits(reference_assign_lengths(edges, grid, policy))
        for spec in SPECS:
            assert bits(tag_share(edges, spec, cells, policy)) == bits(reference_tag_share(edges, spec, grid, policy))
    g = build_graph(Dataset(name="d", edges=edges))
    assert local_component_count(g, clip(grid, g.edges)) == reference_local_component_count(g, grid)
    for policy in (None, POLICY):
        assert bits(connected_components(g, policy)) == bits(reference_connected_components(g, policy))


@st.composite
def segment_records(draw):
    """Match records whose midpoints sit on cell centers, corners and side
    midpoints (the ties of axial rounding) or anywhere near the grid."""
    grid, (x0, y0, width, height) = _grid(draw)
    half = st.sampled_from([(0.5, 0.0), (0.0, 0.25), (0.5, -0.5)])
    records = []
    for i in range(draw(st.integers(0, 30))):
        if draw(st.booleans()):
            point = draw(st.sampled_from(_boundary_points(grid, draw(st.sampled_from(grid.cell_ids)))))
            mx, my = point.x, point.y
        else:
            mx = draw(st.floats(x0 - 0.3 * width, x0 + 1.3 * width))
            my = draw(st.floats(y0 - 0.3 * height, y0 + 1.3 * height))
        dx, dy = draw(half)
        seg = Segment(Point2D(mx - dx, my - dy), Point2D(mx + dx, my + dy), f"e{i}", 0.0, draw(st.floats(1.0, 20.0)))
        records.append(MatchRecord(segment=seg, matched=seg if draw(st.booleans()) else None))
    return grid, records


@settings(max_examples=80, deadline=None)
@given(segment_records())
def test_match_summary_equals_the_reference_loop(case):
    grid, records = case
    assert bits(match_summary(records, grid)) == bits(reference_match_summary(records, grid))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cells_at_equals_scalar_cube_rounding_on_boundaries(data):
    grid, _ = _grid(data.draw)
    points = [p for cell_id in grid.cell_ids for p in _boundary_points(grid, cell_id)]
    at = grid.cells_at(np.array([p.x for p in points]), np.array([p.y for p in points]))
    assert [grid.cell_ids[i] if i >= 0 else None for i in at.tolist()] == [
        reference_cell_containing(grid, p) for p in points
    ]


def test_consumers_reject_an_index_of_other_edges():
    grid = build_grid(rect_polygon(0, 0, 1000, 1000), 200000.0)
    edges = [make_edge("a", [(100, 100), (300, 100)]), make_edge("b", [(100, 500), (300, 500)])]
    cells = clip(grid, edges[:1])
    with pytest.raises(ValueError, match="built from 1 edges, not 2"):
        assign_lengths(edges, cells)
    with pytest.raises(ValueError, match="built from 1 edges"):
        tag_share(edges, SPECS[0], cells)
    with pytest.raises(ValueError, match="built from 1 edges"):
        local_component_count(build_graph(Dataset(name="d", edges=edges)), cells)


# ------------------------------------------------------------- invariants


@st.composite
def lattice(draw):
    """A jittered street lattice over a study area, running past its edge,
    with a fifth of the streets dropped and every third street a
    bidirectional centerline."""
    grid, (x0, y0, width, height) = _grid(draw)
    step = draw(st.floats(40.0, 150.0))
    jitter = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=16))
    rnd = draw(st.randoms(use_true_random=False))
    nx = int(1.4 * width / step) + 1
    ny = int(1.4 * height / step) + 1

    def node(i, j):
        k = (i * 7 + j * 3) % len(jitter)
        return (x0 - 0.2 * width + i * step + jitter[k], y0 - 0.2 * height + j * step + jitter[-1 - k])

    edges = []
    for i in range(nx):
        for j in range(ny):
            for di, dj in ((1, 0), (0, 1)):
                if i + di < nx and j + dj < ny and rnd.random() > 0.2:
                    centerline = len(edges) % 3 == 0
                    edges.append(
                        make_edge(
                            f"s{len(edges)}",
                            [node(i, j), node(i + di, j + dj)],
                            model="centerline" if centerline else "separate_geometry",
                            direction="bidirectional" if centerline else "oneway",
                            attrs={"surface": "asphalt"} if (i + j) % 2 else {},
                        )
                    )
    return grid, edges


def _reversed(edges):
    return [
        make_edge(
            e.id,
            [(v.x, v.y) for v in reversed(e.geometry.vertices)],
            model=e.mapping_model,
            direction=e.directionality,
            attrs=e.attributes,
        )
        for e in edges
    ]


@settings(max_examples=30, deadline=None)
@given(lattice())
def test_cell_totals_and_outside_conserve_the_infrastructure_length(case):
    grid, edges = case
    totals, outside = assign_lengths(edges, clip(grid, edges), POLICY)
    total = math.fsum(infrastructure_length(e, POLICY) for e in edges)
    assert math.fsum(totals.values()) + outside == pytest.approx(total, rel=1e-9, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(lattice())
def test_reversing_every_line_keeps_density_components_and_tags(case):
    grid, edges = case
    back = _reversed(edges)
    forward_surface = build_density_surface(Dataset("f", edges), clip(grid, edges), POLICY)
    back_surface = build_density_surface(Dataset("b", back), clip(grid, back), POLICY)
    assert forward_surface.values.keys() == back_surface.values.keys()
    for cell, value in forward_surface.values.items():
        assert back_surface.values[cell] == pytest.approx(value, rel=1e-9, abs=1e-12)
    assert back_surface.outside_m == pytest.approx(forward_surface.outside_m, rel=1e-9, abs=1e-6)

    g, g_back = build_graph(Dataset("f", edges)), build_graph(Dataset("b", back))
    assert local_component_count(g, clip(grid, g.edges)) == local_component_count(
        g_back, clip(grid, g_back.edges)
    )

    for spec in SPECS:
        share = tag_share(edges, spec, clip(grid, edges), POLICY)
        share_back = tag_share(back, spec, clip(grid, back), POLICY)
        assert share.per_cell_pct.keys() == share_back.per_cell_pct.keys()
        for cell, pct in share.per_cell_pct.items():
            assert share_back.per_cell_pct[cell] == pytest.approx(pct, rel=1e-9, abs=1e-9)
        assert (share.global_pct is None) == (share_back.global_pct is None)
        if share.global_pct is not None:
            assert share_back.global_pct == pytest.approx(share.global_pct, rel=1e-9)
