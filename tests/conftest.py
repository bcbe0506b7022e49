"""Shared fixture builders and unindexed reference implementations."""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import numpy as np
import pytest

from netqa.geometry import Point2D, Polyline, hausdorff_distance, polyline_length, segment_angle_deg
from netqa.graph import ComponentStats, NetworkEdge
from netqa.hexgrid import _SQRT3
from netqa.ingest import Dataset
from netqa.matching import MatchSummary
from netqa.polygons import _PARAM_EPS, PolygonArea, _crossing_param, _segments_cross, point_in_rings
from netqa.tags import TagShare, tag_presence


def make_edge(
    edge_id,
    coords,
    infra="protected",
    model="separate_geometry",
    direction="oneway",
    attrs=None,
):
    return NetworkEdge(
        id=str(edge_id),
        geometry=Polyline(tuple(Point2D(float(x), float(y)) for x, y in coords)),
        infra_category=infra,
        mapping_model=model,
        directionality=direction,
        attributes=dict(attrs or {}),
    )


def make_dataset(name, edge_specs):
    """edge_specs: iterable of (id, coords) or (id, coords, attrs)."""
    edges = []
    for spec in edge_specs:
        if len(spec) == 2:
            edges.append(make_edge(spec[0], spec[1]))
        else:
            edges.append(make_edge(spec[0], spec[1], attrs=spec[2]))
    return Dataset(name=name, edges=edges)


def rect_polygon(x0, y0, width, height, name="rect"):
    return PolygonArea(
        rings=(
            (
                Point2D(x0, y0),
                Point2D(x0 + width, y0),
                Point2D(x0 + width, y0 + height),
                Point2D(x0, y0 + height),
            ),
        ),
        name=name,
    )


def wobbly_polygon(n_vertices, radius=3000.0, x0=400000.0, y0=5800000.0, name="study"):
    """A star-shaped outline with many vertices, like an administrative boundary."""
    ring = []
    for i in range(n_vertices):
        t = 2.0 * math.pi * i / n_vertices
        r = radius * (1.0 + 0.2 * math.sin(5.0 * t) + 0.05 * math.sin(97.0 * t + 0.3))
        ring.append(Point2D(x0 + r * math.cos(t), y0 + r * math.sin(t)))
    return PolygonArea(rings=(tuple(ring),), name=name)


def _all_edges(polygon):
    for ring in polygon.rings:
        n = len(ring)
        for i in range(n):
            yield ring[i], ring[(i + 1) % n]


def reference_clip_polyline_to_polygon(p, polygon) -> float:
    """``clip_polyline_to_polygon`` testing every boundary edge, no index."""
    pxmin, pymin, pxmax, pymax = polygon.bbox
    total = 0.0
    for a, b in zip(p.vertices, p.vertices[1:]):
        if max(a.x, b.x) < pxmin or min(a.x, b.x) > pxmax:
            continue
        if max(a.y, b.y) < pymin or min(a.y, b.y) > pymax:
            continue
        params = [0.0, 1.0]
        for c, d in _all_edges(polygon):
            t = _crossing_param(a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y)
            if t is not None:
                params.append(t)
        params.sort()
        piece_len = math.hypot(b.x - a.x, b.y - a.y)
        for t0, t1 in zip(params, params[1:]):
            if t1 - t0 <= _PARAM_EPS:
                continue
            tm = (t0 + t1) / 2.0
            mx = a.x + tm * (b.x - a.x)
            my = a.y + tm * (b.y - a.y)
            if point_in_rings(mx, my, polygon.rings):
                total += (t1 - t0) * piece_len
    return total


def reference_ring_intersects_polygon(ring, polygon) -> bool:
    """``ring_intersects_polygon`` testing every polygon vertex and edge, no index."""
    for v in ring:
        if point_in_rings(v.x, v.y, polygon.rings):
            return True
    ring_only = (tuple(ring),)
    for poly_ring in polygon.rings:
        for v in poly_ring:
            if point_in_rings(v.x, v.y, ring_only):
                return True
    n = len(ring)
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        for c, d in _all_edges(polygon):
            if _segments_cross(a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y):
                return True
    return False


def reference_match(src, dst, cfg):
    """The scalar matcher over all pairs, no index: the arithmetic of
    ``hausdorff_distance``, ``segment_angle_deg`` and a ``** 0.5`` midpoint
    distance, keeping the least (score, target segment id).

    Returns one (segment id, matched id, midpoint distance, Hausdorff,
    angle) tuple per source segment, and the (pairs within max_dist,
    rejected by Hausdorff, rejected by angle, accepted) pair counts.
    """
    records = []
    within = rejected_h = rejected_a = 0
    for s in src:
        mid = s.midpoint
        best_key, best = None, (None, None, None, None)
        for d in dst:
            cmid = d.midpoint
            md = ((mid.x - cmid.x) ** 2 + (mid.y - cmid.y) ** 2) ** 0.5
            if md > cfg.max_dist:
                continue
            within += 1
            h = hausdorff_distance(s, d)
            if h > cfg.max_hausdorff:
                rejected_h += 1
                continue
            ang = segment_angle_deg(s, d)
            if ang > cfg.max_angle:
                rejected_a += 1
                continue
            key = (h + md + (ang / cfg.max_angle) * cfg.max_dist, d.segment_id)
            if best_key is None or key < best_key:
                best_key, best = key, (d.segment_id, md, h, ang)
        records.append((s.segment_id, *best))
    return records, (within, rejected_h, rejected_a, within - rejected_h - rejected_a)


# The accumulation loops that the clip index, ``HexGrid.sum_by_cell`` and
# ``np.bincount`` replaced, kept to hold the array code to their results bit
# for bit. Each clips through the unmemoized ``HexGrid.clip_polyline``.
# Where a loop summed a clip with ``sum()``, the sequential
# ``reduce(add, ...)`` stands in: it is what ``sum()`` of floats did up to
# Python 3.11, while 3.12 compensates.


def reference_cell_containing(grid, pt):
    """``HexGrid.cell_containing`` by scalar cube rounding."""
    s = grid.edge_len
    x = pt.x - grid.origin.x
    y = pt.y - grid.origin.y
    xf = (2.0 / 3.0) * x / s
    zf = (-x / 3.0 + _SQRT3 / 3.0 * y) / s
    yf = -xf - zf
    rx, ry, rz = round(xf), round(yf), round(zf)
    dx, dy, dz = abs(rx - xf), abs(ry - yf), abs(rz - zf)
    if dx > dy and dx > dz:
        rx = -ry - rz
    elif dy > dz:
        ry = -rx - rz
    else:
        rz = -rx - ry
    return (rx, rz) if (rx, rz) in grid.cells else None


def reference_assign_lengths(edges, grid, policy=None):
    totals = {}
    outside = 0.0
    for edge in edges:
        factor = policy.factor_for(edge) if policy is not None else 1.0
        contributions = grid.clip_polyline(edge.geometry)
        covered = reduce(add, contributions.values(), 0.0)
        gap = polyline_length(edge.geometry) - covered
        if gap > 0.0:
            outside += gap * factor
        for cell_id, length in contributions.items():
            totals[cell_id] = totals.get(cell_id, 0.0) + length * factor
    return totals, outside


def reference_tag_share(edges, spec, grid, policy=None):
    total_global = 0.0
    tagged_global = 0.0
    cell_total = {}
    cell_tagged = {}
    for edge in edges:
        factor = policy.factor_for(edge) if policy is not None else 1.0
        present = tag_presence(edge, spec)
        length = polyline_length(edge.geometry) * factor
        total_global += length
        if present:
            tagged_global += length
        for cell, clipped in grid.clip_polyline(edge.geometry).items():
            contribution = clipped * factor
            cell_total[cell] = cell_total.get(cell, 0.0) + contribution
            if present:
                cell_tagged[cell] = cell_tagged.get(cell, 0.0) + contribution
    per_cell = {
        cell: min(100.0, max(0.0, 100.0 * cell_tagged.get(cell, 0.0) / cell_total[cell]))
        for cell in sorted(cell_total)
    }
    return TagShare(
        tag_name=spec.name,
        global_pct=min(100.0, 100.0 * tagged_global / total_global) if total_global > 0 else None,
        per_cell_pct=per_cell,
    )


def reference_local_component_count(g, grid):
    per_cell = {}
    for eid in g.edges:
        edge = g.edges[eid]
        for cell_id, length in grid.clip_polyline(edge.geometry).items():
            if length > 0.0:
                per_cell.setdefault(cell_id, set()).add(edge.component_id)
    return {cell: len(comps) for cell, comps in sorted(per_cell.items())}


def reference_connected_components(g, policy=None):
    stats = []
    for cid in sorted(g.component_index):
        eids = g.component_index[cid]
        length = 0.0
        for eid in eids:
            edge = g.edges[eid]
            factor = policy.factor_for(edge) if policy is not None else 1.0
            length += polyline_length(edge.geometry) * factor
        stats.append(ComponentStats(cid, len(eids), length))
    stats.sort(key=lambda s: (-s.length_m, s.component_id))
    return stats


def reference_match_summary(records, grid):
    total_len = sum(r.segment.arc_length for r in records)
    matched = [r for r in records if r.matched is not None]
    matched_len = sum(r.segment.arc_length for r in matched)
    cell_total = {}
    cell_matched = {}
    for r in records:
        cell = reference_cell_containing(grid, r.segment.midpoint)
        if cell is None:
            continue
        cell_total[cell] = cell_total.get(cell, 0.0) + r.segment.arc_length
        if r.matched is not None:
            cell_matched[cell] = cell_matched.get(cell, 0.0) + r.segment.arc_length
    per_cell = {
        cell: min(100.0, 100.0 * cell_matched.get(cell, 0.0) / cell_total[cell])
        for cell in sorted(cell_total)
    }
    pcts = list(per_cell.values())
    return MatchSummary(
        total_segments=len(records),
        matched_segments=len(matched),
        total_length_m=total_len,
        matched_length_m=matched_len,
        pct_matched_count=100.0 * len(matched) / len(records) if records else 0.0,
        pct_matched_length=100.0 * matched_len / total_len if total_len > 0 else 0.0,
        per_cell_pct=per_cell,
        local_min_pct=min(pcts) if pcts else None,
        local_max_pct=max(pcts) if pcts else None,
        local_avg_pct=sum(pcts) / len(pcts) if pcts else None,
    )


def random_polyline(rng: np.random.Generator, n_vertices: int, scale=100.0) -> Polyline:
    steps = rng.uniform(-scale, scale, size=(n_vertices, 2))
    pts = np.cumsum(steps, axis=0)
    return Polyline(tuple(Point2D(float(x), float(y)) for x, y in pts))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[acceptance] {name}: {'PASS' if report.passed else 'FAIL'}")
