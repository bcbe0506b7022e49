"""Shared fixture builders and unindexed reference implementations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from netqa.geometry import Point2D, Polyline, hausdorff_distance, segment_angle_deg
from netqa.graph import NetworkEdge
from netqa.ingest import Dataset
from netqa.polygons import _PARAM_EPS, PolygonArea, _crossing_param, _segments_cross, point_in_rings


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
