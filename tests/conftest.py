"""Shared fixture builders and unindexed reference implementations."""

from __future__ import annotations

import json
import math
import shutil
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from netqa.errors import CrsError, GeometryError, ParseError, UnsupportedGeometryError, WeightsError, ZeroVarianceError
from netqa.featureio import COORD_DECIMALS
from netqa.geometry import (
    Point2D,
    Polyline,
    Segment,
    hausdorff_distance,
    point_segment_distance,
    point_segment_distances,
    polyline_columns,
    segment_angle_deg,
    vertex_arrays,
)
from netqa.graph import ComponentStats, NetworkEdge, Undershoot
from netqa.hexgrid import _HEX_NORMALS, _SIDE_EPS, _SQRT3, HexCell, HexGrid, edge_length_for_area
from netqa.ingest import Dataset
from netqa.matching import (
    _LENGTH_EPS,
    _REMAINDER_MERGE_FRACTION,
    MatchSummary,
    _midpoints,
    _segment_ranks,
)
from netqa.polygons import _PARAM_EPS, PolygonArea
from netqa.spatial import LisaResult, MoranResult
from netqa.spindex import SLACK, BucketJoin
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


def clip(grid, edges):
    """``grid.clip_edges`` of the edges' geometries."""
    return grid.clip_edges(vertex_arrays(*polyline_columns(e.geometry for e in edges)))


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


DEMO = Path(__file__).parent / "data" / "demo"


def _polygon_feature(fid, parts):
    """A Polygon (one part) or MultiPolygon feature named ``fid``; each part
    is a list of open rings of (x, y) pairs."""
    coords = [[[[float(x), float(y)] for x, y in (*ring, ring[0])] for ring in rings] for rings in parts]
    if len(coords) == 1:
        geometry = {"type": "Polygon", "coordinates": coords[0]}
    else:
        geometry = {"type": "MultiPolygon", "coordinates": coords}
    return {"type": "Feature", "id": fid, "geometry": geometry, "properties": {"name": fid}}


def write_ragged_demo(directory: Path) -> Path:
    """A copy of the demo whose study area is a 600-vertex wobbly outline
    (some lines leave it) and whose districts are "west", a square with a
    hole whose bottom side runs along a street, and "east", two parts that
    share a side crossed by streets."""
    directory.mkdir(parents=True, exist_ok=True)
    for p in DEMO.iterdir():
        if p.is_file():
            shutil.copy(p, directory / p.name)
    outline = wobbly_polygon(600, radius=800.0, x0=1000.0, y0=500.0)
    study = [_polygon_feature("study", [[[(v.x, v.y) for v in outline.rings[0]]]])]
    districts = [
        _polygon_feature(
            "west",
            [[[(0, 0), (1000, 0), (1000, 1000), (0, 1000)], [(300, 300), (700, 300), (700, 600), (300, 600)]]],
        ),
        _polygon_feature(
            "east",
            [
                [[(1000, 0), (1500, 0), (1500, 1000), (1000, 1000)]],
                [[(1500, 0), (2000, 0), (2000, 1000), (1500, 1000)]],
            ],
        ),
    ]
    for name, features in (("study_area.geojson", study), ("districts.geojson", districts)):
        doc = {"type": "FeatureCollection", "features": features}
        (directory / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return directory


def _all_edges(polygon):
    for ring in polygon.rings:
        n = len(ring)
        for i in range(n):
            yield ring[i], ring[(i + 1) % n]


def _crossing_param(ax, ay, bx, by, cx, cy, dx, dy):
    """Parameter t on AB where it properly crosses CD, or None."""
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    denom = rx * sy - ry * sx
    if denom == 0.0:
        return None
    qx, qy = cx - ax, cy - ay
    t = (qx * sy - qy * sx) / denom
    u = (qx * ry - qy * rx) / denom
    if 0.0 <= u <= 1.0 and _PARAM_EPS < t < 1.0 - _PARAM_EPS:
        return t
    return None


def _segments_cross(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    denom = rx * sy - ry * sx
    if denom == 0.0:
        return False
    qx, qy = cx - ax, cy - ay
    t = (qx * sy - qy * sx) / denom
    u = (qx * ry - qy * rx) / denom
    return 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0


def bits(value):
    """Floats as hex, recursively, so ``==`` compares every bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(bits(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return {name: bits(getattr(value, name)) for name in value.__dataclass_fields__}
    return value


# Scalar references of netqa's array kernels, which they are held to bit
# for bit: ``segmentize`` (with ``_cumulative_lengths`` and ``_point_at``)
# of ``matching.segment_table``, ``polyline_length`` of
# ``VertexArrays.length``, ``point_in_rings`` of
# ``PolygonArea.contains_many``, ``cell_center`` and ``cell_polygon`` of
# ``hexgrid.build_grid``, ``line_feature`` with ``polyline_coords`` of
# ``graph._component_lines``, and ``point_to_polyline_distance`` of the
# undershoot search's distances.


def polyline_length(p: Polyline) -> float:
    """Total length of a polyline: sum of vertex-to-vertex distances."""
    total = 0.0
    for a, b in zip(p.vertices, p.vertices[1:]):
        total += math.hypot(b.x - a.x, b.y - a.y)
    return total


def point_to_polyline_distance(pt: Point2D, p: Polyline) -> float:
    """Minimum distance from a point to any point of a polyline."""
    best = math.inf
    for a, b in zip(p.vertices, p.vertices[1:]):
        d = point_segment_distance(pt.x, pt.y, a.x, a.y, b.x, b.y)
        if d < best:
            best = d
    return best


def _cumulative_lengths(p: Polyline) -> list[float]:
    cum = [0.0]
    for a, b in zip(p.vertices, p.vertices[1:]):
        cum.append(cum[-1] + math.hypot(b.x - a.x, b.y - a.y))
    return cum


def _point_at(p: Polyline, cum: list[float], distance: float) -> Point2D:
    """Point at arc distance along the polyline, clamped to its extent."""
    if distance <= 0:
        return p.vertices[0]
    if distance >= cum[-1]:
        return p.vertices[-1]
    # cum is sorted; find the piece containing `distance`
    lo, hi = 0, len(cum) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cum[mid] <= distance:
            lo = mid
        else:
            hi = mid
    a, b = p.vertices[lo], p.vertices[lo + 1]
    span = cum[lo + 1] - cum[lo]
    t = (distance - cum[lo]) / span
    return Point2D(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def segmentize(p: Polyline, seg_len: float, parent_edge_id: str = "") -> list[Segment]:
    """Cut a polyline into consecutive pieces of arc length ``seg_len``.

    The pieces cover the polyline in order, without gaps or overlaps. A
    trailing remainder shorter than half of ``seg_len`` is merged into the
    previous piece, so the shortest emitted piece is ``seg_len / 2``; the
    only exception is a polyline shorter than ``seg_len``, which yields a
    single piece covering all of it.
    """
    if seg_len <= 0:
        raise GeometryError(f"seg_len must be > 0, got {seg_len}")
    cum = _cumulative_lengths(p)
    total = cum[-1]

    if total <= seg_len:
        boundaries = [0.0, total]
    else:
        n_full = int(math.floor(total / seg_len + 1e-12))
        remainder = total - n_full * seg_len
        boundaries = [k * seg_len for k in range(n_full + 1)]
        if remainder <= _LENGTH_EPS or remainder < seg_len * _REMAINDER_MERGE_FRACTION:
            # exact division up to noise, or a short remainder merged into
            # the last piece; either way the final cut lands on the end
            boundaries[-1] = total
        else:
            boundaries.append(total)

    # each cut point ends one piece and starts the next
    points = [_point_at(p, cum, d) for d in boundaries]
    return [
        Segment(
            start=points[i],
            end=points[i + 1],
            parent_edge_id=parent_edge_id,
            offset=boundaries[i],
            arc_length=boundaries[i + 1] - boundaries[i],
            index=i,
        )
        for i in range(len(boundaries) - 1)
    ]


def point_in_rings(x: float, y: float, rings) -> bool:
    """Even-odd containment test across every ring."""
    inside = False
    for ring in rings:
        n = len(ring)
        j = n - 1
        for i in range(n):
            yi = ring[i].y
            yj = ring[j].y
            if (yi > y) != (yj > y):
                xi = ring[i].x
                xj = ring[j].x
                x_cross = xi + (xj - xi) * (y - yi) / (yj - yi)
                if x < x_cross:
                    inside = not inside
            j = i
    return inside


def cell_center(grid: HexGrid, q: int, r: int) -> Point2D:
    """Center of the grid's lattice cell (q, r), retained or not."""
    s = grid.edge_len
    return Point2D(grid.origin.x + 1.5 * s * q, grid.origin.y + _SQRT3 * s * (r + q / 2.0))


def cell_polygon(grid: HexGrid, q: int, r: int) -> tuple[Point2D, ...]:
    """Vertices of the grid's lattice cell (q, r), counterclockwise from the east."""
    c = cell_center(grid, q, r)
    s = grid.edge_len
    return tuple(
        Point2D(c.x + s * math.cos(math.radians(60.0 * k)), c.y + s * math.sin(math.radians(60.0 * k)))
        for k in range(6)
    )


def polyline_coords(polyline) -> list:
    return [[round(v.x, COORD_DECIMALS), round(v.y, COORD_DECIMALS)] for v in polyline.vertices]


def line_feature(coords, properties, feature_id=None) -> dict:
    feat = {"type": "Feature", "geometry": {"type": "LineString", "coordinates": coords}, "properties": properties}
    if feature_id is not None:
        feat["id"] = feature_id
    return feat


# The per-vertex line reader that ``ingest.parse_dataset`` replaced with
# columns; it is the reference that parse is held to on well-formed
# positions (ids, vertex bits, dropped count, and each error's type and
# message).


class RawFeature:
    __slots__ = ("geometry", "attributes", "source_id")

    def __init__(self, geometry: Polyline, attributes: dict, source_id: str):
        self.geometry, self.attributes, self.source_id = geometry, attributes, source_id


def _clean_coords(coords):
    points = []
    for xy in coords:
        pt = Point2D(float(xy[0]), float(xy[1]))
        if points and pt.x == points[-1].x and pt.y == points[-1].y:
            continue
        points.append(pt)
    if len(points) < 2:
        return None
    return Polyline(tuple(points))


def _looks_geographic(features) -> bool:
    saw_any = False
    for feat in features:
        for v in feat.geometry.vertices:
            saw_any = True
            if abs(v.x) > 180.0 or abs(v.y) > 90.0:
                return False
    return saw_any


def reference_parse_dataset(path) -> tuple[list[RawFeature], int]:
    """(features, dropped degenerate parts) of a line feature collection."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    features: list[RawFeature] = []
    bad_type_ids: list[str] = []
    part_ids: list[str] = []
    dropped = 0
    for i, feat in enumerate(doc["features"]):
        props = feat.get("properties") or {}
        fid = feat.get("id")
        if fid is None:
            fid = props.get("id")
        source_id = f"feature-{i}" if fid is None else str(fid)
        attributes = {str(k): str(v) for k, v in props.items() if v is not None}
        geom = feat.get("geometry") or {}
        gtype = geom.get("type")
        if gtype == "LineString":
            parts = [geom.get("coordinates", [])]
            ids = [source_id]
        elif gtype == "MultiLineString":
            parts = geom.get("coordinates", [])
            ids = [f"{source_id}#{k}" for k in range(len(parts))]
        else:
            bad_type_ids.append(source_id)
            continue
        part_ids.extend(ids)
        for part_id, coords in zip(ids, parts):
            try:
                line = _clean_coords(coords)
            except (GeometryError, TypeError, IndexError, ValueError) as exc:
                raise ParseError(path, f"feature {part_id}: {exc}") from exc
            if line is None:
                dropped += 1
                continue
            features.append(RawFeature(geometry=line, attributes=attributes, source_id=part_id))
    if bad_type_ids:
        raise UnsupportedGeometryError(path, bad_type_ids)
    duplicate_ids = [fid for fid, count in Counter(part_ids).items() if count > 1]
    if duplicate_ids:
        shown = ", ".join(duplicate_ids[:10]) + (", ..." if len(duplicate_ids) > 10 else "")
        raise ParseError(path, f"duplicate feature id(s): {shown}")
    if _looks_geographic(features):
        raise CrsError(
            f"{path}: every coordinate falls within |x|<=180, |y|<=90, which looks like "
            "lon/lat degrees. Reproject the data to a planar CRS in meters first."
        )
    return features, dropped


# The predicate evaluator that ``ClassificationRule`` replaced with
# predicates compiled when a rule is built: it walks the predicate tree
# and spells each ``equals`` and ``in`` value as text on every call.


def reference_eval_predicate(node, attributes) -> bool:
    if "all" in node:
        return all(reference_eval_predicate(c, attributes) for c in node["all"])
    if "any" in node:
        return any(reference_eval_predicate(c, attributes) for c in node["any"])
    if "not" in node:
        return not reference_eval_predicate(node["not"], attributes)
    value = attributes.get(node["key"])
    if "equals" in node:
        return value == str(node["equals"])
    if "in" in node:
        return value is not None and value in [str(v) for v in node["in"]]
    return value is not None and value != ""


# Polygons and points on a coarse lattice, so that horizontal edges,
# collinear edges, vertices on slab boundaries and queries at y = ymax are
# common.

UNITS = st.sampled_from([1.0, 0.1, 37.5])


def _star_points(angles, radii) -> list:
    """Integer lattice points at the given angles (degrees) and radii."""
    return [(round(r * math.cos(math.radians(a))), round(r * math.sin(math.radians(a)))) for a, r in zip(angles, radii)]


def _twice_lattice_area(points) -> int:
    """Twice the shoelace area of a ring of integer points, exactly."""
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1])))


@st.composite
def lattice_polygons(draw):
    """Star-shaped polygons on a lattice, some with a star-shaped hole.

    Rings are judged by their exact lattice area, not by the float area of
    their scaled vertices, which rounding can leave a little above zero for
    collinear points: a hole without area is left out, and an outer ring
    without area, or one no larger than its hole, gives way to a rectangle.
    """
    unit = draw(UNITS)
    angles = sorted(draw(st.sets(st.integers(0, 359), min_size=3, max_size=60)))
    radii = draw(st.lists(st.integers(6, 12), min_size=len(angles), max_size=len(angles)))
    rings = [_star_points(angles, radii)]
    if draw(st.booleans()):
        hole_angles = sorted(draw(st.sets(st.integers(0, 359), min_size=3, max_size=12)))
        hole_radii = draw(st.lists(st.integers(1, 4), min_size=len(hole_angles), max_size=len(hole_angles)))
        hole = _star_points(hole_angles, hole_radii)
        if _twice_lattice_area(hole) > 0:
            rings.append(hole)
    if _twice_lattice_area(rings[0]) <= sum(map(_twice_lattice_area, rings[1:])):
        return rect_polygon(-3 * unit, -2 * unit, 6 * unit, 4 * unit), unit
    return PolygonArea(rings=tuple(tuple(Point2D(i * unit, j * unit) for i, j in ring) for ring in rings)), unit


def lattice_points(unit, n):
    # half-lattice coordinates reaching past the polygon's bbox
    coord = st.integers(-30, 30).map(lambda k: k * unit / 2.0)
    return st.lists(st.tuples(coord, coord), min_size=n, max_size=n)


def _near(c, d, xmin, ymin, xmax, ymax) -> bool:
    return min(c.x, d.x) <= xmax and max(c.x, d.x) >= xmin and min(c.y, d.y) <= ymax and max(c.y, d.y) >= ymin


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


def reference_ring_intersects_polygon(ring, polygon, near_only=False) -> bool:
    """``ring_intersects_polygon`` testing every polygon vertex and edge, no
    index; with ``near_only``, the edges whose bbox meets the ring's and
    their start vertices, as the indexed test selects them."""
    for v in ring:
        if point_in_rings(v.x, v.y, polygon.rings):
            return True
    box = (min(v.x for v in ring), min(v.y for v in ring), max(v.x for v in ring), max(v.y for v in ring))
    edges = [(c, d) for c, d in _all_edges(polygon) if not near_only or _near(c, d, *box)]
    ring_only = (tuple(ring),)
    for c, _ in edges:
        if point_in_rings(c.x, c.y, ring_only):
            return True
    n = len(ring)
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        for c, d in edges:
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


def reference_match_direction(src, dst, cfg):
    """One matching direction by the per-direction array kernel: ``src``
    (a ``SegmentTable``) joined against ``dst`` by midpoint, a block of
    sources at a time, each source keeping its least (score, target
    segment id) pair. The arithmetic is the matcher's: the ``** 0.5``
    midpoint distance, ``sqrt`` Hausdorff terms, ``atan2`` angles.

    Returns the (target, midpoint distance, Hausdorff, angle) columns of a
    ``MatchTable`` with rows ``src`` and the (pairs within max_dist,
    rejected by Hausdorff, rejected by angle, accepted) pair counts.
    """
    n = len(src)
    columns = (np.full(n, -1), np.zeros(n), np.zeros(n), np.zeros(n))
    totals = [0, 0, 0, 0]
    if not (n and len(dst)):
        return columns, tuple(totals)
    dst_rank = _segment_ranks(dst)
    dst_mid = _midpoints(dst.ends)
    join = BucketJoin(*dst_mid, cfg.max_dist * (1.0 + SLACK))
    for lo in range(0, n, 2048):
        ends = src.ends[lo : lo + 2048]
        (mx, my), r = _midpoints(ends), join.side
        s, t = join.pairs(mx - r, my - r, mx + r, my + r)
        dxm, dym = mx[s] - dst_mid[0][t], my[s] - dst_mid[1][t]
        md = np.array([(u**2 + v**2) ** 0.5 for u, v in zip(dxm.tolist(), dym.tolist())], dtype=float)
        keep = md <= cfg.max_dist
        s, t, md = s[keep], t[keep], md[keep]
        within = len(s)
        a1x, a1y, a2x, a2y = ends[s].T
        b1x, b1y, b2x, b2y = dst.ends[t].T
        h = np.maximum.reduce(
            [
                point_segment_distances(a1x, a1y, b1x, b1y, b2x, b2y),
                point_segment_distances(a2x, a2y, b1x, b1y, b2x, b2y),
                point_segment_distances(b1x, b1y, a1x, a1y, a2x, a2y),
                point_segment_distances(b2x, b2y, a1x, a1y, a2x, a2y),
            ]
        )
        keep = h <= cfg.max_hausdorff
        s, t, md, h = s[keep], t[keep], md[keep], h[keep]
        ux, uy = a2x[keep] - a1x[keep], a2y[keep] - a1y[keep]
        vx, vy = b2x[keep] - b1x[keep], b2y[keep] - b1y[keep]
        cross = np.abs(ux * vy - uy * vx).tolist()
        dot = (ux * vx + uy * vy).tolist()
        ang = np.array(list(map(math.degrees, map(math.atan2, cross, dot))), dtype=float)
        ang = np.where(ang > 90.0, 180.0 - ang, ang)
        keep = ang <= cfg.max_angle
        counts = (within, within - len(h), len(h) - int(keep.sum()), int(keep.sum()))
        totals = [a + b for a, b in zip(totals, counts)]
        s, t, md, h, ang = s[keep], t[keep], md[keep], h[keep], ang[keep]
        score = h + md + (ang / cfg.max_angle) * cfg.max_dist
        order = np.lexsort((dst_rank[t], score, s))
        first = np.ones(len(order), dtype=bool)
        first[1:] = s[order[1:]] != s[order[:-1]]
        win = order[first]
        for column, values in zip(columns, (t, md, h, ang)):
            column[lo + s[win]] = values[win]
    return columns, tuple(totals)


def reference_build_grid(study_area, cell_area, near_only=False):
    """``hexgrid.build_grid`` as one ``reference_ring_intersects_polygon``
    test per candidate hexagon and part, over every boundary edge or, with
    ``near_only``, over the edges the indexed test selects."""
    parts = [study_area] if isinstance(study_area, PolygonArea) else list(study_area)
    s = edge_length_for_area(cell_area)
    xmin = min(p.bbox[0] for p in parts)
    ymin = min(p.bbox[1] for p in parts)
    xmax = max(p.bbox[2] for p in parts)
    ymax = max(p.bbox[3] for p in parts)
    proto = HexGrid(Point2D(xmin, ymin), cell_area, cells={})
    q_lo = math.floor((xmin - s - xmin) / (1.5 * s)) - 1
    q_hi = math.ceil((xmax + s - xmin) / (1.5 * s)) + 1
    cells = {}
    for q in range(q_lo, q_hi + 1):
        r_lo = math.floor((ymin - s - ymin) / (_SQRT3 * s) - q / 2.0) - 1
        r_hi = math.ceil((ymax + s - ymin) / (_SQRT3 * s) - q / 2.0) + 1
        for r in range(r_lo, r_hi + 1):
            ring = cell_polygon(proto, q, r)
            if any(reference_ring_intersects_polygon(ring, part, near_only) for part in parts):
                cells[(q, r)] = HexCell(center=cell_center(proto, q, r), polygon=ring)
    return HexGrid(proto.origin, cell_area, cells)


def reference_polygon_aggregate(edges, polygons, policy):
    """``completeness.polygon_aggregate`` as a loop over edges and parts,
    through ``reference_clip_polyline_to_polygon``. Returns
    the aggregate and whether the overlap warning fires."""
    lengths = {}
    areas = {}
    for part in polygons:
        areas[part.name] = areas.get(part.name, 0.0) + part.area
    overlap_detected = False
    for edge in edges:
        factor = policy.factor_for(edge)
        clipped_total = 0.0
        for part in polygons:
            length = reference_clip_polyline_to_polygon(edge.geometry, part)
            if length > 0.0:
                lengths[part.name] = lengths.get(part.name, 0.0) + length * factor
                clipped_total += length
        if clipped_total > polyline_length(edge.geometry) * (1.0 + 1e-6):
            overlap_detected = True
    aggregate = {
        name: {
            "length_m": lengths.get(name, 0.0),
            "area_m2": areas[name],
            "density_km_per_km2": 1000.0 * lengths.get(name, 0.0) / areas[name],
        }
        for name in sorted(areas)
    }
    return aggregate, overlap_detected


# ``HexGrid.clip_polyline`` as the scalar loop it was before the clip ran
# over arrays: each piece against each retained cell of its bbox's q and r
# ranges, one ``_reference_clip_piece_to_hex`` call each.


def _reference_candidate_cells(grid, xmin, ymin, xmax, ymax):
    s = grid.edge_len
    x0, y0 = grid.origin.x, grid.origin.y
    q_lo = math.floor((xmin - s - x0) / (1.5 * s))
    q_hi = math.ceil((xmax + s - x0) / (1.5 * s))
    for q in range(q_lo, q_hi + 1):
        r_lo = math.floor((ymin - s - y0) / (_SQRT3 * s) - q / 2.0)
        r_hi = math.ceil((ymax + s - y0) / (_SQRT3 * s) - q / 2.0)
        for r in range(r_lo, r_hi + 1):
            if (q, r) in grid.cells:
                yield q, r


def _reference_clip_piece_to_hex(ax, ay, bx, by, cx, cy, apothem) -> float:
    dx = bx - ax
    dy = by - ay
    tol = _SIDE_EPS * apothem
    near = 2.0 * tol
    t0, t1 = 0.0, 1.0
    for nx, ny in _HEX_NORMALS:
        pa = nx * (ax - cx) + ny * (ay - cy)
        pd = nx * dx + ny * dy
        if -near <= pd <= near:
            if abs(pa - apothem) <= tol and abs(pa + pd - apothem) <= tol:
                if ny > 0.0:
                    continue
                return 0.0
            if pd == 0.0:
                if pa > apothem:
                    return 0.0
                continue
        t = (apothem - pa) / pd
        if pd > 0.0:
            if t < t1:
                t1 = t
        else:
            if t > t0:
                t0 = t
        if t0 >= t1:
            return 0.0
    return (t1 - t0) * math.hypot(dx, dy)


def reference_clip_polyline(grid, p) -> dict:
    out = {}
    for a, b in zip(p.vertices, p.vertices[1:]):
        xmin, xmax = min(a.x, b.x), max(a.x, b.x)
        ymin, ymax = min(a.y, b.y), max(a.y, b.y)
        for q, r in _reference_candidate_cells(grid, xmin, ymin, xmax, ymax):
            center = grid.cells[(q, r)].center
            piece = _reference_clip_piece_to_hex(a.x, a.y, b.x, b.y, center.x, center.y, grid.apothem)
            if piece > 0.0:
                out[(q, r)] = out.get((q, r), 0.0) + piece
    return out


# The accumulation loops that the clip index, ``HexGrid.sum_by_cell`` and
# ``np.bincount`` replaced, kept to hold the array code to their results bit
# for bit. Each clips through ``reference_clip_polyline``. Where a loop
# summed a clip with ``sum()``, the sequential ``reduce(add, ...)`` stands
# in: it is what ``sum()`` of floats did up to Python 3.11, while 3.12
# compensates.


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
        contributions = reference_clip_polyline(grid, edge.geometry)
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
        for cell, clipped in reference_clip_polyline(grid, edge.geometry).items():
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
    for edge, cid in zip(g.edges, g.component.tolist()):
        for cell_id, length in reference_clip_polyline(grid, edge.geometry).items():
            if length > 0.0:
                per_cell.setdefault(cell_id, set()).add(cid)
    return {cell: len(comps) for cell, comps in sorted(per_cell.items())}


def reference_dataset_length_totals(edges, policy):
    totals = {"total_m": 0.0, "protected_m": 0.0, "unprotected_m": 0.0}
    for edge in edges:
        length = polyline_length(edge.geometry) * policy.factor_for(edge)
        totals["total_m"] += length
        totals[f"{edge.infra_category}_m"] += length
    return totals


def reference_connected_components(g, policy=None):
    edges = {edge.id: edge for edge in g.edges}
    index = g.component_index
    stats = []
    for cid in sorted(index):
        eids = index[cid]
        length = 0.0
        for eid in eids:
            edge = edges[eid]
            factor = policy.factor_for(edge) if policy is not None else 1.0
            length += polyline_length(edge.geometry) * factor
        stats.append(ComponentStats(cid, len(eids), length))
    stats.sort(key=lambda s: (-s.length_m, s.component_id))
    return stats


class ReferenceNodeTable:
    """Snaps endpoint coordinates into node ids, one endpoint at a time.

    A node keeps the location of the first endpoint that created it; later
    endpoints within the tolerance reuse the nearest, ties by node id,
    without moving it. Scans every node instead of a spatial index.
    """

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.locations: list[Point2D] = []

    def node_for(self, pt: Point2D) -> int:
        best = None
        for nid, at in enumerate(self.locations):
            d = math.hypot(at.x - pt.x, at.y - pt.y)
            if d <= self.tolerance and (best is None or (d, nid) < best):
                best = (d, nid)
        if best is not None:
            return best[1]
        self.locations.append(pt)
        return len(self.locations) - 1


def reference_snap(dataset, tolerance):
    """(node locations, node degrees, [(from node, to node) per edge]) of
    the reference table."""
    table = ReferenceNodeTable(tolerance)
    ends = [(table.node_for(e.geometry.vertices[0]), table.node_for(e.geometry.vertices[-1])) for e in dataset.edges]
    degree = [0] * len(table.locations)
    for a, b in ends:
        degree[a] += 1
        degree[b] += 1
    return table.locations, degree, ends


def reference_detect_undershoots(dataset, tolerance, threshold):
    """Each dangling node of ``reference_snap`` against every edge. Edges
    incident to the node, or to a node adjacent to it, do not qualify."""
    locations, degree, ends = reference_snap(dataset, tolerance)

    def incident(nid):
        return {e for e, pair in enumerate(ends) if nid in pair}

    out = []
    for nid, at in enumerate(locations):
        if degree[nid] != 1:
            continue
        excluded = incident(nid)
        for adj in {b if a == nid else a for a, b in map(ends.__getitem__, incident(nid))} - {nid}:
            excluded |= incident(adj)
        best = None
        for e, edge in enumerate(dataset.edges):
            if e in excluded:
                continue
            d = point_to_polyline_distance(at, edge.geometry)
            if 0.0 < d <= threshold and (best is None or (d, edge.id) < best):
                best = (d, edge.id)
        if best is not None:
            out.append(Undershoot(nid, best[1], best[0]))
    return out


def reference_match_summary(records, grid):
    total_len = reduce(add, (r.segment.arc_length for r in records), 0.0)
    matched = [r for r in records if r.matched is not None]
    matched_len = reduce(add, (r.segment.arc_length for r in matched), 0.0)
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
        local_avg_pct=reduce(add, pcts, 0.0) / len(pcts) if pcts else None,
    )


@dataclass(frozen=True)
class ReferenceWeights:
    """Weights as the dense builder stored them: one tuple per row, with
    ``s0`` and ``lag`` computed from those tuples."""

    ids: tuple
    neighbors: tuple
    weights: tuple
    scheme: str
    islands: tuple = ()

    @property
    def s0(self) -> float:
        return float(reduce(add, (reduce(add, row, 0.0) for row in self.weights), 0.0))

    def lag(self, z: np.ndarray) -> np.ndarray:
        row_idx = np.array([i for i, nbrs in enumerate(self.neighbors) for _ in nbrs], dtype=np.intp)
        col_idx = np.array([j for nbrs in self.neighbors for j in nbrs], dtype=np.intp)
        wdata = np.array([x for row in self.weights for x in row], dtype=float)
        return np.bincount(row_idx, weights=wdata * z[col_idx], minlength=len(z))


def reference_build_weights(centroids: dict, scheme: dict) -> ReferenceWeights:
    """``spatial.build_weights`` over the full n×n distance matrix: one
    ``lexsort((index, dist))`` per row for KNN, one mask per row for a band."""
    if not centroids:
        raise WeightsError("no cells to build weights over")
    ids = tuple(sorted(centroids))
    n = len(ids)
    pts = [centroids[i] for i in ids]
    coords = np.array(
        [(p.x, p.y) if hasattr(p, "x") else (p[0], p[1]) for p in pts], dtype=float
    )
    diff = coords[:, None, :] - coords[None, :, :]
    dists = np.sqrt((diff * diff).sum(axis=2))

    kind = scheme.get("scheme")
    neighbors: list[tuple[int, ...]] = []
    if kind == "knn":
        k = scheme["k"]
        if k < 1:
            raise WeightsError("knn needs k >= 1")
        if n <= k:
            raise WeightsError(f"knn with k={k} needs more than {k} cells, got {n}")
        order_idx = np.arange(n)
        for i in range(n):
            row = dists[i].copy()
            row[i] = np.inf
            picked = order_idx[np.lexsort((order_idx, row))][:k]
            neighbors.append(tuple(int(j) for j in picked))
        label = f"knn{k}"
    elif kind == "distance_band":
        d = scheme["distance_m"]
        if d <= 0:
            raise WeightsError("distance band must be > 0")
        for i in range(n):
            within = np.nonzero((dists[i] <= d) & (np.arange(n) != i))[0]
            neighbors.append(tuple(int(j) for j in within))
        label = f"band{d:g}"
    else:
        raise WeightsError(f"unknown weights scheme {kind!r}")

    weights = tuple(
        tuple(1.0 / len(nbrs) for _ in nbrs) if nbrs else () for nbrs in neighbors
    )
    islands = tuple(ids[i] for i, nbrs in enumerate(neighbors) if not nbrs)
    return ReferenceWeights(ids=ids, neighbors=tuple(neighbors), weights=weights, scheme=label, islands=islands)


# ``global_moran`` and ``local_moran`` as they were before the metrics that
# share one weights build were evaluated over one set of draws: one metric a
# call, one ``rng.permutation`` and one ``lag`` per global permutation, one
# stream and one Floyd draw per cell and call. Their helpers are copied too,
# so the copies do not move with spatial.py.

_REFERENCE_BLOCK_ELEMENTS = 1 << 16


def _reference_aligned_values(values, w):
    missing = [i for i in w.ids if i not in values]
    if missing:
        raise WeightsError(f"values missing for {len(missing)} cell(s), e.g. {missing[0]!r}")
    return np.array([values[i] for i in w.ids], dtype=float)


def _reference_moran_i(z, lag, s0):
    den = float((z * z).sum())
    return float(len(z) / s0 * (z * lag).sum() / den)


def reference_global_moran(values, w, n_perm=999, seed=0) -> MoranResult:
    v = _reference_aligned_values(values, w)
    n = len(v)
    if n < 3:
        raise WeightsError(f"global autocorrelation needs >= 3 cells, got {n}")
    z = v - v.mean()
    if float((z * z).sum()) == 0.0:
        raise ZeroVarianceError("autocorrelation undefined for constant values")
    s0 = w.s0
    if s0 == 0.0:
        raise WeightsError("every cell is an island; no autocorrelation structure")
    observed = _reference_moran_i(z, w.lag(z), s0)
    expected = -1.0 / (n - 1)

    rng = np.random.default_rng(seed)
    extreme = 0
    threshold = abs(observed - expected)
    for _ in range(n_perm):
        zp = rng.permutation(z)
        sim = _reference_moran_i(zp, w.lag(zp), s0)
        if abs(sim - expected) >= threshold:
            extreme += 1
    pseudo_p = (extreme + 1.0) / (n_perm + 1.0)
    return MoranResult(
        i=observed,
        expected_i=expected,
        pseudo_p=pseudo_p,
        n_permutations=n_perm,
        seed=seed,
        n=n,
        scheme=w.scheme,
    )


def _reference_quadrant(z_i, lag_i):
    if z_i > 0:
        return "HH" if lag_i > 0 else "HL"
    return "LH" if lag_i > 0 else "LL"


def _reference_sample_others(u, n, cells):
    k = len(u)
    picks = np.empty(u.shape, dtype=np.intp)
    for s in range(k):
        top = n - 1 - k + s
        t = (u[s] * (top + 1)).astype(np.intp)
        taken = (picks[:s] == t).any(axis=0)
        picks[s] = np.where(taken, top, t)
    picks += picks >= cells[:, None]
    return picks


def reference_local_moran(values, w, n_perm=999, seed=0, alpha=0.05) -> LisaResult:
    if n_perm < 1:
        raise ValueError(f"local autocorrelation needs n_perm >= 1, got {n_perm}")
    v = _reference_aligned_values(values, w)
    n = len(v)
    if n < 3:
        raise WeightsError(f"local autocorrelation needs >= 3 cells, got {n}")
    z = v - v.mean()
    den = float((z * z).sum())
    if den == 0.0:
        raise ZeroVarianceError("autocorrelation undefined for constant values")
    lag = w.lag(z)
    local = (n - 1) * z * lag / den

    degrees = w.degrees
    pvals = np.ones(n)
    for degree in sorted(set(degrees.tolist()) - {0}):
        cells = np.nonzero(degrees == degree)[0]
        block = max(1, _REFERENCE_BLOCK_ELEMENTS // (n_perm * degree))
        for lo in range(0, len(cells), block):
            idx = cells[lo : lo + block]
            u = np.empty((len(idx), degree, n_perm))
            for row, i in zip(u, idx):
                rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(int(i),)))
                rng.random(out=row)
            draw = _reference_sample_others(u.transpose(1, 0, 2), n, idx)
            sim_lag = z[draw[0]]
            for picked in draw[1:]:
                sim_lag += z[picked]
            sim_lag /= degree
            sims = (n - 1) * z[idx, None] * sim_lag / den
            tail = (sims >= local[idx, None]).sum(axis=1)
            tail = np.minimum(tail, n_perm - tail)
            pvals[idx] = (tail + 1.0) / (n_perm + 1.0)

    ids = w.ids
    return LisaResult(
        local_i={ids[i]: float(local[i]) for i in range(n)},
        quadrant={ids[i]: _reference_quadrant(z[i], lag[i]) for i in range(n)},
        pseudo_p={ids[i]: float(pvals[i]) for i in range(n)},
        significant={ids[i]: bool(pvals[i] < alpha and degrees[i] > 0) for i in range(n)},
        alpha=alpha,
        n_permutations=n_perm,
        seed=seed,
        scheme=w.scheme,
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
