"""Ring-based polygon math: areas, containment, and line clipping.

Polygons are stored as open rings (no repeated closing vertex): one outer
ring plus optional holes. Containment uses even-odd ray casting over all
rings, so holes fall out naturally.

Each polygon indexes its boundary edges once, lazily, in horizontal slabs
(the bucketed crossing test of Haines, "Point in Polygon Strategies",
Graphics Gems IV): a containment query walks only the slab holding its y,
and crossing tests only visit the edges near the piece or ring tested.
Every per-edge expression is the one the unindexed loop evaluates, so
results are bit-identical to testing all edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import GeometryError
from .geometry import Point2D, Polyline

__all__ = [
    "PolygonArea",
    "ring_signed_area",
    "point_in_rings",
    "clip_polyline_to_polygon",
    "ring_intersects_polygon",
]

_PARAM_EPS = 1e-12


@dataclass(frozen=True)
class PolygonArea:
    """A named polygon: outer ring first, then any holes.

    ``area``, ``bbox`` and the boundary-edge index are computed once, on
    first use.
    """

    rings: tuple[tuple[Point2D, ...], ...]
    name: str = ""

    def __post_init__(self):
        if not self.rings:
            raise GeometryError("polygon needs at least an outer ring")
        for ring in self.rings:
            if len(ring) < 3:
                raise GeometryError(f"polygon ring with fewer than 3 vertices ({self.name!r})")
        if self.area <= 0:
            raise GeometryError(f"degenerate polygon with nonpositive area ({self.name!r})")

    @cached_property
    def area(self) -> float:
        outer = abs(ring_signed_area(self.rings[0]))
        holes = sum(abs(ring_signed_area(r)) for r in self.rings[1:])
        return outer - holes

    @cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        xs = [v.x for v in self.rings[0]]
        ys = [v.y for v in self.rings[0]]
        return min(xs), min(ys), max(xs), max(ys)

    @cached_property
    def _slabs(self):
        """Boundary edges (cx, cy, dx, dy), from ring[i] to ring[i + 1], by slab.

        About sqrt(m) slabs of equal height split the outer bbox, for m
        edges over all rings. ``every[k]`` lists each edge whose y-range
        meets slab k; ``first[k]`` lists those whose y-range starts in it.
        Slab numbers come from one monotone function of y, clamped to the
        end slabs, so an edge is listed in every slab any y of its range
        maps to, whatever the rounding.
        """
        edges = [(c.x, c.y, d.x, d.y) for ring in self.rings for c, d in zip(ring, ring[1:] + ring[:1])]
        _, ymin, _, ymax = self.bbox
        n_slabs = max(1, math.isqrt(len(edges)))
        scale = n_slabs / (ymax - ymin)
        every = [[] for _ in range(n_slabs)]
        first = [[] for _ in range(n_slabs)]
        for e in edges:
            lo = _slab_of(min(e[1], e[3]), ymin, scale, n_slabs - 1)
            hi = _slab_of(max(e[1], e[3]), ymin, scale, n_slabs - 1)
            first[lo].append(e)
            for k in range(lo, hi + 1):
                every[k].append(e)
        return ymin, scale, n_slabs - 1, every, first

    def contains(self, x: float, y: float) -> bool:
        """Even-odd containment; equal to ``point_in_rings(x, y, self.rings)``."""
        ymin, scale, last, every, _ = self._slabs
        inside = False
        for cx, cy, dx, dy in every[_slab_of(y, ymin, scale, last)]:
            if (dy > y) != (cy > y):
                x_cross = dx + (cx - dx) * (y - dy) / (cy - dy)
                if x < x_cross:
                    inside = not inside
        return inside

    def edges_near(self, xmin: float, ymin: float, xmax: float, ymax: float) -> list:
        """Boundary edges (cx, cy, dx, dy) whose bbox meets the given bbox, each once."""
        y0, scale, last, every, first = self._slabs
        lo = _slab_of(ymin, y0, scale, last)
        hi = _slab_of(ymax, y0, scale, last)
        near = []
        for slab in (every[lo], *first[lo + 1 : hi + 1]):
            for e in slab:
                cx, cy, dx, dy = e
                if (
                    (cx <= xmax or dx <= xmax)
                    and (cx >= xmin or dx >= xmin)
                    and (cy <= ymax or dy <= ymax)
                    and (cy >= ymin or dy >= ymin)
                ):
                    near.append(e)
        return near


def _slab_of(y: float, y0: float, scale: float, last: int) -> int:
    k = (y - y0) * scale
    if k < 1.0:
        return 0
    return last if k >= last else int(k)


def ring_signed_area(ring) -> float:
    """Shoelace area of an open ring; positive for counterclockwise order."""
    total = 0.0
    n = len(ring)
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total / 2.0


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


def _crossing_param(ax, ay, bx, by, cx, cy, dx, dy):
    """Parameter t on AB where it properly crosses CD, or None.

    Collinear overlaps yield no parameter; the caller's midpoint
    classification decides such runs.
    """
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


def clip_polyline_to_polygon(p: Polyline, polygon: PolygonArea) -> float:
    """Length of the portion of a polyline inside a polygon.

    Each straight piece is sliced at every boundary crossing and each
    sub-piece is classified by its midpoint. Only boundary edges whose bbox
    meets the piece's bbox can cross it, so only those are tested.
    """
    pxmin, pymin, pxmax, pymax = polygon.bbox
    total = 0.0
    for a, b in zip(p.vertices, p.vertices[1:]):
        if max(a.x, b.x) < pxmin or min(a.x, b.x) > pxmax:
            continue
        if max(a.y, b.y) < pymin or min(a.y, b.y) > pymax:
            continue
        params = [0.0, 1.0]
        for cx, cy, dx, dy in polygon.edges_near(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y)):
            t = _crossing_param(a.x, a.y, b.x, b.y, cx, cy, dx, dy)
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
            if polygon.contains(mx, my):
                total += (t1 - t0) * piece_len
    return total


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


def ring_intersects_polygon(ring, polygon: PolygonArea) -> bool:
    """Whether a simple ring and a polygon share any point.

    Covers all containment arrangements: ring inside polygon, polygon
    inside ring, and boundary crossings. A ring sitting entirely inside a
    hole does not intersect. Polygon vertices and edges outside the ring's
    bbox can neither lie inside the ring nor cross it, so only the
    boundary edges near the ring (and their start vertices) are tested.
    """
    for v in ring:
        if polygon.contains(v.x, v.y):
            return True
    xs = [v.x for v in ring]
    ys = [v.y for v in ring]
    near = polygon.edges_near(min(xs), min(ys), max(xs), max(ys))
    ring_only = (tuple(ring),)
    for cx, cy, _, _ in near:
        if point_in_rings(cx, cy, ring_only):
            return True
    n = len(ring)
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        for cx, cy, dx, dy in near:
            if _segments_cross(a.x, a.y, b.x, b.y, cx, cy, dx, dy):
                return True
    return False
