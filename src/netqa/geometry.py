"""Planar geometric primitives and measures.

All coordinates live in a projected CRS with meter units. Nothing here
reprojects; callers must supply projected data. Everything is a pure
function over immutable values.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np

from .errors import GeometryError

__all__ = [
    "Point2D",
    "Polyline",
    "Segment",
    "VertexArrays",
    "polyline_columns",
    "vertex_arrays",
    "hausdorff_distance",
    "segment_angle_deg",
    "point_segment_distance",
    "point_segment_distances",
]

# Upper bound on the elements (vertices, clip rows, or pairs of a point,
# piece or ring with a boundary edge) one block of an array pass holds; it
# caps transient memory and does not change results. Smaller than
# ``spatial._BLOCK_ELEMENTS``: these passes keep a dozen arrays per block.
_BLOCK_ELEMENTS = 1 << 12


class Point2D:
    """A point in projected planar coordinates, meters; equal points hash alike."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GeometryError(f"non-finite coordinate ({x}, {y})")
        self.x, self.y = x, y

    def __eq__(self, other):
        if type(other) is not Point2D:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"Point2D(x={self.x!r}, y={self.y!r})"


class Polyline:
    """An ordered vertex chain with positive total length; equal chains hash alike.

    Consecutive duplicate vertices are rejected; cleaning of raw input
    happens upstream, at ingestion.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[Point2D, ...]):
        self.vertices = vertices
        if len(self.vertices) < 2:
            raise GeometryError("polyline needs at least 2 vertices")
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a.x == b.x and a.y == b.y:
                raise GeometryError("polyline has consecutive duplicate vertices")

    def __eq__(self, other):
        if type(other) is not Polyline:
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)


class Segment:
    """A straight piece cut from a parent polyline.

    ``start`` and ``end`` are the chord endpoints lying on the parent at
    arc positions ``offset`` and ``offset + arc_length``. For a piece that
    spans parent vertices the chord is shorter than ``arc_length``; all
    length accounting uses ``arc_length`` so that segment lengths always
    sum back to the parent length exactly. Segments with equal fields are equal.
    """

    __slots__ = ("start", "end", "parent_edge_id", "offset", "arc_length", "index")

    def __init__(self, start: Point2D, end: Point2D, parent_edge_id: str, offset: float, arc_length: float, index=0):
        self.start, self.end, self.parent_edge_id = start, end, parent_edge_id
        self.offset, self.arc_length, self.index = offset, arc_length, index
        if self.start.x == self.end.x and self.start.y == self.end.y:
            raise GeometryError(f"degenerate segment on edge {self.parent_edge_id}")
        if self.offset < 0:
            raise GeometryError("segment offset must be >= 0")
        if self.arc_length <= 0:
            raise GeometryError("segment arc_length must be > 0")

    def __eq__(self, other):
        if type(other) is not Segment:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self.__slots__))

    @property
    def midpoint(self) -> Point2D:
        return Point2D((self.start.x + self.end.x) / 2.0, (self.start.y + self.end.y) / 2.0)

    @property
    def segment_id(self) -> tuple[str, int]:
        return (self.parent_edge_id, self.index)


class VertexArrays:
    """The vertices of a list of polylines, end to end, as columns.

    Polyline e holds vertices ``first[e]`` to ``last[e]`` of (``x``, ``y``).
    Its pieces are k = ``first[e]`` to ``last[e] - 1``, each from vertex k
    to vertex k + 1, and ``step[k]`` is that piece's ``math.hypot`` length
    (the entries between two polylines are not pieces; nothing reads them).
    ``cum`` is each vertex's arc distance from its polyline's start, the
    steps summed one by one from 0.0, so ``length[e] = cum[last[e]]`` has
    the bits of a loop over the vertex pairs (``polyline_length`` in the
    tests' ``conftest.py``).
    """

    __slots__ = ("x", "y", "first", "last", "step", "cum", "length")

    def __init__(self, x, y, first, last, step, cum, length):
        self.x, self.y, self.first, self.last = x, y, first, last
        self.step, self.cum, self.length = step, cum, length

    def __len__(self) -> int:
        return len(self.first)

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """(polyline, start vertex) of every piece, in polyline order."""
        return _ranges(self.first, self.last - self.first)

    def polyline(self, e: int) -> Polyline:
        """Polyline e as an object."""
        lo, hi = int(self.first[e]), int(self.last[e]) + 1
        return Polyline(tuple(map(Point2D, self.x[lo:hi].tolist(), self.y[lo:hi].tolist())))


def polyline_columns(polylines) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, count) of the polylines' vertices, end to end: ``vertex_arrays``' input."""
    polylines = list(polylines)
    count = np.array([len(p.vertices) for p in polylines], dtype=np.intp)
    total = int(count.sum())
    x = np.fromiter((v.x for p in polylines for v in p.vertices), dtype=float, count=total)
    y = np.fromiter((v.y for p in polylines for v in p.vertices), dtype=float, count=total)
    return x, y, count


def vertex_arrays(x: np.ndarray, y: np.ndarray, count: np.ndarray) -> VertexArrays:
    """Polylines of ``count[e]`` vertices each, stored end to end in
    (``x``, ``y``), as a ``VertexArrays``."""
    last = np.cumsum(count) - 1
    first = last - (count - 1)
    total = len(x)
    step = np.zeros(max(total - 1, 0))
    cum = np.empty(total)
    # a block of polylines at a time, so the Python floats stay few
    for e0, e1 in _blocks(count, _BLOCK_ELEMENTS):
        v0, v1 = int(first[e0]), int(last[e1 - 1]) + 1
        steps = list(map(math.hypot, np.diff(x[v0:v1]).tolist(), np.diff(y[v0:v1]).tolist()))
        step[v0 : v1 - 1] = steps
        ranges = zip((first[e0:e1] - v0).tolist(), (last[e0:e1] - v0).tolist())
        cum[v0:v1] = [c for lo, hi in ranges for c in accumulate(steps[lo:hi], initial=0.0)]
    return VertexArrays(x, y, first, last, step, cum, cum[last])


def _ranges(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, position) of every element of the ranges ``start[i]`` to
    ``start[i] + count[i] - 1``, range by range."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) + np.repeat(start - (np.cumsum(count) - count), count)


def _sum_in_order(values) -> float:
    """The values (an array or an iterable of numbers) added one at a time
    from 0.0, in order, as a loop adds them (``sum()`` of floats is
    compensated from Python 3.12 on)."""
    return reduce(add, values.tolist() if isinstance(values, np.ndarray) else values, 0.0)


def _blocks(sizes: np.ndarray, cap: int):
    """(lo, hi) runs of consecutive items whose sizes add up to at most
    ``cap``; an item larger than ``cap`` forms a run alone."""
    ends = np.cumsum(sizes).tolist()
    lo = 0
    while lo < len(ends):
        done = ends[lo - 1] if lo else 0
        hi = max(bisect_right(ends, done + cap), lo + 1)
        yield lo, hi
        lo = hi


def point_segment_distance(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> float:
    """Distance from point (px, py) to the closed segment (a, b)."""
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    if denom == 0.0:
        ex, ey = px - ax, py - ay
    else:
        t = ((px - ax) * dx + (py - ay) * dy) / denom
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    # sqrt rather than hypot: np.sqrt rounds as math.sqrt does (IEEE), so
    # point_segment_distances repeats this arithmetic bit for bit
    return math.sqrt(ex * ex + ey * ey)


def point_segment_distances(px, py, ax, ay, bx, by) -> np.ndarray:
    """``point_segment_distance`` of each point (px, py) and its segment
    (a, b), over arrays, bit for bit: every step is an IEEE + - * / or
    sqrt, or a clip."""
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - ax) * dx + (py - ay) * dy) / denom
    # denom == 0 takes the distance to a; t = 0 gives that up to the sign
    # of a zero, which the distance ignores
    t = np.where(denom == 0.0, 0.0, np.clip(t, 0.0, 1.0))
    ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    return np.sqrt(ex * ex + ey * ey)


def hausdorff_distance(a: Segment, b: Segment) -> float:
    """Symmetric Hausdorff distance between two straight segments.

    Exact for straight segments: the distance from a point to a segment is
    convex along the other segment, so each directed Hausdorff distance is
    attained at an endpoint. The result is the maximum of the four
    endpoint-to-opposite-segment distances.
    """
    a1x, a1y, a2x, a2y = a.start.x, a.start.y, a.end.x, a.end.y
    b1x, b1y, b2x, b2y = b.start.x, b.start.y, b.end.x, b.end.y
    return max(
        point_segment_distance(a1x, a1y, b1x, b1y, b2x, b2y),
        point_segment_distance(a2x, a2y, b1x, b1y, b2x, b2y),
        point_segment_distance(b1x, b1y, a1x, a1y, a2x, a2y),
        point_segment_distance(b2x, b2y, a1x, a1y, a2x, a2y),
    )


def segment_angle_deg(a: Segment, b: Segment) -> float:
    """Undirected acute angle between two segments, in degrees.

    Folded into [0, 90]: reversing either segment's direction, or swapping
    the operands, leaves the result unchanged.
    """
    ux = a.end.x - a.start.x
    uy = a.end.y - a.start.y
    vx = b.end.x - b.start.x
    vy = b.end.y - b.start.y
    angle = math.degrees(math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy))
    if angle > 90.0:
        angle = 180.0 - angle
    return angle
