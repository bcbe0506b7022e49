"""Planar geometric primitives and measures.

All coordinates live in a projected CRS with meter units. Nothing here
reprojects; callers must supply projected data. Everything is a pure
function over immutable values.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
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
    "vertex_arrays",
    "polyline_length",
    "segmentize",
    "hausdorff_distance",
    "segment_angle_deg",
    "point_to_polyline_distance",
    "point_segment_distance",
]

# Merge threshold below which a trailing cut remainder is folded into the
# previous segment, as a fraction of the requested segment length.
_REMAINDER_MERGE_FRACTION = 0.5
_LENGTH_EPS = 1e-9
# Upper bound on the elements (vertices, clip rows, or pairs of a point,
# piece or ring with a boundary edge) one block of an array pass holds; it
# caps transient memory and does not change results. Smaller than
# ``spatial._BLOCK_ELEMENTS``: these passes keep a dozen arrays per block.
_BLOCK_ELEMENTS = 1 << 12


@dataclass(frozen=True)
class Point2D:
    """A point in projected planar coordinates, meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite coordinate ({self.x}, {self.y})")


@dataclass(frozen=True)
class Polyline:
    """An ordered vertex chain with positive total length.

    Consecutive duplicate vertices are rejected; cleaning of raw input
    happens upstream, at ingestion.
    """

    vertices: tuple[Point2D, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise GeometryError("polyline needs at least 2 vertices")
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a.x == b.x and a.y == b.y:
                raise GeometryError("polyline has consecutive duplicate vertices")


@dataclass(frozen=True)
class Segment:
    """A straight piece cut from a parent polyline.

    ``start`` and ``end`` are the chord endpoints lying on the parent at
    arc positions ``offset`` and ``offset + arc_length``. For a piece that
    spans parent vertices the chord is shorter than ``arc_length``; all
    length accounting uses ``arc_length`` so that segment lengths always
    sum back to the parent length exactly.
    """

    start: Point2D
    end: Point2D
    parent_edge_id: str
    offset: float
    arc_length: float
    index: int = 0

    def __post_init__(self):
        if self.start.x == self.end.x and self.start.y == self.end.y:
            raise GeometryError(f"degenerate segment on edge {self.parent_edge_id}")
        if self.offset < 0:
            raise GeometryError("segment offset must be >= 0")
        if self.arc_length <= 0:
            raise GeometryError("segment arc_length must be > 0")

    @property
    def midpoint(self) -> Point2D:
        return Point2D((self.start.x + self.end.x) / 2.0, (self.start.y + self.end.y) / 2.0)

    @property
    def segment_id(self) -> tuple[str, int]:
        return (self.parent_edge_id, self.index)


def polyline_length(p: Polyline) -> float:
    """Total length of a polyline: sum of vertex-to-vertex distances."""
    total = 0.0
    for a, b in zip(p.vertices, p.vertices[1:]):
        total += math.hypot(b.x - a.x, b.y - a.y)
    return total


@dataclass(frozen=True, eq=False)
class VertexArrays:
    """The vertices of a list of polylines, end to end, as columns.

    Polyline e holds vertices ``first[e]`` to ``last[e]`` of (``x``, ``y``).
    Its pieces are k = ``first[e]`` to ``last[e] - 1``, each from vertex k
    to vertex k + 1, and ``step[k]`` is that piece's ``math.hypot`` length
    (the entries between two polylines are not pieces; nothing reads them).
    ``cum`` is each vertex's arc distance from its polyline's start, the
    steps summed one by one from 0.0, so ``length[e] = cum[last[e]]`` has
    the bits of ``polyline_length``.
    """

    x: np.ndarray
    y: np.ndarray
    first: np.ndarray
    last: np.ndarray
    step: np.ndarray
    cum: np.ndarray
    length: np.ndarray

    def __len__(self) -> int:
        return len(self.first)

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """(polyline, start vertex) of every piece, in polyline order."""
        return _ranges(self.first, self.last - self.first)


def vertex_arrays(polylines) -> VertexArrays:
    """The vertices of the polylines, in order, as a ``VertexArrays``."""
    polylines = list(polylines)
    n_vertices = np.array([len(p.vertices) for p in polylines], dtype=np.intp)
    total = int(n_vertices.sum())
    x = np.fromiter((v.x for p in polylines for v in p.vertices), dtype=float, count=total)
    y = np.fromiter((v.y for p in polylines for v in p.vertices), dtype=float, count=total)
    last = np.cumsum(n_vertices) - 1
    first = last - (n_vertices - 1)
    step = np.zeros(max(total - 1, 0))
    cum = np.empty(total)
    # a block of polylines at a time, so the Python floats stay few
    for e0, e1 in _blocks(n_vertices, _BLOCK_ELEMENTS):
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


def _sum_in_order(values: np.ndarray) -> float:
    """The values added one at a time from 0.0, in order, as a loop adds
    them (``sum()`` of floats is compensated from Python 3.12 on)."""
    return reduce(add, values.tolist(), 0.0)


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

    Parameters
    ----------
    p : Polyline
    seg_len : float
        Target piece length in meters, > 0.
    parent_edge_id : str
        Identifier recorded on every emitted segment.

    Returns
    -------
    list of Segment
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
    # the matcher's array kernel repeats this arithmetic bit for bit
    return math.sqrt(ex * ex + ey * ey)


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


def point_to_polyline_distance(pt: Point2D, p: Polyline) -> float:
    """Minimum distance from a point to any point of a polyline."""
    best = math.inf
    for a, b in zip(p.vertices, p.vertices[1:]):
        d = point_segment_distance(pt.x, pt.y, a.x, a.y, b.x, b.y)
        if d < best:
            best = d
    return best
