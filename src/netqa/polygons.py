"""Ring-based polygon math: areas, containment, and line clipping.

Polygons are stored as open rings (no repeated closing vertex): one outer
ring plus optional holes. Containment uses even-odd ray casting over all
rings, so holes fall out naturally.

Each polygon indexes its boundary edges once, lazily, in horizontal slabs
(the bucketed crossing test of Haines, "Point in Polygon Strategies",
Graphics Gems IV): a containment query tests only the edges of the slab
holding its y, and crossing tests only visit the edges near the piece or
ring tested. The slabs are arrays, and every query runs over a batch of
points, pieces or rings at once. Each per-edge expression is the one the
unindexed scalar loop evaluates, element by element, so results are
bit-identical to testing all edges one at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryError
from .geometry import (
    _BLOCK_ELEMENTS, Point2D, Polyline, VertexArrays, _blocks, _ranges, _sum_in_order, polyline_columns, vertex_arrays,
)

__all__ = [
    "PolygonArea",
    "ring_signed_area",
    "clip_polyline_to_polygon",
    "clip_lengths",
    "rings_intersect_polygon",
]

_PARAM_EPS = 1e-12


class _Slabs:
    """Boundary edges, from ring[i] to ring[i + 1] over all rings, listed
    by slab.

    About sqrt(m) slabs of equal height split the outer bbox, for m edges.
    The listing has two parts, each grouped by slab and in edge order
    within it: every edge whose y-range meets slab k, at entries
    ``every[k]`` to ``every[k + 1] - 1``, and every edge whose y-range
    starts in slab k, at ``starts[k]`` to ``starts[k + 1] - 1``. Each entry
    holds its edge as (``cx``, ``cy``) to (``dx``, ``dy``) and its bbox.
    Slab numbers come from one monotone function of y, clamped to the end
    slabs, so an edge is listed in every slab any y of its range maps to,
    whatever the rounding.
    """

    __slots__ = ("y0", "scale", "last", "every", "starts", "cx", "cy", "dx", "dy", "xlo", "xhi", "ylo", "yhi")

    def __init__(self, y0: float, scale: float, last: int, every, starts, cx, cy, dx, dy, xlo, xhi, ylo, yhi):
        self.y0, self.scale, self.last, self.every, self.starts = y0, scale, last, every, starts
        self.cx, self.cy, self.dx, self.dy = cx, cy, dx, dy
        self.xlo, self.xhi, self.ylo, self.yhi = xlo, xhi, ylo, yhi

    def slab_of(self, y: np.ndarray) -> np.ndarray:
        return _slab_of(y, self.y0, self.scale, self.last)

    def runs(self, ymin: np.ndarray, ymax: np.ndarray) -> tuple[tuple, tuple]:
        """(start, count) of each y-range's two runs of candidate entries: the edges listed in
        the slab of ``ymin``, then those whose y-range starts in a later slab up to that of ``ymax``."""
        lo, hi = self.slab_of(ymin), self.slab_of(ymax)
        start = (self.every[lo], self.starts[lo + 1])
        return start, (self.every[lo + 1] - start[0], self.starts[hi + 1] - start[1])


class PolygonArea:
    """A named polygon: outer ring first, then any holes.

    ``area`` and ``bbox`` are computed when it is built, the boundary-edge
    index once, on first use.
    """

    __slots__ = ("rings", "name", "area", "bbox", "_index")

    def __init__(self, rings: tuple[tuple[Point2D, ...], ...], name: str = ""):
        self.rings, self.name = rings, name
        if not self.rings:
            raise GeometryError("polygon needs at least an outer ring")
        for ring in self.rings:
            if len(ring) < 3:
                raise GeometryError(f"polygon ring with fewer than 3 vertices ({self.name!r})")
        outer = abs(ring_signed_area(self.rings[0]))
        self.area = outer - _sum_in_order([abs(ring_signed_area(r)) for r in self.rings[1:]])
        if self.area <= 0:
            raise GeometryError(f"degenerate polygon with nonpositive area ({self.name!r})")
        xs = [v.x for v in self.rings[0]]
        ys = [v.y for v in self.rings[0]]
        self.bbox = (min(xs), min(ys), max(xs), max(ys))
        self._index = None

    @property
    def _slabs(self) -> _Slabs:
        if self._index is not None:
            return self._index
        sizes = np.array([len(ring) for ring in self.rings])
        m = int(sizes.sum())
        x = np.fromiter((v.x for ring in self.rings for v in ring), dtype=float, count=m)
        y = np.fromiter((v.y for ring in self.rings for v in ring), dtype=float, count=m)
        # edge i runs from vertex i to the next vertex of its ring
        after = np.arange(1, m + 1)
        last = np.cumsum(sizes) - 1
        after[last] = last - (sizes - 1)
        cx, cy, dx, dy = x, y, x[after], y[after]
        _, ymin, _, ymax = self.bbox
        n_slabs = max(1, math.isqrt(m))
        scale = n_slabs / (ymax - ymin)
        lo = _slab_of(np.minimum(cy, dy), ymin, scale, n_slabs - 1)
        hi = _slab_of(np.maximum(cy, dy), ymin, scale, n_slabs - 1)
        edge, slab = _ranges(lo, hi - lo + 1)  # edge e in slabs lo[e] to hi[e]
        # grouped by slab, in edge order within each slab
        entry = np.concatenate(
            [edge[slab == k] for k in range(n_slabs)] + [np.flatnonzero(lo == k) for k in range(n_slabs)]
        )
        every = np.append(0, np.cumsum(np.bincount(slab, minlength=n_slabs)))
        starts = every[-1] + np.append(0, np.cumsum(np.bincount(lo, minlength=n_slabs)))
        ecx, ecy, edx, edy = cx[entry], cy[entry], dx[entry], dy[entry]
        bbox = (np.minimum(ecx, edx), np.maximum(ecx, edx), np.minimum(ecy, edy), np.maximum(ecy, edy))
        self._index = _Slabs(ymin, scale, n_slabs - 1, every, starts, ecx, ecy, edx, edy, *bbox)
        return self._index

    # an overflow gives +-inf silently, as Python's float arithmetic does
    @np.errstate(over="ignore")
    def contains_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Even-odd containment of each point (``x[i]``, ``y[i]``), over the
        edges of the slab holding its y."""
        s = self._slabs
        slab = s.slab_of(y)
        start = s.every[slab]
        count = s.every[slab + 1] - start
        inside = np.zeros(len(x), dtype=bool)
        for lo, hi in _blocks(count, _BLOCK_ELEMENTS):
            point, entry = _ranges(start[lo:hi], count[lo:hi])
            py, cy, dy = y[lo:hi][point], s.cy[entry], s.dy[entry]
            crossing = np.flatnonzero((dy > py) != (cy > py))
            point, entry, py, cy, dy = point[crossing], entry[crossing], py[crossing], cy[crossing], dy[crossing]
            dx = s.dx[entry]
            x_cross = dx + (s.cx[entry] - dx) * (py - dy) / (cy - dy)
            hits = point[x[lo:hi][point] < x_cross]
            inside[lo:hi] = np.bincount(hits, minlength=hi - lo) % 2 == 1
        return inside

    def near_pairs(self, xmin, ymin, xmax, ymax) -> tuple[np.ndarray, np.ndarray]:
        """(box, entry) index arrays: for each box in order, the boundary
        edges whose bbox meets it, each once, as entries of the slab
        listing (``_slabs``); the candidates are those of ``_Slabs.runs``.
        """
        s = self._slabs
        start, count = s.runs(ymin, ymax)
        boxes, entries = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        for b0, b1 in _blocks(count[0] + count[1], _BLOCK_ELEMENTS):
            runs = np.empty(2 * (b1 - b0), dtype=np.intp)
            runs[0::2], runs[1::2] = start[0][b0:b1], start[1][b0:b1]
            sizes = np.empty_like(runs)
            sizes[0::2], sizes[1::2] = count[0][b0:b1], count[1][b0:b1]
            _, entry = _ranges(runs, sizes)
            box = np.repeat(np.arange(b0, b1), sizes[0::2] + sizes[1::2])
            meets = np.flatnonzero(
                (s.xlo[entry] <= xmax[box])
                & (s.xhi[entry] >= xmin[box])
                & (s.ylo[entry] <= ymax[box])
                & (s.yhi[entry] >= ymin[box])
            )
            boxes.append(box[meets])
            entries.append(entry[meets])
        return np.concatenate(boxes), np.concatenate(entries)


def _slab_of(y: np.ndarray, y0: float, scale: float, last: int) -> np.ndarray:
    # slab 0 for k < 1, ``last`` for k >= last, else int(k)
    return np.floor(np.minimum(np.maximum((y - y0) * scale, 0.0), last)).astype(np.intp)


def ring_signed_area(ring) -> float:
    """Shoelace area of an open ring; positive for counterclockwise order."""
    total = 0.0
    n = len(ring)
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total / 2.0


# an overflow gives +-inf silently, as Python's float arithmetic does
@np.errstate(over="ignore")
def _cross(ax, ay, bx, by, cx, cy, dx, dy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keep, t, u) for segments AB and CD, element by element: ``keep``
    marks the non-parallel pairs, and ``t`` and ``u`` are their crossing
    parameters on AB and CD. Every array is cut down to the kept pairs."""
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    denom = rx * sy - ry * sx
    keep = denom != 0.0
    rx, ry, sx, sy, denom = rx[keep], ry[keep], sx[keep], sy[keep], denom[keep]
    qx, qy = cx[keep] - ax[keep], cy[keep] - ay[keep]
    return keep, (qx * sy - qy * sx) / denom, (qx * ry - qy * rx) / denom


def clip_lengths(v: VertexArrays, polygon: PolygonArea) -> np.ndarray:
    """Length of each polyline of ``v`` inside the polygon.

    Each straight piece is sliced at every proper boundary crossing and
    each sub-piece is classified by its midpoint. Only pieces whose bbox
    meets the polygon's can lie in it, and only boundary edges whose bbox
    meets the piece's can cross it, so only those are tested. A polyline's
    sub-pieces add up in order from 0.0, piece by piece and along each
    piece, as a loop over them does. A block of pieces holds at most
    ``_BLOCK_ELEMENTS`` pieces and candidate (piece, boundary edge) pairs,
    unless one piece has more alone.
    """
    owner, k = v.pieces()
    pxmin, pymin, pxmax, pymax = polygon.bbox
    # a piece misses the polygon's bbox when both its ends lie beyond one side
    misses = np.zeros(len(k), dtype=bool)
    for beyond in (v.x < pxmin, v.x > pxmax, v.y < pymin, v.y > pymax):
        misses |= beyond[k] & beyond[k + 1]
    hit = np.flatnonzero(~misses)
    a, b = v.y[k[hit]], v.y[k[hit] + 1]
    _, count = polygon._slabs.runs(np.minimum(a, b), np.maximum(a, b))
    edge, length = [np.empty(0, np.intp)], [np.empty(0)]
    for lo, hi in _blocks(count[0] + count[1] + 1, _BLOCK_ELEMENTS):
        piece = hit[lo:hi]
        sub, inside = _clip_pieces(v, k[piece], polygon)
        edge.append(owner[piece[sub]])
        length.append(inside)
    # bincount gives ints when there are no weights at all
    return np.bincount(np.concatenate(edge), np.concatenate(length), minlength=len(v)).astype(float, copy=False)


def _clip_pieces(v: VertexArrays, k: np.ndarray, polygon: PolygonArea) -> tuple[np.ndarray, np.ndarray]:
    """(piece, length) of the sub-pieces of pieces ``k`` of ``v`` inside the
    polygon, piece by piece and along each piece; ``piece`` indexes ``k``."""
    ax, ay, bx, by = v.x[k], v.y[k], v.x[k + 1], v.y[k + 1]
    s = polygon._slabs
    piece, edge = polygon.near_pairs(np.minimum(ax, bx), np.minimum(ay, by), np.maximum(ax, bx), np.maximum(ay, by))
    keep, t, u = _cross(ax[piece], ay[piece], bx[piece], by[piece], s.cx[edge], s.cy[edge], s.dx[edge], s.dy[edge])
    proper = (0.0 <= u) & (u <= 1.0) & (_PARAM_EPS < t) & (t < 1.0 - _PARAM_EPS)
    piece, t = piece[keep][proper], t[proper]
    # each piece's parameters 0, its crossings in ascending order, and 1;
    # piece does not decrease, so once sorted by (piece, t), crossing i goes
    # to slot i + 2 * piece[i] + 1
    order = np.lexsort((t, piece))
    n_cross = np.bincount(piece, minlength=len(k))
    base = np.cumsum(n_cross + 2) - (n_cross + 2)
    params = np.ones(len(k) * 2 + len(t))
    params[base] = 0.0
    params[np.arange(len(t)) + 2 * piece + 1] = t[order]
    # sub-piece j of a piece runs from its parameter j to parameter j + 1
    sub, j = _ranges(base, n_cross + 1)
    t0, t1 = params[j], params[j + 1]
    long_enough = t1 - t0 > _PARAM_EPS
    sub, t0, t1 = sub[long_enough], t0[long_enough], t1[long_enough]
    tm = (t0 + t1) / 2.0
    mx = ax[sub] + tm * (bx[sub] - ax[sub])
    my = ay[sub] + tm * (by[sub] - ay[sub])
    inside = polygon.contains_many(mx, my)
    sub = sub[inside]
    return sub, (t1[inside] - t0[inside]) * v.step[k[sub]]


def clip_polyline_to_polygon(p: Polyline, polygon: PolygonArea) -> float:
    """Length of the portion of a polyline inside a polygon (``clip_lengths``
    of one polyline)."""
    return float(clip_lengths(vertex_arrays(*polyline_columns([p])), polygon)[0])


# an overflow gives +-inf silently, as Python's float arithmetic does
@np.errstate(over="ignore")
def rings_intersect_polygon(x: np.ndarray, y: np.ndarray, polygon: PolygonArea) -> np.ndarray:
    """Whether each simple ring (``x[i]``, ``y[i]``), of k vertices each,
    shares any point with the polygon.

    Covers all containment arrangements, in three tests: a ring vertex
    inside the polygon, a polygon boundary edge's start vertex inside the
    ring (the polygon inside the ring), and boundary crossings. A ring
    sitting entirely inside a hole does not intersect. Polygon edges
    outside a ring's bbox can neither start inside the ring nor cross it,
    so only the boundary edges near each ring are tested, and each test
    runs only on the rings the earlier ones left open.
    """
    n, k = x.shape
    hit = polygon.contains_many(x.ravel(), y.ravel()).reshape(n, k).any(axis=1)
    s = polygon._slabs
    open_ = np.flatnonzero(~hit)
    xs, ys = x[open_], y[open_]
    ring, edge = polygon.near_pairs(xs.min(axis=1), ys.min(axis=1), xs.max(axis=1), ys.max(axis=1))
    ring = open_[ring]
    # a near edge's start vertex inside the ring (even-odd over its sides)
    px, py = s.cx[edge], s.cy[edge]
    inside = np.zeros(len(ring), dtype=bool)
    for i in range(k):
        xi, yi, xj, yj = x[ring, i], y[ring, i], x[ring, i - 1], y[ring, i - 1]
        crossing = np.flatnonzero((yi > py) != (yj > py))
        xi, yi, xj, yj = xi[crossing], yi[crossing], xj[crossing], yj[crossing]
        x_cross = xi + (xj - xi) * (py[crossing] - yi) / (yj - yi)
        inside[crossing] ^= px[crossing] < x_cross
    hit[ring[inside]] = True
    # a ring side crossing a near edge, on the rings still open
    left = ~hit[ring]
    ring, edge = ring[left], edge[left]
    for i in range(k):
        j = (i + 1) % k
        ends = (x[ring, i], y[ring, i], x[ring, j], y[ring, j])
        keep, t, u = _cross(*ends, s.cx[edge], s.cy[edge], s.dx[edge], s.dy[edge])
        hit[ring[keep][(0.0 <= t) & (t <= 1.0) & (0.0 <= u) & (u <= 1.0)]] = True
    return hit
