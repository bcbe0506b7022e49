"""Planar hexagonal lattice for local metric aggregation.

A self-contained flat-top hexagon lattice in axial (q, r) coordinates,
anchored at the lower-left corner of the study area's bounding box. All
cells are congruent regular hexagons with exactly the configured area, so
per-cell densities are directly comparable. Line lengths are attributed to
cells by exact segment-against-hexagon clipping (a Liang-Barsky parametric
clip against six half-planes), which keeps the summed per-cell lengths
equal to the input lengths to floating-point precision. The clip runs over
arrays of (piece, candidate cell) rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import _BLOCK_ELEMENTS, Point2D, Polyline, VertexArrays, _blocks, _ranges, _sum_in_order, vertex_arrays
from .polygons import PolygonArea, rings_intersect_polygon

log = logging.getLogger(__name__)

__all__ = ["HexCell", "HexGrid", "EdgeCells", "build_grid", "assign_lengths", "DEFAULT_CELL_AREA"]

# Matches an average cell of roughly 0.74 km².
DEFAULT_CELL_AREA = 740000.0

_SQRT3 = math.sqrt(3.0)
# Outward unit normals of a flat-top hexagon's six edges.
_HEX_NORMALS = tuple(
    (math.cos(math.radians(30.0 + 60.0 * k)), math.sin(math.radians(30.0 + 60.0 * k))) for k in range(6)
)
# A piece whose ends both lie within this fraction of the apothem of a
# side's line lies on that side.
_SIDE_EPS = 1e-9


@dataclass(frozen=True)
class HexCell:
    center: Point2D
    polygon: tuple[Point2D, ...]


class HexGrid:
    """Flat-top hexagon lattice clipped to a study area.

    Cell ids are axial (q, r) pairs. The lattice is fully determined by
    the anchor origin and the cell area, so identical inputs rebuild an
    identical grid.
    """

    def __init__(self, origin: Point2D, cell_area: float, cells: dict[tuple[int, int], HexCell]):
        self.origin = origin
        self.cell_area = cell_area
        self.edge_len = edge_length_for_area(cell_area)
        self.apothem = self.edge_len * _SQRT3 / 2.0
        self.cells = cells
        self.cell_ids = sorted(cells)
        # dense (q - q0, r - r0) -> position in cell_ids, -1 where no cell is retained
        qs = [q for q, _ in self.cell_ids]
        rs = [r for _, r in self.cell_ids]
        self._q0, self._r0 = min(qs, default=0), min(rs, default=0)
        shape = (max(qs, default=-1) + 1 - self._q0, max(rs, default=-1) + 1 - self._r0)
        self._table = np.full(shape, -1, dtype=np.intp)
        self._table[np.array(qs, dtype=np.intp) - self._q0, np.array(rs, dtype=np.intp) - self._r0] = range(len(qs))
        self._center_x = np.array([cells[c].center.x for c in self.cell_ids], dtype=float)
        self._center_y = np.array([cells[c].center.y for c in self.cell_ids], dtype=float)

    @property
    def signature(self) -> tuple:
        return (self.origin.x, self.origin.y, self.cell_area, len(self.cells))

    def cell_center(self, q: int, r: int) -> Point2D:
        s = self.edge_len
        return Point2D(
            self.origin.x + 1.5 * s * q,
            self.origin.y + _SQRT3 * s * (r + q / 2.0),
        )

    def cell_polygon(self, q: int, r: int) -> tuple[Point2D, ...]:
        c = self.cell_center(q, r)
        s = self.edge_len
        return tuple(
            Point2D(c.x + s * math.cos(math.radians(60.0 * k)), c.y + s * math.sin(math.radians(60.0 * k)))
            for k in range(6)
        )

    def cells_at(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Position in ``cell_ids`` of the retained cell holding each point, or -1
        (cube rounding; ``np.rint`` rounds half to even, as ``round`` does)."""
        x = x - self.origin.x
        qf = (2.0 / 3.0) * x / self.edge_len
        rf = (-x / 3.0 + _SQRT3 / 3.0 * (y - self.origin.y)) / self.edge_len
        frac = np.stack([rf, -qf - rf, qf])
        r, s, q = rounded = np.rint(frac)
        # re-derive the coordinate rounded furthest; ties go to r, then s
        worst = np.argmax(np.abs(rounded - frac), axis=0)
        q = np.where(worst == 2, -r - s, q)
        r = np.where(worst == 0, -q - s, r)
        # the retained cells' positions, from the dense table
        q = q.astype(np.intp) - self._q0
        r = r.astype(np.intp) - self._r0
        nq, nr = self._table.shape
        on = (q >= 0) & (q < nq) & (r >= 0) & (r < nr)
        out = np.full(len(q), -1, dtype=np.intp)
        out[on] = self._table[q[on], r[on]]
        return out

    def sum_by_cell(self, cell: np.ndarray, weights: np.ndarray | None = None) -> dict:
        """{cell id: sum of its rows' positive weights, or count}, ascending; adds in row order."""
        sums = np.bincount(cell, weights, minlength=len(self.cell_ids))
        touched = np.flatnonzero(sums).tolist()
        return dict(zip([self.cell_ids[i] for i in touched], sums[touched].tolist()))

    def clip_polyline(self, p: Polyline) -> dict[tuple[int, int], float]:
        """Length of the polyline inside each retained cell (``clip_edges``
        of one polyline).

        Only cells receiving positive length appear in the result, in the
        order the pieces first meet them.
        """
        _, cell, length = self._clip(vertex_arrays([p]))
        return dict(zip([self.cell_ids[c] for c in cell.tolist()], length.tolist()))

    def clip_edges(self, vertices: VertexArrays) -> EdgeCells:
        """Clip each polyline of ``vertices``, the edges' geometries as
        ``Dataset.vertices`` holds them, once, into the rows of an ``EdgeCells``."""
        return EdgeCells(self, vertices, *self._clip(vertices))

    def _clip(self, v: VertexArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(edge, cell, length) rows of the polylines of ``v``, as ``EdgeCells``
        holds them.

        Each piece is clipped against every retained cell in the q and r
        ranges of its bbox, q then r ascending, as one row each. A row's
        length is ``(t1 - t0) * step`` of its piece. Positive rows add up per
        (edge, cell) in row order, from 0.0, and the sums come out in the
        order each edge's pieces first meet the cells.
        """
        owner, k = v.pieces()
        empty = (np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))
        edge, cell, length = (np.concatenate(col) for col in zip(empty, *self._clip_pieces(v, owner, k)))
        # a group never spans edges, so blocks of whole edges sum alike
        counts = np.bincount(edge, minlength=len(v))
        stop = np.cumsum(counts)
        sums = [empty]
        for e0, e1 in _blocks(counts, _BLOCK_ELEMENTS):
            lo, hi = stop[e0] - counts[e0], stop[e1 - 1]
            sums.append(self._sum_groups(edge[lo:hi], cell[lo:hi], length[lo:hi]))
        return tuple(np.concatenate(col) for col in zip(*sums))

    def _sum_groups(self, edge, cell, length):
        """(edge, cell, length) of each (edge, cell) group of rows, in order of
        its first row; a group's lengths add up in row order, from 0.0."""
        # edge does not decrease, so a stable sort by (edge, cell) lines up
        # each group's rows in row order
        key = edge * len(self.cell_ids) + cell
        order = np.argsort(key, kind="stable")
        key = key[order]
        change = np.ones(len(key), dtype=bool)
        change[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(change)
        head = order[starts]  # each group's first row, groups in key order
        is_first = np.zeros(len(key), dtype=bool)
        is_first[head] = True
        first = np.flatnonzero(is_first)
        number = np.empty(len(key), dtype=np.intp)
        number[first] = np.arange(len(first))
        group = np.empty(len(key), dtype=np.intp)
        group[order] = np.repeat(number[head], np.diff(np.append(starts, len(key))))
        # bincount gives ints when there are no weights at all
        return edge[first], cell[first], np.bincount(group, length, minlength=len(first)).astype(float, copy=False)

    def _clip_pieces(self, v, owner, k) -> list:
        """Positive (edge, cell, length) rows of pieces ``k``, block by block."""
        s = self.edge_len
        x0, y0 = self.origin.x, self.origin.y
        ax, ay, bx, by = v.x[k], v.y[k], v.x[k + 1], v.y[k + 1]
        nq, nr = self._table.shape
        # the candidate ranges, cut to the table's; cells outside it are not retained
        q_lo = np.maximum(np.floor((np.minimum(ax, bx) - s - x0) / (1.5 * s)), self._q0)
        q_hi = np.minimum(np.ceil((np.maximum(ax, bx) + s - x0) / (1.5 * s)), self._q0 + nq - 1)
        r_base_lo = (np.minimum(ay, by) - s - y0) / (_SQRT3 * s)
        r_base_hi = (np.maximum(ay, by) + s - y0) / (_SQRT3 * s)
        n_q = np.maximum(q_hi - q_lo + 1, 0).astype(np.intp)
        # at most this many candidate rows per piece, for cutting blocks
        bound = n_q * (np.minimum(np.maximum(r_base_hi - r_base_lo, 0.0), nr) + 3).astype(np.intp)
        return [
            self._clip_block(v, k[lo:hi], owner[lo:hi], q_lo[lo:hi], n_q[lo:hi], r_base_lo[lo:hi], r_base_hi[lo:hi])
            for lo, hi in _blocks(bound, _BLOCK_ELEMENTS)
        ]

    def _clip_block(self, v, k, owner, q_lo, n_q, r_base_lo, r_base_hi):
        """Positive (edge, cell, length) rows of pieces ``k``, in row order."""
        nr = self._table.shape[1]
        piece, q = _ranges(q_lo.astype(np.intp), n_q)
        r_lo = np.maximum(np.floor(r_base_lo[piece] - q / 2.0), self._r0).astype(np.intp)
        r_hi = np.minimum(np.ceil(r_base_hi[piece] - q / 2.0), self._r0 + nr - 1).astype(np.intp)
        column, r = _ranges(r_lo, np.maximum(r_hi - r_lo + 1, 0))
        piece, q = piece[column], q[column]
        cell = self._table[q - self._q0, r - self._r0]
        piece, cell = piece[cell >= 0], cell[cell >= 0]
        t0, t1 = self._clip_rows(v, k[piece], cell)
        length = (t1 - t0) * v.step[k[piece]]
        keep = length > 0.0
        return owner[piece[keep]], cell[keep], length[keep]

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def _clip_rows(self, v, k, cell):
        """(t0, t1) of piece k of ``v`` inside each cell; t0 >= t1 where the
        piece misses the cell.

        Sides are half-open: a piece lying on a side counts only where the
        side's outward normal points up (its three upper sides), so of the
        two cells sharing a side exactly one gets the piece. Each row runs
        the scalar clip's expressions; a row whose scalar clip would stop
        early is set to (1, 0), and an overflow gives +-inf as Python's
        floats do.
        """
        ex, ey = v.x[k] - self._center_x[cell], v.y[k] - self._center_y[cell]
        dx, dy = v.x[k + 1] - v.x[k], v.y[k + 1] - v.y[k]
        apothem = self.apothem
        tol = _SIDE_EPS * apothem
        near = 2.0 * tol  # a piece on a side moves at most this far across its line
        t0, t1 = np.zeros(len(k)), np.ones(len(k))
        for nx, ny in _HEX_NORMALS:
            pa = nx * ex + ny * ey
            pd = nx * dx + ny * dy
            t = (apothem - pa) / pd
            flat = np.flatnonzero((-near <= pd) & (pd <= near))
            if len(flat):
                on_side = (np.abs(pa[flat] - apothem) <= tol) & (np.abs(pa[flat] + pd[flat] - apothem) <= tol)
                parallel = ~on_side & (pd[flat] == 0.0)
                # off the cell: on a lower side, or parallel outside a side
                out = flat[(on_side & (ny <= 0.0)) | (parallel & (pa[flat] > apothem))]
                t0[out], t1[out] = 1.0, 0.0
                t[flat[on_side]] = np.nan  # cuts neither end
            t1 = np.where((pd > 0.0) & (t < t1), t, t1)
            t0 = np.where((pd < 0.0) & (t > t0), t, t0)
        return t0, t1


@dataclass(frozen=True)
class EdgeCells:
    """Edges clipped against a grid. Row k: edge ``edge[k]`` has length ``length[k]`` > 0
    in cell ``cell[k]`` (a position in ``grid.cell_ids``). Rows run in edge order, then in
    the order the clip first meets each cell, so per-cell sums add as a loop over edges does.
    ``vertices`` are the edges' geometries the rows were clipped from."""

    grid: HexGrid
    vertices: VertexArrays
    edge: np.ndarray
    cell: np.ndarray
    length: np.ndarray

    def check(self, edges) -> None:
        if len(edges) != len(self.vertices):
            raise ValueError(f"clip index was built from {len(self.vertices)} edges, not {len(edges)}")


def edge_length_for_area(cell_area: float) -> float:
    if cell_area <= 0 or not math.isfinite(cell_area):
        raise GeometryError(f"cell_area must be positive and finite, got {cell_area}")
    return math.sqrt(2.0 * cell_area / (3.0 * _SQRT3))


def build_grid(study_area, cell_area: float = DEFAULT_CELL_AREA) -> HexGrid:
    """Tile the study area's bounding box and keep intersecting cells.

    Parameters
    ----------
    study_area : PolygonArea or sequence of PolygonArea
        Study delimitation; a cell is retained iff its hexagon intersects
        any part.
    cell_area : float
        Exact area of every cell in square meters.
    """
    parts = [study_area] if isinstance(study_area, PolygonArea) else list(study_area)
    if not parts:
        raise GeometryError("study area has no polygon parts")
    s = edge_length_for_area(cell_area)
    xmin = min(p.bbox[0] for p in parts)
    ymin = min(p.bbox[1] for p in parts)
    xmax = max(p.bbox[2] for p in parts)
    ymax = max(p.bbox[3] for p in parts)
    origin = Point2D(xmin, ymin)

    # probe one candidate row/column beyond the bbox so boundary-straddling
    # hexagons are not missed
    q = np.arange(math.floor((xmin - s - xmin) / (1.5 * s)) - 1, math.ceil((xmax + s - xmin) / (1.5 * s)) + 2)
    r_lo = (np.floor((ymin - s - ymin) / (_SQRT3 * s) - q / 2.0) - 1).astype(np.intp)
    r_hi = (np.ceil((ymax + s - ymin) / (_SQRT3 * s) - q / 2.0) + 1).astype(np.intp)
    column, r = _ranges(r_lo, r_hi - r_lo + 1)
    q = q[column]
    # HexGrid.cell_center and cell_polygon, for every candidate at once
    cx = origin.x + 1.5 * s * q
    cy = origin.y + _SQRT3 * s * (r + q / 2.0)
    ring_x = cx[:, None] + np.array([s * math.cos(math.radians(60.0 * k)) for k in range(6)])
    ring_y = cy[:, None] + np.array([s * math.sin(math.radians(60.0 * k)) for k in range(6)])
    keep = np.zeros(len(q), dtype=bool)
    for part in parts:
        open_ = np.flatnonzero(~keep)
        keep[open_] = rings_intersect_polygon(ring_x[open_], ring_y[open_], part)
    cells: dict[tuple[int, int], HexCell] = {}
    for i in np.flatnonzero(keep).tolist():
        ring = tuple(map(Point2D, ring_x[i].tolist(), ring_y[i].tolist()))
        cells[(int(q[i]), int(r[i]))] = HexCell(center=Point2D(float(cx[i]), float(cy[i])), polygon=ring)
    if not cells:
        raise GeometryError("study area produced no grid cells")
    return HexGrid(origin, cell_area, cells)


def assign_lengths(edges, cells: EdgeCells, policy=None) -> tuple[dict[tuple[int, int], float], float]:
    """Attribute edge lengths to grid cells.

    ``cells`` is the clip of ``edges`` against the grid; contributions are
    multiplied by the infrastructure-length policy factor when a policy is
    given. Length falling outside every retained cell lands in the
    returned outside bucket (with a warning), so the cell totals plus the
    bucket always conserve the input length.

    Returns
    -------
    (cell_totals, outside_m)
    """
    cells.check(edges)
    factors = np.ones(len(edges)) if policy is None else policy.edge_factors(edges)
    gap = cells.vertices.length - np.bincount(cells.edge, cells.length, minlength=len(edges))
    outside = _sum_in_order((gap * factors)[gap > 0.0])
    if outside > 1e-6:
        log.warning("%.3f m of infrastructure length falls outside the grid", outside)
    return cells.grid.sum_by_cell(cells.cell, cells.length * factors[cells.edge]), outside
