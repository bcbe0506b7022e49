"""Planar hexagonal lattice for local metric aggregation.

A self-contained flat-top hexagon lattice in axial (q, r) coordinates,
anchored at the lower-left corner of the study area's bounding box. All
cells are congruent regular hexagons with exactly the configured area, so
per-cell densities are directly comparable. Line lengths are attributed to
cells by exact segment-against-hexagon clipping, which keeps the summed
per-cell lengths equal to the input lengths to floating-point precision.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import Point2D, Polyline, polyline_length
from .polygons import PolygonArea, ring_intersects_polygon

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
    q: int
    r: int
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
        self._position = {cell_id: i for i, cell_id in enumerate(self.cell_ids)}

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

    def cell_containing(self, pt: Point2D) -> tuple[int, int] | None:
        """Axial id of the retained cell containing a point, if any."""
        i = int(self.cells_at(np.array([pt.x]), np.array([pt.y]))[0])
        return self.cell_ids[i] if i >= 0 else None

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
        ids = zip(q.astype(np.int64).tolist(), r.astype(np.int64).tolist())
        return np.array([self._position.get(cell_id, -1) for cell_id in ids], dtype=np.intp)

    def sum_by_cell(self, cell: np.ndarray, weights: np.ndarray | None = None) -> dict:
        """{cell id: sum of its rows' positive weights, or count}, ascending; adds in row order."""
        sums = np.bincount(cell, weights, minlength=len(self.cell_ids))
        touched = np.flatnonzero(sums).tolist()
        return dict(zip([self.cell_ids[i] for i in touched], sums[touched].tolist()))

    def _candidate_cells(self, xmin, ymin, xmax, ymax):
        s = self.edge_len
        x0, y0 = self.origin.x, self.origin.y
        q_lo = math.floor((xmin - s - x0) / (1.5 * s))
        q_hi = math.ceil((xmax + s - x0) / (1.5 * s))
        for q in range(q_lo, q_hi + 1):
            r_lo = math.floor((ymin - s - y0) / (_SQRT3 * s) - q / 2.0)
            r_hi = math.ceil((ymax + s - y0) / (_SQRT3 * s) - q / 2.0)
            for r in range(r_lo, r_hi + 1):
                if (q, r) in self.cells:
                    yield q, r

    def clip_polyline(self, p: Polyline) -> dict[tuple[int, int], float]:
        """Length of the polyline inside each retained cell.

        Exact parametric clipping of each straight piece against the
        hexagon's six half-planes (a piece on a shared side counts in one
        cell only). Only cells receiving positive length appear in the
        result, in the order the pieces first meet them.
        """
        out: dict[tuple[int, int], float] = {}
        for a, b in zip(p.vertices, p.vertices[1:]):
            xmin, xmax = min(a.x, b.x), max(a.x, b.x)
            ymin, ymax = min(a.y, b.y), max(a.y, b.y)
            for q, r in self._candidate_cells(xmin, ymin, xmax, ymax):
                center = self.cells[(q, r)].center
                piece = _clip_piece_to_hex(a.x, a.y, b.x, b.y, center.x, center.y, self.apothem)
                if piece > 0.0:
                    out[(q, r)] = out.get((q, r), 0.0) + piece
        return out

    def clip_edges(self, edges) -> EdgeCells:
        """Clip each edge once, into the rows of an ``EdgeCells``."""
        clips = [self.clip_polyline(e.geometry) for e in edges]
        edge = np.repeat(np.arange(len(clips), dtype=np.intp), [len(clip) for clip in clips])
        cell = np.array([self._position[c] for clip in clips for c in clip], dtype=np.intp)
        length = np.array([v for clip in clips for v in clip.values()], dtype=float)
        return EdgeCells(self, len(clips), edge, cell, length)


@dataclass(frozen=True)
class EdgeCells:
    """Edges clipped against a grid. Row k: edge ``edge[k]`` has length ``length[k]`` > 0
    in cell ``cell[k]`` (a position in ``grid.cell_ids``). Rows run in edge order, then in
    the order the clip first meets each cell, so per-cell sums add as a loop over edges does."""

    grid: HexGrid
    n_edges: int
    edge: np.ndarray
    cell: np.ndarray
    length: np.ndarray

    def check(self, edges) -> None:
        if len(edges) != self.n_edges:
            raise ValueError(f"clip index was built from {self.n_edges} edges, not {len(edges)}")


def edge_length_for_area(cell_area: float) -> float:
    if cell_area <= 0 or not math.isfinite(cell_area):
        raise GeometryError(f"cell_area must be positive and finite, got {cell_area}")
    return math.sqrt(2.0 * cell_area / (3.0 * _SQRT3))


def _clip_piece_to_hex(ax, ay, bx, by, cx, cy, apothem) -> float:
    """Length of segment AB inside the hexagon centered at C.

    Sides are half-open: a piece lying on a side counts only where the
    side's outward normal points up (its three upper sides), so of the two
    cells sharing a side exactly one gets the piece.
    """
    dx = bx - ax
    dy = by - ay
    tol = _SIDE_EPS * apothem
    near = 2.0 * tol  # a piece on a side moves at most this far across its line
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
    proto = HexGrid(origin, cell_area, cells={})
    q_lo = math.floor((xmin - s - xmin) / (1.5 * s)) - 1
    q_hi = math.ceil((xmax + s - xmin) / (1.5 * s)) + 1
    cells: dict[tuple[int, int], HexCell] = {}
    for q in range(q_lo, q_hi + 1):
        r_lo = math.floor((ymin - s - ymin) / (_SQRT3 * s) - q / 2.0) - 1
        r_hi = math.ceil((ymax + s - ymin) / (_SQRT3 * s) - q / 2.0) + 1
        for r in range(r_lo, r_hi + 1):
            ring = proto.cell_polygon(q, r)
            if any(ring_intersects_polygon(ring, part) for part in parts):
                cells[(q, r)] = HexCell(q=q, r=r, center=proto.cell_center(q, r), polygon=ring)
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
    factors = [policy.factor_for(e) if policy is not None else 1.0 for e in edges]
    covered = np.bincount(cells.edge, cells.length, minlength=len(factors)).tolist()
    outside = 0.0
    for edge, factor, covered_m in zip(edges, factors, covered):
        gap = polyline_length(edge.geometry) - covered_m
        if gap > 0.0:
            outside += gap * factor
    if outside > 1e-6:
        log.warning("%.3f m of infrastructure length falls outside the grid", outside)
    return cells.grid.sum_by_cell(cells.cell, cells.length * np.array(factors, dtype=float)[cells.edge]), outside
