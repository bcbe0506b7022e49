"""Segment-level feature matching between two datasets.

Both datasets are cut into equal-length segments, and each segment of one
dataset is matched against candidate segments of the other using three
thresholds: distance between segment midpoints, Hausdorff distance, and
the undirected angle between the segments. Among candidates passing all
three, the best match minimizes an explicit composite score, so results
are reproducible; ties break on segment id. Matching runs independently
in both directions, and the two directions may disagree: one network can
cover most of the other while the reverse holds for only a fraction.

Segments and match results are held as columns (``SegmentTable``,
``MatchTable``) from segmentation to the summary; ``Segment`` and
``MatchRecord`` lists are views built from them for API callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError
from .geometry import _LENGTH_EPS, _REMAINDER_MERGE_FRACTION, Point2D, Segment, _ranges
from .spindex import SLACK, BucketJoin

__all__ = [
    "MatchConfig",
    "MatchRecord",
    "MatchCounts",
    "MatchSummary",
    "MatchTable",
    "SegmentTable",
    "segment_table",
    "segmentize_dataset",
    "match_tables",
    "match_datasets",
    "summarize",
    "match_summary",
]


@dataclass(frozen=True)
class MatchConfig:
    """Matching thresholds, all configurable; defaults follow common
    segment-matching practice for road networks."""

    seg_len: float = 10.0
    max_dist: float = 15.0
    max_hausdorff: float = 17.0
    max_angle: float = 30.0

    def __post_init__(self):
        for name in ("seg_len", "max_dist", "max_hausdorff", "max_angle"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
        if self.max_hausdorff < self.max_dist:
            raise ConfigError("max_hausdorff must be >= max_dist")


@dataclass(frozen=True)
class MatchRecord:
    """Verdict for one segment: its best counterpart, or none."""

    segment: Segment
    matched: Segment | None
    midpoint_dist: float | None = None
    hausdorff: float | None = None
    angle: float | None = None

    @property
    def segment_id(self):
        return self.segment.segment_id

    @property
    def matched_segment_id(self):
        return self.matched.segment_id if self.matched is not None else None


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """A dataset's matching segments as columns, in segmentation order
    (edge order, then position along the edge).

    Row k is piece ``index[k]`` of the edge at position ``edge[k]`` of the
    dataset, whose id is ``edge_ids[edge[k]]``. Its chord runs from
    (``ends[k, 0]``, ``ends[k, 1]``) to (``ends[k, 2]``, ``ends[k, 3]``)
    and covers the arc from ``offset[k]`` to ``offset[k] + length[k]``
    along the edge, as a ``geometry.Segment`` does.
    """

    edge_ids: list
    edge: np.ndarray
    index: np.ndarray
    ends: np.ndarray
    offset: np.ndarray
    length: np.ndarray

    def __len__(self) -> int:
        return len(self.edge)

    def segments(self) -> list[Segment]:
        """The rows as ``Segment`` objects."""
        return [
            Segment(Point2D(x1, y1), Point2D(x2, y2), self.edge_ids[e], offset, length, index)
            for (x1, y1, x2, y2), e, offset, length, index in zip(
                self.ends.tolist(),
                self.edge.tolist(),
                self.offset.tolist(),
                self.length.tolist(),
                self.index.tolist(),
            )
        ]


def segment_table(dataset, seg_len: float) -> SegmentTable:
    """All edges of a dataset cut into matching segments, as columns.

    The cuts, pieces and floats are those of ``geometry.segmentize`` on
    each edge, bit for bit: the cumulative lengths of ``dataset.vertices``
    are the same sequential sums of ``math.hypot``, and the rest is array
    arithmetic whose IEEE results equal the scalar code's.
    """
    if seg_len <= 0:
        raise GeometryError(f"seg_len must be > 0, got {seg_len}")
    edges = dataset.edges
    v = dataset.vertices
    x, y, first, last, cum = v.x, v.y, v.first, v.last, v.cum

    # pieces per edge: segmentize's n_full and remainder rules
    total = v.length
    n_full = np.floor(total / seg_len + 1e-12)
    remainder = total - n_full * seg_len
    merged = (remainder <= _LENGTH_EPS) | (remainder < seg_len * _REMAINDER_MERGE_FRACTION)
    pieces = np.where(total <= seg_len, 1, np.where(merged, n_full, n_full + 1)).astype(np.intp)

    # cut j of an edge lies at j * seg_len, its last cut at the edge's end
    cut_edge, j = _ranges(np.zeros(len(edges), dtype=np.intp), pieces + 1)
    d = np.where(j == pieces[cut_edge], total[cut_edge], j * seg_len)
    cx, cy = _points_at(x, y, cum, first[cut_edge], last[cut_edge], d)

    # segment k of edge e runs from cut k + e to cut k + e + 1
    edge = np.repeat(np.arange(len(edges)), pieces)
    lo = np.arange(len(edge)) + edge
    ends = np.stack([cx[lo], cy[lo], cx[lo + 1], cy[lo + 1]], axis=1)
    degenerate = np.flatnonzero((ends[:, 0] == ends[:, 2]) & (ends[:, 1] == ends[:, 3]))
    if len(degenerate):
        raise GeometryError(f"degenerate segment on edge {edges[edge[degenerate[0]]].id}")
    return SegmentTable([e.id for e in edges], edge, j[lo], ends, d[lo], d[lo + 1] - d[lo])


def _points_at(x, y, cum, first, last, d):
    """Points at arc distances ``d`` along polylines whose vertices are
    ``first`` to ``last`` of (``x``, ``y``), by ``geometry._point_at``."""
    px = np.where(d <= 0, x[first], x[last])
    py = np.where(d <= 0, y[first], y[last])
    inner = np.flatnonzero((d > 0) & (d < cum[last]))
    d = d[inner]
    lo, hi = first[inner], last[inner]
    # _point_at's bisection: lo ends at the last vertex with cum <= d,
    # also where zero-length steps repeat a cum value
    while True:
        open_ = np.flatnonzero(hi - lo > 1)
        if not len(open_):
            break
        mid = (lo[open_] + hi[open_]) // 2
        below = cum[mid] <= d[open_]
        lo[open_[below]] = mid[below]
        hi[open_[~below]] = mid[~below]
    t = (d - cum[lo]) / (cum[lo + 1] - cum[lo])
    px[inner] = x[lo] + t * (x[lo + 1] - x[lo])
    py[inner] = y[lo] + t * (y[lo + 1] - y[lo])
    return px, py


def segmentize_dataset(dataset, seg_len: float) -> list[Segment]:
    """All edges of a dataset cut into matching segments, edge order kept."""
    return segment_table(dataset, seg_len).segments()


# Source segments matched per block, which bounds the candidate-pair arrays
# at any network size (a street lattice gives about 6 pairs per source).
_BLOCK_SOURCES = 2048


@dataclass(frozen=True)
class MatchCounts:
    """Work of one matching direction, read from the kernel's filter masks.

    ``pairs_within_max_dist`` source-target pairs pass the midpoint
    distance filter; of these, ``rejected_hausdorff`` fail the Hausdorff
    threshold and ``rejected_angle`` pass it but fail the angle threshold.
    The rest are ``accepted_pairs``; each of the ``matched_segments``
    source segments keeps its best one.
    """

    segments: int
    pairs_within_max_dist: int
    rejected_hausdorff: int
    rejected_angle: int
    accepted_pairs: int
    matched_segments: int


def _midpoints(ends: np.ndarray):
    # the expression of Segment.midpoint
    return (ends[:, 0] + ends[:, 2]) / 2.0, (ends[:, 1] + ends[:, 3]) / 2.0


def _foot_offsets(px, py, ax, ay, bx, by):
    """Components of the vector from each point to the nearest point of its
    segment, by the arithmetic of ``geometry.point_segment_distance``."""
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - ax) * dx + (py - ay) * dy) / denom
    # denom == 0 takes the distance to a; t = 0 gives that up to the sign
    # of a zero, which the distance ignores
    t = np.where(denom == 0.0, 0.0, np.clip(t, 0.0, 1.0))
    return px - (ax + t * dx), py - (ay + t * dy)


def _hypot(ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    return np.array(list(map(math.hypot, ex.tolist(), ey.tolist())))


def _match_block(src_ends, src_mid, join, dst_ends, dst_mid, dst_rank, cfg):
    """Best target of each source in a block, by the rules of the scalar
    matcher. Returns (winning source, target, midpoint distance, Hausdorff,
    angle) arrays and the (within, hausdorff-rejected, angle-rejected,
    accepted) pair counts.

    NumPy does only steps whose IEEE results are exact to the bit (+ - * /,
    abs, clip, comparisons, max); powers, square roots, hypot, atan2 and
    degrees go through the same Python calls the scalar code makes, so
    every distance and angle equals ``hausdorff_distance``,
    ``segment_angle_deg`` and the midpoint distance bit for bit.
    """
    # each midpoint's box of radius max_dist, slackened as the join's side
    (mx, my), r = src_mid, join.side
    s, t = join.pairs(mx - r, my - r, mx + r, my + r)
    dxm = src_mid[0][s] - dst_mid[0][t]
    dym = src_mid[1][s] - dst_mid[1][t]
    # squared distance with slack; the exact test follows on the survivors
    near = dxm * dxm + dym * dym <= (cfg.max_dist * cfg.max_dist) * (1.0 + SLACK)
    s, t, dxm, dym = s[near], t[near], dxm[near], dym[near]
    md = np.array([(u**2 + v**2) ** 0.5 for u, v in zip(dxm.tolist(), dym.tolist())])
    keep = md <= cfg.max_dist
    s, t, md = s[keep], t[keep], md[keep]
    within = len(s)

    a1x, a1y, a2x, a2y = src_ends[s].T
    b1x, b1y, b2x, b2y = dst_ends[t].T
    h = np.maximum.reduce(
        [
            _hypot(*_foot_offsets(a1x, a1y, b1x, b1y, b2x, b2y)),
            _hypot(*_foot_offsets(a2x, a2y, b1x, b1y, b2x, b2y)),
            _hypot(*_foot_offsets(b1x, b1y, a1x, a1y, a2x, a2y)),
            _hypot(*_foot_offsets(b2x, b2y, a1x, a1y, a2x, a2y)),
        ]
    )
    keep = h <= cfg.max_hausdorff
    s, t, md, h = s[keep], t[keep], md[keep], h[keep]
    ux, uy = a2x[keep] - a1x[keep], a2y[keep] - a1y[keep]
    vx, vy = b2x[keep] - b1x[keep], b2y[keep] - b1y[keep]
    cross = np.abs(ux * vy - uy * vx).tolist()
    dot = (ux * vx + uy * vy).tolist()
    ang = np.array(list(map(math.degrees, map(math.atan2, cross, dot))))
    ang = np.where(ang > 90.0, 180.0 - ang, ang)
    keep = ang <= cfg.max_angle
    counts = (within, within - len(h), len(h) - int(keep.sum()), int(keep.sum()))
    s, t, md, h, ang = s[keep], t[keep], md[keep], h[keep], ang[keep]

    score = h + md + (ang / cfg.max_angle) * cfg.max_dist
    order = np.lexsort((dst_rank[t], score, s))
    first = np.ones(len(order), dtype=bool)
    first[1:] = s[order[1:]] != s[order[:-1]]
    win = order[first]
    return (s[win], t[win], md[win], h[win], ang[win]), counts


def _segment_ranks(table: SegmentTable) -> np.ndarray:
    """Rank of each row in segment-id order (edge id string, then index);
    rows with equal ids keep table order."""
    names = sorted(set(table.edge_ids))
    position = dict(zip(names, range(len(names))))
    edge_rank = np.array([position[name] for name in table.edge_ids], dtype=np.intp)
    order = np.lexsort((table.index, edge_rank[table.edge]))
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank


@dataclass(frozen=True, eq=False)
class MatchTable:
    """One matching direction as columns.

    Row k of ``segments`` matched row ``target[k]`` of ``targets`` (-1:
    no match), at midpoint distance ``midpoint_dist[k]``, Hausdorff
    distance ``hausdorff[k]`` and angle ``angle[k]`` (all 0.0 where
    unmatched).
    """

    segments: SegmentTable
    targets: SegmentTable
    target: np.ndarray
    midpoint_dist: np.ndarray
    hausdorff: np.ndarray
    angle: np.ndarray
    counts: MatchCounts

    def records(self) -> list[MatchRecord]:
        """The rows as ``MatchRecord`` objects."""
        targets = self.targets.segments()
        return [
            MatchRecord(segment=seg, matched=None)
            if j < 0
            else MatchRecord(segment=seg, matched=targets[j], midpoint_dist=m, hausdorff=h, angle=a)
            for seg, j, m, h, a in zip(
                self.segments.segments(),
                self.target.tolist(),
                self.midpoint_dist.tolist(),
                self.hausdorff.tolist(),
                self.angle.tolist(),
            )
        ]


def _match_direction(src: SegmentTable, dst: SegmentTable, cfg: MatchConfig) -> MatchTable:
    match = np.full(len(src), -1)
    md, h, ang = np.zeros(len(src)), np.zeros(len(src)), np.zeros(len(src))
    totals = [0, 0, 0, 0]
    if len(src) and len(dst):
        dst_rank = _segment_ranks(dst)
        dst_mid = _midpoints(dst.ends)
        join = BucketJoin(*dst_mid, cfg.max_dist * (1.0 + SLACK))
        for lo in range(0, len(src), _BLOCK_SOURCES):
            ends = src.ends[lo : lo + _BLOCK_SOURCES]
            (i, *winners), counts = _match_block(ends, _midpoints(ends), join, dst.ends, dst_mid, dst_rank, cfg)
            match[lo + i], md[lo + i], h[lo + i], ang[lo + i] = winners
            totals = [a + b for a, b in zip(totals, counts)]
    counts = MatchCounts(len(src), *totals, int((match >= 0).sum()))
    return MatchTable(src, dst, match, md, h, ang, counts)


def match_tables(a, b, cfg: MatchConfig = MatchConfig()) -> tuple[MatchTable, MatchTable]:
    """Match dataset a against b and b against a, as columns.

    Returns (a against b, b against a), each with one row per segment of
    its source dataset in segmentation order. The relation is not forced
    symmetric.
    """
    table_a = segment_table(a, cfg.seg_len)
    table_b = segment_table(b, cfg.seg_len)
    return _match_direction(table_a, table_b, cfg), _match_direction(table_b, table_a, cfg)


def match_datasets(a, b, cfg: MatchConfig = MatchConfig(), counts: list | None = None):
    """Match dataset a against b and b against a.

    Returns (records_a, records_b): one record per segment of each
    dataset, in segmentation order. The relation is not forced symmetric.
    If ``counts`` is a list, the ``MatchCounts`` of a against b and then
    of b against a are appended to it.
    """
    forward, backward = match_tables(a, b, cfg)
    if counts is not None:
        counts.extend((forward.counts, backward.counts))
    return forward.records(), backward.records()


@dataclass(frozen=True)
class MatchSummary:
    total_segments: int
    matched_segments: int
    total_length_m: float
    matched_length_m: float
    pct_matched_count: float
    pct_matched_length: float
    per_cell_pct: dict
    local_min_pct: float | None
    local_max_pct: float | None
    local_avg_pct: float | None


def summarize(table: MatchTable, grid) -> MatchSummary:
    """Global and per-cell matching statistics of one direction."""
    return _summary(table.segments.ends, table.segments.length, table.target >= 0, grid)


def match_summary(records: list[MatchRecord], grid) -> MatchSummary:
    """Global and per-cell matching statistics for one direction.

    Per-cell percentages weight by segment length among segments whose
    midpoint falls in the cell; cells without segments are absent.
    """
    segments = [r.segment for r in records]
    ends = np.array([(s.start.x, s.start.y, s.end.x, s.end.y) for s in segments], dtype=float).reshape(-1, 4)
    length = np.array([s.arc_length for s in segments], dtype=float)
    matched = np.array([r.matched is not None for r in records], dtype=bool)
    return _summary(ends, length, matched, grid)


def _summary(ends, length, matched, grid) -> MatchSummary:
    total_len = sum(length.tolist())
    matched_len = sum(length[matched].tolist())
    at = grid.cells_at(*_midpoints(ends))
    inside = at >= 0
    cell_total = grid.sum_by_cell(at[inside], length[inside])
    cell_matched = grid.sum_by_cell(at[inside & matched], length[inside & matched])
    per_cell = {
        cell: min(100.0, 100.0 * cell_matched.get(cell, 0.0) / cell_total[cell])
        for cell in sorted(cell_total)
    }
    pcts = list(per_cell.values())
    n, n_matched = len(length), int(matched.sum())
    return MatchSummary(
        total_segments=n,
        matched_segments=n_matched,
        total_length_m=total_len,
        matched_length_m=matched_len,
        pct_matched_count=100.0 * n_matched / n if n else 0.0,
        pct_matched_length=100.0 * matched_len / total_len if total_len > 0 else 0.0,
        per_cell_pct=per_cell,
        local_min_pct=min(pcts) if pcts else None,
        local_max_pct=max(pcts) if pcts else None,
        local_avg_pct=sum(pcts) / len(pcts) if pcts else None,
    )
