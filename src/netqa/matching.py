"""Segment-level feature matching between two datasets.

Both datasets are cut into equal-length segments, and each segment of one
dataset is matched against candidate segments of the other using three
thresholds: distance between segment midpoints, Hausdorff distance, and
the undirected angle between the segments. Among candidates passing all
three, the best match minimizes an explicit composite score, so results
are reproducible; ties break on segment id. Matching runs in both
directions, and the two directions may disagree: one network can cover
most of the other while the reverse holds for only a fraction. Both
directions judge the same pairs by the same values, so one pass over the
candidate pairs picks the winners of both.

Segments and match results are held as columns (``SegmentTable``,
``MatchTable``) from segmentation to the summary; ``Segment`` and
``MatchRecord`` lists are views built from them for API callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MatchConfig
from .errors import GeometryError
from .geometry import Point2D, Segment, _ranges, _sum_in_order
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

# A trailing cut remainder shorter than this fraction of the segment length,
# or at most _LENGTH_EPS meters, is merged into the previous segment.
_REMAINDER_MERGE_FRACTION = 0.5
_LENGTH_EPS = 1e-9


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

    Each edge is cut every ``seg_len`` of arc length from its start; a
    trailing remainder under ``seg_len / 2`` merges into the last piece,
    and an edge no longer than ``seg_len`` is one piece. The floats are
    those of the scalar ``segmentize`` in the tests' ``conftest.py``, bit
    for bit: the cumulative lengths of ``dataset.vertices`` are the same
    sequential sums of ``math.hypot``, and the rest is array arithmetic
    whose IEEE results equal the scalar code's.
    """
    if seg_len <= 0:
        raise GeometryError(f"seg_len must be > 0, got {seg_len}")
    edges = dataset.edges
    v = dataset.vertices
    x, y, first, last, cum = v.x, v.y, v.first, v.last, v.cum

    # pieces per edge: whole pieces, and a remainder kept or merged
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
    ``first`` to ``last`` of (``x``, ``y``), clamped to each polyline's
    extent, as ``_point_at`` in the tests' ``conftest.py`` finds them."""
    px = np.where(d <= 0, x[first], x[last])
    py = np.where(d <= 0, y[first], y[last])
    inner = np.flatnonzero((d > 0) & (d < cum[last]))
    d = d[inner]
    lo, hi = first[inner], last[inner]
    # a bisection: lo ends at the last vertex with cum <= d, also where
    # zero-length steps repeat a cum value
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
    source segments keeps its best one. A pair passes or fails alike in
    either direction, so the two directions share the four pair counts.
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


_DEGREES = 180.0 / math.pi  # the factor of math.degrees


def _distance(ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    # the arithmetic of geometry.point_segment_distance
    return np.sqrt(ex * ex + ey * ey)


def _block_pairs(src_ends, join, dst_ends, dst_mid, cfg):
    """Every pair of a source in a block and a target that passes the
    three thresholds, by the rules of the scalar matcher. Returns (source
    row in the block, target, midpoint distance, Hausdorff, angle, score)
    arrays and the (within, hausdorff-rejected, angle-rejected, accepted)
    pair counts.

    NumPy does only steps whose IEEE results are exact to the bit (+ - * /,
    abs, clip, sqrt, comparisons, max). The midpoint distance's powers and
    atan2 go through the Python calls the scalar code makes (libm's
    ``pow`` is not correctly rounded, so no array step repeats it). So
    every distance and angle equals ``hausdorff_distance``,
    ``segment_angle_deg`` and the ``** 0.5`` midpoint distance bit for
    bit. Each value is also that of the pair with source and target
    swapped: a - b = -(b - a), products commute, and the four Hausdorff
    terms are the same four distances.
    """
    # each midpoint's box of radius max_dist, slackened as the join's side
    (mx, my), r = _midpoints(src_ends), join.side
    s, t = join.pairs(mx - r, my - r, mx + r, my + r)
    dxm, dym = mx[s] - dst_mid[0][t], my[s] - dst_mid[1][t]
    # squared distance with slack; the exact test follows on the survivors
    near = dxm * dxm + dym * dym <= (cfg.max_dist * cfg.max_dist) * (1.0 + SLACK)
    s, t, dxm, dym = s[near], t[near], dxm[near], dym[near]
    md = np.fromiter(((u**2 + v**2) ** 0.5 for u, v in zip(dxm.tolist(), dym.tolist())), dtype=float, count=len(s))
    keep = md <= cfg.max_dist
    s, t, md = s[keep], t[keep], md[keep]
    within = len(s)

    a1x, a1y, a2x, a2y = src_ends[s].T
    b1x, b1y, b2x, b2y = dst_ends[t].T
    # the largest of the four endpoint-to-segment distances, one at a time
    h = _distance(*_foot_offsets(a1x, a1y, b1x, b1y, b2x, b2y))
    np.maximum(h, _distance(*_foot_offsets(a2x, a2y, b1x, b1y, b2x, b2y)), out=h)
    np.maximum(h, _distance(*_foot_offsets(b1x, b1y, a1x, a1y, a2x, a2y)), out=h)
    np.maximum(h, _distance(*_foot_offsets(b2x, b2y, a1x, a1y, a2x, a2y)), out=h)
    keep = h <= cfg.max_hausdorff
    s, t, md, h = s[keep], t[keep], md[keep], h[keep]
    ux, uy = a2x[keep] - a1x[keep], a2y[keep] - a1y[keep]
    vx, vy = b2x[keep] - b1x[keep], b2y[keep] - b1y[keep]
    cross, dot = np.abs(ux * vy - uy * vx), ux * vx + uy * vy
    ang = np.fromiter(map(math.atan2, cross.tolist(), dot.tolist()), dtype=float, count=len(s)) * _DEGREES
    ang = np.where(ang > 90.0, 180.0 - ang, ang)
    keep = ang <= cfg.max_angle
    counts = (within, within - len(h), len(h) - int(keep.sum()), int(keep.sum()))
    s, t, md, h, ang = s[keep], t[keep], md[keep], h[keep], ang[keep]
    return (s, t, md, h, ang, h + md + (ang / cfg.max_angle) * cfg.max_dist), counts


class _Winners:
    """Each segment's least (score, partner rank) pair so far, as the
    columns of a ``MatchTable``; pairs are folded in a block at a time."""

    _NO_RANK = np.iinfo(np.intp).max

    def __init__(self, n: int):
        self.columns = (np.full(n, -1), np.zeros(n), np.zeros(n), np.zeros(n))
        self.score = np.full(n, math.inf)
        self.rank = np.full(n, self._NO_RANK)

    def add(self, segment, partner, rank, score, md, h, ang) -> None:
        """Fold in the pairs of rows ``segment`` and ``partner``; ``rank``
        is the partner's, so it differs among one segment's pairs."""
        before = self.score[segment]
        np.minimum.at(self.score, segment, score)
        now = self.score[segment]
        self.rank[segment[now < before]] = self._NO_RANK  # a lower score displaces the pair held
        tied = np.flatnonzero(score == now)
        np.minimum.at(self.rank, segment[tied], rank[tied])
        win = tied[rank[tied] == self.rank[segment[tied]]]
        for column, values in zip(self.columns, (partner, md, h, ang)):
            column[segment[win]] = values[win]

    def table(self, segments: SegmentTable, targets: SegmentTable, pair_counts) -> MatchTable:
        matched = int((self.columns[0] >= 0).sum())
        return MatchTable(segments, targets, *self.columns, MatchCounts(len(segments), *pair_counts, matched))


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


def match_tables(a, b, cfg: MatchConfig = MatchConfig()) -> tuple[MatchTable, MatchTable]:
    """Match dataset a against b and b against a, as columns.

    Returns (a against b, b against a), each with one row per segment of
    its source dataset in segmentation order. The relation is not forced
    symmetric.

    One pass over the candidate pairs serves both directions: a's
    segments are joined against b's midpoints a block at a time, and each
    pair's metrics and score are computed once. Each a segment keeps its
    least (score, b segment id) pair, and each b segment its least
    (score, a segment id) pair so far, which a later block may displace.
    Both directions see the same pairs, so their ``MatchCounts`` share the
    four pair counts.
    """
    src, dst = segment_table(a, cfg.seg_len), segment_table(b, cfg.seg_len)
    forward, backward = _Winners(len(src)), _Winners(len(dst))
    totals = [0, 0, 0, 0]
    if len(src) and len(dst):
        src_rank, dst_rank = _segment_ranks(src), _segment_ranks(dst)
        dst_mid = _midpoints(dst.ends)
        join = BucketJoin(*dst_mid, cfg.max_dist * (1.0 + SLACK))
        for lo in range(0, len(src), _BLOCK_SOURCES):
            (s, t, md, h, ang, score), counts = _block_pairs(
                src.ends[lo : lo + _BLOCK_SOURCES], join, dst.ends, dst_mid, cfg
            )
            s = s + lo
            totals = [x + y for x, y in zip(totals, counts)]
            forward.add(s, t, dst_rank[t], score, md, h, ang)
            backward.add(t, s, src_rank[s], score, md, h, ang)
    return forward.table(src, dst, totals), backward.table(dst, src, totals)


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
    total_len = _sum_in_order(length)
    matched_len = _sum_in_order(length[matched])
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
        local_avg_pct=_sum_in_order(pcts) / len(pcts) if pcts else None,
    )
