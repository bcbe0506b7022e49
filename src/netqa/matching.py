"""Segment-level feature matching between two datasets.

Both datasets are cut into equal-length segments, and each segment of one
dataset is matched against candidate segments of the other using three
thresholds: distance between segment midpoints, Hausdorff distance, and
the undirected angle between the segments. Among candidates passing all
three, the best match minimizes an explicit composite score, so results
are reproducible; ties break on segment id. Matching runs independently
in both directions, and the two directions may disagree: one network can
cover most of the other while the reverse holds for only a fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import Segment, segmentize

__all__ = [
    "MatchConfig",
    "MatchRecord",
    "MatchCounts",
    "MatchSummary",
    "segmentize_dataset",
    "match_datasets",
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
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
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


def segmentize_dataset(dataset, seg_len: float) -> list[Segment]:
    """All edges of a dataset cut into matching segments, edge order kept."""
    segments = []
    for edge in dataset.edges:
        segments.extend(segmentize(edge.geometry, seg_len, edge.id))
    return segments


# Source segments matched per block, which bounds the candidate-pair arrays
# at any network size (a street lattice gives about 6 pairs per source).
_BLOCK_SOURCES = 2048

# Relative slack of the array-side distance tests (bucket side, squared
# distance pre-filter) over max_dist. Far above rounding error, it keeps
# every pair that passes the exact midpoint test, while coordinates stay
# below about 10**9 * max_dist: such midpoints are at most one bucket apart
# in each axis.
_SLACK = 1e-6


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


def _endpoints(segments: list[Segment]) -> np.ndarray:
    """(n, 4) array of start x, start y, end x, end y."""
    return np.array([(s.start.x, s.start.y, s.end.x, s.end.y) for s in segments], dtype=float).reshape(-1, 4)


def _midpoints(ends: np.ndarray):
    # the expression of Segment.midpoint
    return (ends[:, 0] + ends[:, 2]) / 2.0, (ends[:, 1] + ends[:, 3]) / 2.0


def _distinct(sorted_values: np.ndarray) -> np.ndarray:
    # np.unique would import numpy.ma, about 1.4 MB of peak RSS
    keep = np.ones(len(sorted_values), dtype=bool)
    keep[1:] = sorted_values[1:] != sorted_values[:-1]
    return sorted_values[keep]


class _BucketJoin:
    """Target midpoints sorted by bucket, for 3 x 3 neighbourhood lookups.

    Buckets are squares of side ``side``; a bucket's key combines the
    ranks of its column and row among the occupied ones, so keys stay
    small whatever the coordinates.
    """

    def __init__(self, mx: np.ndarray, my: np.ndarray, side: float):
        self.side = side
        cx = np.floor(mx / side)
        cy = np.floor(my / side)
        self.columns = _distinct(np.sort(cx))
        self.rows = _distinct(np.sort(cy))
        keys = np.searchsorted(self.columns, cx) * len(self.rows) + np.searchsorted(self.rows, cy)
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]

    def pairs(self, mx: np.ndarray, my: np.ndarray):
        """(source, target) index arrays: every target whose midpoint lies
        in the 3 x 3 buckets around a query midpoint."""
        cx = np.floor(mx / self.side)
        cy = np.floor(my / self.side)
        lo = np.searchsorted(self.rows, cy - 1.0, "left")
        hi = np.searchsorted(self.rows, cy + 1.0, "right")
        starts, stops = [], []
        for dx in (-1.0, 0.0, 1.0):
            col = np.minimum(np.searchsorted(self.columns, cx + dx), len(self.columns) - 1)
            base = col * len(self.rows)
            start = np.searchsorted(self.keys, base + lo)
            stop = np.searchsorted(self.keys, base + hi)
            starts.append(start)
            stops.append(np.where(self.columns[col] == cx + dx, stop, start))
        starts = np.stack(starts, axis=1).ravel()
        counts = np.stack(stops, axis=1).ravel() - starts
        src = np.repeat(np.arange(len(mx)).repeat(3), counts)
        first = np.cumsum(counts) - counts
        pos = np.arange(counts.sum()) - np.repeat(first - starts, counts)
        return src, self.order[pos]


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
    s, t = join.pairs(*src_mid)
    dxm = src_mid[0][s] - dst_mid[0][t]
    dym = src_mid[1][s] - dst_mid[1][t]
    # squared distance with slack; the exact test follows on the survivors
    near = dxm * dxm + dym * dym <= (cfg.max_dist * cfg.max_dist) * (1.0 + _SLACK)
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


def _match_direction(src, src_ends, dst, dst_ends, cfg: MatchConfig):
    match = np.full(len(src), -1)
    md, h, ang = np.zeros(len(src)), np.zeros(len(src)), np.zeros(len(src))
    totals = [0, 0, 0, 0]
    if src and dst:
        # rank of each target in segment-id order; equal ids keep list order
        dst_rank = np.empty(len(dst), dtype=np.int64)
        dst_rank[sorted(range(len(dst)), key=lambda j: dst[j].segment_id)] = np.arange(len(dst))
        dst_mid = _midpoints(dst_ends)
        join = _BucketJoin(*dst_mid, cfg.max_dist * (1.0 + _SLACK))
        for lo in range(0, len(src), _BLOCK_SOURCES):
            ends = src_ends[lo : lo + _BLOCK_SOURCES]
            (i, *winners), counts = _match_block(ends, _midpoints(ends), join, dst_ends, dst_mid, dst_rank, cfg)
            match[lo + i], md[lo + i], h[lo + i], ang[lo + i] = winners
            totals = [a + b for a, b in zip(totals, counts)]
    records = [
        MatchRecord(segment=seg, matched=None)
        if j < 0
        else MatchRecord(segment=seg, matched=dst[j], midpoint_dist=m, hausdorff=hd, angle=a)
        for seg, j, m, hd, a in zip(src, match.tolist(), md.tolist(), h.tolist(), ang.tolist())
    ]
    return records, MatchCounts(len(src), *totals, int((match >= 0).sum()))


def match_datasets(a, b, cfg: MatchConfig = MatchConfig(), counts: list | None = None):
    """Match dataset a against b and b against a.

    Returns (records_a, records_b): one record per segment of each
    dataset, in segmentation order. The relation is not forced symmetric.
    If ``counts`` is a list, the ``MatchCounts`` of a against b and then
    of b against a are appended to it.
    """
    segs_a = segmentize_dataset(a, cfg.seg_len)
    segs_b = segmentize_dataset(b, cfg.seg_len)
    ends_a = _endpoints(segs_a)
    ends_b = _endpoints(segs_b)
    records_a, counts_a = _match_direction(segs_a, ends_a, segs_b, ends_b, cfg)
    records_b, counts_b = _match_direction(segs_b, ends_b, segs_a, ends_a, cfg)
    if counts is not None:
        counts.extend((counts_a, counts_b))
    return records_a, records_b


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


def match_summary(records: list[MatchRecord], grid) -> MatchSummary:
    """Global and per-cell matching statistics for one direction.

    Per-cell percentages weight by segment length among segments whose
    midpoint falls in the cell; cells without segments are absent.
    """
    total_len = sum(r.segment.arc_length for r in records)
    matched = [r for r in records if r.matched is not None]
    matched_len = sum(r.segment.arc_length for r in matched)

    cell_total: dict = {}
    cell_matched: dict = {}
    for r in records:
        cell = grid.cell_containing(r.segment.midpoint) if grid is not None else None
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
        local_avg_pct=sum(pcts) / len(pcts) if pcts else None,
    )
