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

from dataclasses import dataclass

from .errors import ConfigError
from .geometry import Segment, hausdorff_distance, segment_angle_deg, segmentize
from .spindex import GridIndex

__all__ = [
    "MatchConfig",
    "MatchRecord",
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


def _score(cfg: MatchConfig, midpoint_dist: float, hausdorff: float, angle: float) -> float:
    return hausdorff + midpoint_dist + (angle / cfg.max_angle) * cfg.max_dist


def _match_one(seg: Segment, candidates, cfg: MatchConfig) -> MatchRecord:
    mid = seg.midpoint
    best_key = None
    best = None
    for cand in candidates:
        cmid = cand.midpoint
        md = ((mid.x - cmid.x) ** 2 + (mid.y - cmid.y) ** 2) ** 0.5
        if md > cfg.max_dist:
            continue
        h = hausdorff_distance(seg, cand)
        if h > cfg.max_hausdorff:
            continue
        ang = segment_angle_deg(seg, cand)
        if ang > cfg.max_angle:
            continue
        key = (_score(cfg, md, h, ang), cand.segment_id)
        if best_key is None or key < best_key:
            best_key = key
            best = (cand, md, h, ang)
    if best is None:
        return MatchRecord(segment=seg, matched=None)
    cand, md, h, ang = best
    return MatchRecord(segment=seg, matched=cand, midpoint_dist=md, hausdorff=h, angle=ang)


def _match_direction(src: list[Segment], dst: list[Segment], cfg: MatchConfig) -> list[MatchRecord]:
    if not src or not dst:
        return [MatchRecord(segment=s, matched=None) for s in src]
    index = GridIndex(cell_size=max(cfg.seg_len + cfg.max_dist, 1.0))
    for j, seg in enumerate(dst):
        index.insert(j, seg.bbox)
    d = cfg.max_dist
    records = []
    for seg in src:
        xmin, ymin, xmax, ymax = seg.bbox
        cand_ids = index.query((xmin - d, ymin - d, xmax + d, ymax + d))
        records.append(_match_one(seg, (dst[j] for j in cand_ids), cfg))
    return records


def match_datasets(a, b, cfg: MatchConfig = MatchConfig()):
    """Match dataset a against b and b against a.

    Returns (records_a, records_b): one record per segment of each
    dataset, in segmentation order. The relation is not forced symmetric.
    """
    segs_a = segmentize_dataset(a, cfg.seg_len)
    segs_b = segmentize_dataset(b, cfg.seg_len)
    records_a = _match_direction(segs_a, segs_b, cfg)
    records_b = _match_direction(segs_b, segs_a, cfg)
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
