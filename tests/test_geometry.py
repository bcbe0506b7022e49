import math

import numpy as np
import pytest

from netqa.errors import GeometryError
from netqa.geometry import (
    Point2D,
    Polyline,
    Segment,
    hausdorff_distance,
    point_to_polyline_distance,
    polyline_length,
    segment_angle_deg,
    segmentize,
)

from conftest import random_polyline


def seg(ax, ay, bx, by, edge="e", idx=0):
    return Segment(
        start=Point2D(ax, ay),
        end=Point2D(bx, by),
        parent_edge_id=edge,
        offset=0.0,
        arc_length=math.hypot(bx - ax, by - ay),
        index=idx,
    )


# ---------------------------------------------------------------- length


def test_length_3_4_5():
    assert polyline_length(Polyline((Point2D(0, 0), Point2D(3, 4)))) == 5.0


def test_length_unit_steps():
    p = Polyline((Point2D(0, 0), Point2D(1, 0), Point2D(1, 1)))
    assert polyline_length(p) == 2.0


def test_length_matches_per_pair_oracle(rng):
    p = random_polyline(rng, 50)
    oracle = 0.0
    for a, b in zip(p.vertices, p.vertices[1:]):
        oracle += math.sqrt((b.x - a.x) ** 2 + (b.y - a.y) ** 2)
    assert abs(polyline_length(p) - oracle) < 1e-9


def test_polyline_validation():
    with pytest.raises(GeometryError):
        Polyline((Point2D(0, 0),))
    with pytest.raises(GeometryError):
        Polyline((Point2D(0, 0), Point2D(0, 0)))
    with pytest.raises(GeometryError):
        Point2D(float("nan"), 0.0)


# ------------------------------------------------------------- segmentize


def test_segmentize_exact_division():
    line = Polyline((Point2D(0, 0), Point2D(100, 0)))
    segments = segmentize(line, 10.0, "e")
    assert len(segments) == 10
    assert all(abs(s.arc_length - 10.0) < 1e-9 for s in segments)


def test_segmentize_merges_short_remainder():
    line = Polyline((Point2D(0, 0), Point2D(104, 0)))
    segments = segmentize(line, 10.0, "e")
    assert len(segments) == 10
    assert abs(segments[-1].arc_length - 14.0) < 1e-9


def test_segmentize_keeps_long_remainder():
    line = Polyline((Point2D(0, 0), Point2D(106, 0)))
    segments = segmentize(line, 10.0, "e")
    assert len(segments) == 11
    assert abs(segments[-1].arc_length - 6.0) < 1e-9


def test_segmentize_shorter_than_one_segment():
    line = Polyline((Point2D(0, 0), Point2D(7, 0)))
    segments = segmentize(line, 10.0, "e")
    assert len(segments) == 1
    assert segments[0].arc_length == 7.0


def test_segmentize_rejects_bad_seg_len():
    line = Polyline((Point2D(0, 0), Point2D(7, 0)))
    with pytest.raises(GeometryError):
        segmentize(line, 0.0)
    with pytest.raises(GeometryError):
        segmentize(line, -1.0)


def test_segmentize_conserves_length_and_order(rng):
    for _ in range(25):
        p = random_polyline(rng, int(rng.integers(2, 12)))
        seg_len = float(rng.uniform(0.5, 400.0))
        segments = segmentize(p, seg_len, "e")
        total = polyline_length(p)
        assert abs(sum(s.arc_length for s in segments) - total) < 1e-6
        # contiguous coverage in order
        cursor = 0.0
        for s in segments:
            assert abs(s.offset - cursor) < 1e-9
            cursor += s.arc_length
        assert abs(cursor - total) < 1e-6
        # offset + own length never exceeds the parent
        for s in segments:
            assert s.offset + s.arc_length <= total + 1e-6
        # min emitted length rule
        if total > seg_len:
            assert all(s.arc_length >= seg_len / 2 - 1e-9 for s in segments)


def test_segment_endpoints_lie_on_parent():
    p = Polyline((Point2D(0, 0), Point2D(30, 0), Point2D(30, 40)))
    for s in segmentize(p, 12.0, "e"):
        assert point_to_polyline_distance(s.start, p) < 1e-9
        assert point_to_polyline_distance(s.end, p) < 1e-9


# -------------------------------------------------------------- hausdorff


def _points_to_segment_dist(px, py, s: Segment):
    # independent vectorized projection, clamped to the segment
    ax, ay = s.start.x, s.start.y
    dx, dy = s.end.x - ax, s.end.y - ay
    denom = dx * dx + dy * dy
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / denom, 0.0, 1.0)
    return np.sqrt((px - (ax + t * dx)) ** 2 + (py - (ay + t * dy)) ** 2)


def _hausdorff_sampling_oracle(a: Segment, b: Segment, n=10000) -> float:
    t = np.linspace(0.0, 1.0, n)

    def directed(p: Segment, q: Segment) -> float:
        px = p.start.x + t * (p.end.x - p.start.x)
        py = p.start.y + t * (p.end.y - p.start.y)
        return float(_points_to_segment_dist(px, py, q).max())

    return max(directed(a, b), directed(b, a))


def test_hausdorff_identity():
    a = seg(0, 0, 10, 0)
    assert hausdorff_distance(a, a) == 0.0


def test_hausdorff_parallel_offset():
    assert hausdorff_distance(seg(0, 0, 10, 0), seg(0, 5, 10, 5)) == 5.0


def test_hausdorff_slanted_vs_sampling_oracle():
    a = seg(0, 0, 10, 0)
    b = seg(0, 0, 10, 3)
    assert abs(hausdorff_distance(a, b) - _hausdorff_sampling_oracle(a, b)) < 1e-3


def test_hausdorff_symmetric_and_bounded(rng):
    for _ in range(50):
        ax, ay, bx, by, cx, cy, dx, dy = rng.uniform(-50, 50, size=8)
        if (ax, ay) == (bx, by) or (cx, cy) == (dx, dy):
            continue
        a = seg(ax, ay, bx, by)
        b = seg(cx, cy, dx, dy)
        h_ab = hausdorff_distance(a, b)
        assert h_ab == hausdorff_distance(b, a)
        mid_dist = math.dist((a.midpoint.x, a.midpoint.y), (b.midpoint.x, b.midpoint.y))
        chord_a = math.dist((a.start.x, a.start.y), (a.end.x, a.end.y))
        chord_b = math.dist((b.start.x, b.start.y), (b.end.x, b.end.y))
        assert h_ab >= mid_dist - (chord_a + chord_b) / 2 - 1e-9


def test_hausdorff_random_pairs_vs_sampling_oracle(rng):
    for _ in range(8):
        ax, ay, bx, by, cx, cy, dx, dy = rng.uniform(-30, 30, size=8)
        a = seg(ax, ay, bx, by)
        b = seg(cx, cy, dx, dy)
        assert abs(hausdorff_distance(a, b) - _hausdorff_sampling_oracle(a, b)) < 1e-3


# ------------------------------------------------------------------ angle


def test_angle_parallel_same_direction():
    assert segment_angle_deg(seg(0, 0, 10, 0), seg(5, 5, 15, 5)) == 0.0


def test_angle_perpendicular():
    assert segment_angle_deg(seg(0, 0, 10, 0), seg(0, 0, 0, 10)) == 90.0


def test_angle_diagonal():
    assert abs(segment_angle_deg(seg(0, 0, 1, 0), seg(0, 0, 1, 1)) - 45.0) < 1e-12


def test_angle_invariant_under_reversal_and_swap(rng):
    for _ in range(50):
        ax, ay, bx, by, cx, cy, dx, dy = rng.uniform(-50, 50, size=8)
        a = seg(ax, ay, bx, by)
        a_rev = seg(bx, by, ax, ay)
        b = seg(cx, cy, dx, dy)
        b_rev = seg(dx, dy, cx, cy)
        base = segment_angle_deg(a, b)
        assert 0.0 <= base <= 90.0
        assert abs(segment_angle_deg(a_rev, b) - base) < 1e-9
        assert abs(segment_angle_deg(a, b_rev) - base) < 1e-9
        assert abs(segment_angle_deg(b, a) - base) < 1e-9


# ----------------------------------------------------- point to polyline


def test_point_on_polyline_distance_zero():
    p = Polyline((Point2D(0, 0), Point2D(10, 0)))
    assert point_to_polyline_distance(Point2D(4, 0), p) == 0.0


def test_point_perpendicular_foot():
    p = Polyline((Point2D(0, 0), Point2D(10, 0)))
    assert point_to_polyline_distance(Point2D(5, 2), p) == 2.0


def test_point_to_polyline_vs_sampling_oracle(rng):
    for _ in range(5):
        p = random_polyline(rng, 20, scale=30.0)
        pt = Point2D(float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100)))
        samples = []
        for a, b in zip(p.vertices, p.vertices[1:]):
            t = np.linspace(0.0, 1.0, 10000)
            xs = a.x + t * (b.x - a.x)
            ys = a.y + t * (b.y - a.y)
            samples.append(np.sqrt((xs - pt.x) ** 2 + (ys - pt.y) ** 2).min())
        assert abs(point_to_polyline_distance(pt, p) - min(samples)) < 1e-3
