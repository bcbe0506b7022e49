import math

import numpy as np
import pytest

from netqa.errors import ConfigError
from netqa.geometry import hausdorff_distance, segment_angle_deg
from netqa.hexgrid import build_grid
from netqa.matching import (
    MatchConfig,
    match_datasets,
    match_summary,
    segmentize_dataset,
)

from conftest import make_dataset, rect_polygon


def brute_force_oracle(src_segments, dst_segments, cfg):
    """All-pairs matcher with its own selection loop; no spatial index."""
    results = []
    for s in src_segments:
        best_key = None
        best_id = None
        for d in dst_segments:
            mx = (s.start.x + s.end.x) / 2 - (d.start.x + d.end.x) / 2
            my = (s.start.y + s.end.y) / 2 - (d.start.y + d.end.y) / 2
            md = math.hypot(mx, my)
            if md > cfg.max_dist:
                continue
            h = hausdorff_distance(s, d)
            if h > cfg.max_hausdorff:
                continue
            ang = segment_angle_deg(s, d)
            if ang > cfg.max_angle:
                continue
            score = h + md + (ang / cfg.max_angle) * cfg.max_dist
            key = (score, d.segment_id)
            if best_key is None or key < best_key:
                best_key = key
                best_id = d.segment_id
        results.append((s.segment_id, best_id))
    return results


def grid_streets(n_ew, n_ns, spacing, length, offset=(0.0, 0.0), prefix=""):
    ox, oy = offset
    specs = []
    for i in range(n_ew):
        y = oy + i * spacing
        specs.append((f"{prefix}ew{i}", [(ox, y), (ox + length, y)]))
    for j in range(n_ns):
        x = ox + j * spacing
        specs.append((f"{prefix}ns{j}", [(x, oy), (x, oy + length)]))
    return specs


# ------------------------------------------------------------ basic cases


def test_self_match_is_total():
    ds = make_dataset("a", grid_streets(4, 4, 100, 300))
    twin = make_dataset("b", grid_streets(4, 4, 100, 300))
    records_a, records_b = match_datasets(ds, twin, MatchConfig())
    for records in (records_a, records_b):
        assert all(r.matched is not None for r in records)
        for r in records:
            assert r.matched_segment_id == r.segment_id  # own twin
            assert r.midpoint_dist == 0.0
            assert r.hausdorff == 0.0
            assert r.angle == 0.0


def test_parallel_lines_beyond_distance():
    a = make_dataset("a", [("a", [(0, 0), (200, 0)])])
    b = make_dataset("b", [("b", [(0, 20), (200, 20)])])
    records_a, records_b = match_datasets(a, b, MatchConfig(max_dist=15.0))
    assert all(r.matched is None for r in records_a)
    assert all(r.matched is None for r in records_b)


def test_perpendicular_rejected_parallel_accepted():
    # candidate streets run E-W; the other dataset has one parallel street
    # 5 m off and one perpendicular street crossing it
    a = make_dataset("a", [("ew", [(0, 0), (300, 0)])])
    b = make_dataset(
        "b",
        [
            ("par", [(0, 5), (300, 5)]),
            ("perp", [(150, -150), (150, 150)]),
        ],
    )
    cfg = MatchConfig(max_angle=30.0)
    records_a, _ = match_datasets(a, b, cfg)
    for r in records_a:
        assert r.matched is not None
        assert r.matched.parent_edge_id == "par"
        assert r.angle == 0.0
    segs_a = segmentize_dataset(a, cfg.seg_len)
    segs_b = segmentize_dataset(b, cfg.seg_len)
    oracle = brute_force_oracle(segs_a, segs_b, cfg)
    assert [(r.segment_id, r.matched_segment_id) for r in records_a] == oracle


def test_every_match_satisfies_thresholds():
    cfg = MatchConfig()
    a = make_dataset("a", grid_streets(5, 5, 60, 240))
    b = make_dataset("b", grid_streets(5, 5, 60, 240, offset=(4.0, 3.0)))
    records_a, records_b = match_datasets(a, b, cfg)
    for r in records_a + records_b:
        if r.matched is not None:
            assert r.midpoint_dist <= cfg.max_dist
            assert r.hausdorff <= cfg.max_hausdorff
            assert r.angle <= cfg.max_angle


def test_matches_identical_to_brute_force_oracle(rng):
    cfg = MatchConfig()
    specs_a = []
    specs_b = []
    for i in range(30):
        x, y = rng.uniform(0, 600, size=2)
        ang = rng.uniform(0, np.pi)
        length = rng.uniform(15, 80)
        dx, dy = length * np.cos(ang), length * np.sin(ang)
        specs_a.append((f"a{i}", [(float(x), float(y)), (float(x + dx), float(y + dy))]))
        jx, jy = rng.uniform(-12, 12, size=2)
        specs_b.append((f"b{i}", [(float(x + jx), float(y + jy)), (float(x + dx + jx), float(y + dy + jy))]))
    a = make_dataset("a", specs_a)
    b = make_dataset("b", specs_b)
    records_a, records_b = match_datasets(a, b, cfg)
    segs_a = segmentize_dataset(a, cfg.seg_len)
    segs_b = segmentize_dataset(b, cfg.seg_len)
    assert [(r.segment_id, r.matched_segment_id) for r in records_a] == brute_force_oracle(segs_a, segs_b, cfg)
    assert [(r.segment_id, r.matched_segment_id) for r in records_b] == brute_force_oracle(segs_b, segs_a, cfg)


def test_threads_do_not_change_results():
    a = make_dataset("a", grid_streets(6, 6, 80, 400))
    b = make_dataset("b", grid_streets(6, 6, 80, 400, offset=(3.0, 2.0)))
    r1a, r1b = match_datasets(a, b, MatchConfig())
    r4a, r4b = match_datasets(a, b, MatchConfig())
    assert [(r.segment_id, r.matched_segment_id) for r in r1a] == [(r.segment_id, r.matched_segment_id) for r in r4a]
    assert [(r.segment_id, r.matched_segment_id) for r in r1b] == [(r.segment_id, r.matched_segment_id) for r in r4b]


# -------------------------------------------------------------- properties


def test_shrinking_thresholds_never_adds_matches():
    a = make_dataset("a", grid_streets(4, 4, 70, 280))
    b = make_dataset("b", grid_streets(4, 4, 70, 280, offset=(6.0, 4.0)))
    base = MatchConfig()
    counts = []
    for cfg in (
        base,
        MatchConfig(max_dist=8.0, max_hausdorff=17.0),
        MatchConfig(max_dist=8.0, max_hausdorff=9.0),
        MatchConfig(max_dist=4.0, max_hausdorff=6.0, max_angle=10.0),
    ):
        records_a, _ = match_datasets(a, b, cfg)
        counts.append(sum(1 for r in records_a if r.matched is not None))
    assert counts == sorted(counts, reverse=True)


def test_translation_invariance():
    specs_a = grid_streets(3, 3, 90, 270)
    specs_b = grid_streets(3, 3, 90, 270, offset=(5.0, 0.0))
    shift = (12345.0, -6789.0)
    shifted_a = [(i, [(x + shift[0], y + shift[1]) for x, y in coords]) for i, coords in specs_a]
    shifted_b = [(i, [(x + shift[0], y + shift[1]) for x, y in coords]) for i, coords in specs_b]
    records, _ = match_datasets(make_dataset("a", specs_a), make_dataset("b", specs_b), MatchConfig())
    records_shifted, _ = match_datasets(
        make_dataset("a", shifted_a), make_dataset("b", shifted_b), MatchConfig()
    )
    assert [(r.segment_id, r.matched_segment_id) for r in records] == [
        (r.segment_id, r.matched_segment_id) for r in records_shifted
    ]


def test_directions_may_disagree_but_stay_bounded():
    # b contains a plus extra streets: a->b matches everything, b->a does not
    specs_a = grid_streets(3, 0, 100, 300)
    specs_b = grid_streets(3, 0, 100, 300) + grid_streets(3, 0, 100, 300, offset=(0, 1000), prefix="x")
    a = make_dataset("a", specs_a)
    b = make_dataset("b", specs_b)
    records_a, records_b = match_datasets(a, b, MatchConfig())
    grid = build_grid(rect_polygon(-50, -50, 500, 1500), 500000.0)
    summary_a = match_summary(records_a, grid)
    summary_b = match_summary(records_b, grid)
    assert summary_a.pct_matched_length == pytest.approx(100.0)
    assert summary_b.pct_matched_length == pytest.approx(50.0)
    assert summary_a.matched_length_m <= summary_a.total_length_m
    assert summary_b.matched_length_m <= summary_b.total_length_m


# ----------------------------------------------------------------- summary


def test_summary_all_matched():
    ds = make_dataset("a", grid_streets(3, 3, 100, 300))
    twin = make_dataset("b", grid_streets(3, 3, 100, 300))
    records, _ = match_datasets(ds, twin, MatchConfig())
    grid = build_grid(rect_polygon(-50, -50, 400, 400), 200000.0)
    summary = match_summary(records, grid)
    assert summary.pct_matched_count == 100.0
    assert summary.pct_matched_length == 100.0
    assert all(v == 100.0 for v in summary.per_cell_pct.values())
    assert summary.local_min_pct == summary.local_max_pct == summary.local_avg_pct == 100.0


def test_summary_half_matched_in_one_cell():
    # two 100 m streets in one big cell; only one has a counterpart
    a = make_dataset("a", [("m", [(100, 100), (200, 100)]), ("u", [(100, 140), (200, 140)])])
    b = make_dataset("b", [("m2", [(100, 102), (200, 102)])])
    records, _ = match_datasets(a, b, MatchConfig())
    grid = build_grid(rect_polygon(0, 0, 300, 300), 4000000.0)
    summary = match_summary(records, grid)
    assert len(summary.per_cell_pct) == 1
    (pct,) = summary.per_cell_pct.values()
    assert pct == pytest.approx(50.0)


def test_summary_known_overlap_share():
    # 10 streets of equal length; 6 duplicated in the other dataset
    specs_a = [(f"s{i}", [(0, i * 50), (100, i * 50)]) for i in range(10)]
    specs_b = [(f"t{i}", [(0, i * 50 + 2), (100, i * 50 + 2)]) for i in range(6)]
    records, _ = match_datasets(make_dataset("a", specs_a), make_dataset("b", specs_b), MatchConfig())
    grid = build_grid(rect_polygon(-100, -100, 800, 800), 4000000.0)
    summary = match_summary(records, grid)
    assert summary.pct_matched_length == pytest.approx(60.0)
    assert summary.pct_matched_count == pytest.approx(60.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        MatchConfig(seg_len=0.0)
    with pytest.raises(ConfigError):
        MatchConfig(max_hausdorff=5.0, max_dist=10.0)
    with pytest.raises(ConfigError):
        MatchConfig(max_angle=-1.0)


def test_empty_datasets():
    empty = make_dataset("a", [])
    other = make_dataset("b", [("e", [(0, 0), (50, 0)])])
    records_a, records_b = match_datasets(empty, other, MatchConfig())
    assert records_a == []
    assert all(r.matched is None for r in records_b)
