"""The columnar segmentation and matcher against the scalar references, bit for bit."""

from dataclasses import astuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netqa import matching
from netqa.errors import GeometryError
from netqa.matching import _LENGTH_EPS, MatchConfig, match_datasets, match_tables, segment_table, segmentize_dataset

from conftest import _cumulative_lengths, make_dataset, reference_match, reference_match_direction, segmentize

DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3)]


def _bits(values):
    # hex keeps every bit, so 0.0 and -0.0 or a 1-ulp difference compare unequal
    return tuple(None if v is None else v.hex() for v in values)


def exact(records):
    return [
        (r.segment_id, r.matched_segment_id, *_bits((r.midpoint_dist, r.hausdorff, r.angle))) for r in records
    ]


def exact_reference(src, dst, cfg):
    records, counts = reference_match(src, dst, cfg)
    return [(sid, mid, *_bits(floats)) for sid, mid, *floats in records], counts


@st.composite
def lattice_case(draw):
    """Two street networks on a lattice of ``unit`` and matching thresholds
    in whole units, so that shifted copies put midpoints at exactly
    ``max_dist`` and mirrored copies tie on score."""
    unit = draw(st.sampled_from([1.0, 2.5, 7.5]))
    x0, y0 = draw(st.sampled_from([(0.0, 0.0), (400000.0, 5800000.0), (-12.5, 3.75)]))
    k = draw(st.integers(2, 5))
    cfg = MatchConfig(
        seg_len=draw(st.integers(2, 4)) * unit,
        max_dist=k * unit,
        max_hausdorff=(k + draw(st.integers(0, 2))) * unit,
        max_angle=draw(st.sampled_from([20.0, 30.0, 45.0])),
    )

    def coords(i, j, legs):
        pts = [(i, j)]
        for (dx, dy), n in legs:
            pts.append((pts[-1][0] + n * dx, pts[-1][1] + n * dy))
        return [(x0 + x * unit, y0 + y * unit) for x, y in pts]

    leg = st.tuples(st.sampled_from(DIRECTIONS), st.integers(1, 4))
    street = st.tuples(st.integers(0, 20), st.integers(0, 20), st.lists(leg, min_size=1, max_size=2))
    streets_a = draw(st.lists(street, min_size=1, max_size=6))
    offset = st.integers(-k - 1, k + 1)
    streets_b = []
    for i, j, legs in streets_a:
        action = draw(st.sampled_from(["drop", "shift", "mirror"]))
        if action == "shift":
            streets_b.append((i + draw(offset), j + draw(offset), legs))
        elif action == "mirror":
            # one copy on each side: equal distances, so the id breaks the tie
            ox, oy = draw(st.sampled_from([(0, 1), (1, 0), (1, 1)]))
            m = draw(st.integers(1, k))
            streets_b += [(i + m * ox, j + m * oy, legs), (i - m * ox, j - m * oy, legs)]
    streets_b += draw(st.lists(street, max_size=4))
    # numbering b9 before b10 etc.: string order differs from insertion order
    numbers = draw(st.permutations(range(len(streets_b))))
    specs_a = [(f"a{n}", coords(*s)) for n, s in enumerate(streets_a)]
    specs_b = [(f"b{n}", coords(*s)) for n, s in zip(numbers, streets_b)]
    return make_dataset("a", specs_a), make_dataset("b", specs_b), cfg


@settings(max_examples=60, deadline=None)
@given(case=lattice_case())
def test_matches_scalar_reference_bit_for_bit(case):
    a, b, cfg = case
    counts = []
    records_a, records_b = match_datasets(a, b, cfg, counts)
    segs_a = segmentize_dataset(a, cfg.seg_len)
    segs_b = segmentize_dataset(b, cfg.seg_len)
    for records, c, src, dst in ((records_a, counts[0], segs_a, segs_b), (records_b, counts[1], segs_b, segs_a)):
        expected, pair_counts = exact_reference(src, dst, cfg)
        assert exact(records) == expected
        assert [r.segment for r in records] == src
        assert (c.pairs_within_max_dist, c.rejected_hausdorff, c.rejected_angle, c.accepted_pairs) == pair_counts
        assert c.segments == len(src)
        assert c.matched_segments == sum(r.matched is not None for r in records)


def test_mirrored_tie_breaks_on_segment_id_string_order():
    # b9 and b10 lie 5 m either side of a: every score ties, and "b10" < "b9"
    a = make_dataset("a", [("a", [(0, 0), (100, 0)])])
    b = make_dataset("b", [("b9", [(0, 5), (100, 5)]), ("b10", [(0, -5), (100, -5)])])
    cfg = MatchConfig()
    records, _ = match_datasets(a, b, cfg)
    assert {r.matched.parent_edge_id for r in records} == {"b10"}
    expected, _ = exact_reference(segmentize_dataset(a, cfg.seg_len), segmentize_dataset(b, cfg.seg_len), cfg)
    assert exact(records) == expected


def test_midpoint_at_exactly_max_dist_matches():
    a = make_dataset("a", [("a", [(0, 0), (100, 0)])])
    # b's midpoints are exactly max_dist away, c's one ulp further
    beyond = 15.000000000000002
    b = make_dataset("b", [("b", [(0, 15), (100, 15)]), ("c", [(0, -beyond), (100, -beyond)])])
    records, _ = match_datasets(a, b, MatchConfig(max_dist=15.0, max_hausdorff=17.0))
    assert all(r.matched.parent_edge_id == "b" and r.midpoint_dist == 15.0 for r in records)


def test_segment_whose_squared_length_underflows_matches_reference():
    # dx * dx underflows to 0, so point_segment_distance takes its
    # denom == 0 branch; b's start lies straight above a's
    a = make_dataset("a", [("t", [(0.0, 0.0), (1e-170, 0.0)])])
    b = make_dataset("b", [("u", [(0.0, 3.0), (4.0, 3.0)])])
    cfg = MatchConfig()
    records_a, records_b = match_datasets(a, b, cfg)
    segs_a, segs_b = segmentize_dataset(a, cfg.seg_len), segmentize_dataset(b, cfg.seg_len)
    assert exact(records_a) == exact_reference(segs_a, segs_b, cfg)[0]
    assert exact(records_b) == exact_reference(segs_b, segs_a, cfg)[0]
    assert records_a[0].hausdorff == 5.0


def test_block_of_one_source_gives_identical_records(monkeypatch):
    specs_a = [(f"a{i}", [(0, 40 * i), (300, 40 * i + 7)]) for i in range(8)]
    specs_a += [(f"v{i}", [(37 * i, 0), (37 * i + 3, 300)]) for i in range(8)]
    specs_b = [(f"b{i}", [(x + 2.5, y - 1.5) for x, y in coords]) for i, (_, coords) in enumerate(specs_a)]
    a, b = make_dataset("a", specs_a), make_dataset("b", specs_b)
    counts = []
    records = match_datasets(a, b, MatchConfig(), counts)
    monkeypatch.setattr(matching, "_BLOCK_SOURCES", 1)
    counts_one = []
    assert match_datasets(a, b, MatchConfig(), counts_one) == records
    assert counts_one == counts
    assert sum(r.matched is not None for r in records[0]) > 0


def _column_bits(columns):
    # the target column, and every bit of the float columns
    target, *floats = columns
    return target.tolist(), [c.tobytes() for c in floats]


@settings(max_examples=60, deadline=None)
@given(
    case=lattice_case(),
    swap=st.booleans(),
    empty=st.sampled_from([None, "first", "second"]),
    block=st.sampled_from([1, matching._BLOCK_SOURCES]),
)
def test_one_pass_equals_the_kernel_run_once_per_direction(case, swap, empty, block):
    # mirrored copies tie on score in the direction from the copied network,
    # so with the networks swapped they tie in the second direction, whose
    # winners are kept across blocks; blocks of one source cross the most
    a, b, cfg = case
    if swap:
        a, b = b, a
    if empty == "first":
        a = make_dataset("a", [])
    elif empty == "second":
        b = make_dataset("b", [])
    with mock.patch.object(matching, "_BLOCK_SOURCES", block):
        forward, backward = match_tables(a, b, cfg)
    assert forward.segments is backward.targets and forward.targets is backward.segments
    for table in (forward, backward):
        columns, pair_counts = reference_match_direction(table.segments, table.targets, cfg)
        assert _column_bits((table.target, table.midpoint_dist, table.hausdorff, table.angle)) == _column_bits(columns)
        c = table.counts
        assert (c.pairs_within_max_dist, c.rejected_hausdorff, c.rejected_angle, c.accepted_pairs) == pair_counts
        assert c.segments == len(table.segments)
        assert c.matched_segments == int((columns[0] >= 0).sum())
    # both directions judge the same pairs
    assert astuple(forward.counts)[1:5] == astuple(backward.counts)[1:5]


# ------------------------------------------------- segmentation as columns


def _segment_bits(segments):
    return [
        (s.parent_edge_id, s.index, *(v.hex() for v in (s.start.x, s.start.y, s.end.x, s.end.y, s.offset, s.arc_length)))
        for s in segments
    ]


def _reference_segments(dataset, seg_len):
    return [s for e in dataset.edges for s in segmentize(e.geometry, seg_len, e.id)]


@st.composite
def segmentation_case(draw):
    """Edges whose lengths sit on segmentize's rules (at most ``seg_len``,
    exact multiples, remainders of exactly half or within _LENGTH_EPS) and
    chains that revisit vertices or take steps too small to change the
    cumulative length, so its bisection meets repeated values."""
    seg_len = draw(st.sampled_from([0.1, 1.0, 2.5, 7.3, 10.0]))
    x0, y0 = draw(st.sampled_from([(0.0, 0.0), (400000.0, 5800000.0), (-12.5, 3.75)]))
    specs = []
    for n in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            k = draw(st.integers(0, 5))
            rest = draw(
                st.sampled_from(
                    [0.0, seg_len / 2, seg_len / 2 * (1 - 1e-15), 0.3 * seg_len, seg_len, _LENGTH_EPS, _LENGTH_EPS / 2]
                )
            )
            length = k * seg_len + rest or seg_len
            ux, uy = draw(st.sampled_from([(1.0, 0.0), (0.0, -1.0), (0.6, 0.8)]))
            start = (x0, y0 + 3.0 * n)
            coords = [start, (start[0] + ux * length, start[1] + uy * length)]
        else:
            coords = [(x0, y0)]
            for step in draw(st.lists(st.sampled_from(["leg", "back", "tiny"]), min_size=1, max_size=8)):
                x, y = coords[-1]
                if step == "leg":
                    (dx, dy), m = draw(st.sampled_from(DIRECTIONS)), draw(st.integers(1, 9))
                    nxt = (x + dx * m * seg_len / 4, y + dy * m * seg_len / 4)
                elif step == "back" and len(coords) > 1:
                    nxt = coords[-2]
                else:
                    nxt = (x + draw(st.sampled_from([1e-300, 5e-15, 1e-9])), y)
                if nxt != coords[-1]:
                    coords.append(nxt)
            if len(coords) < 2:
                coords.append((x0 + seg_len, y0))
        specs.append((f"e{n}", coords))
    return make_dataset("d", specs), seg_len


@settings(max_examples=200, deadline=None)
@given(case=segmentation_case())
def test_segment_table_equals_segmentize_bit_for_bit(case):
    dataset, seg_len = case
    try:
        expected = _segment_bits(_reference_segments(dataset, seg_len))
    except GeometryError:  # a loop cut into one piece is degenerate
        with pytest.raises(GeometryError):
            segment_table(dataset, seg_len)
        return
    table = segment_table(dataset, seg_len)
    assert _segment_bits(table.segments()) == expected
    assert [dataset.edges[e].id for e in table.edge.tolist()] == [s.parent_edge_id for s in table.segments()]


def test_segment_table_where_a_step_vanishes_in_the_cumulative_length():
    # back to the origin after 200 m, then a step of 5e-15 m: the
    # cumulative length repeats 200.0, and a cut at exactly 200 m must take
    # the last vertex at that length, as _point_at's bisection does
    coords = [(0.0, 0.0), (100.0, 0.0), (0.0, 0.0), (5e-15, 0.0), (5e-15, 35.0)]
    dataset = make_dataset("d", [("e", coords)])
    cum = _cumulative_lengths(dataset.edges[0].geometry)
    assert cum[2] == cum[3] == 200.0
    for seg_len in (10.0, 20.0, 25.0, 50.0, 100.0):
        table = segment_table(dataset, seg_len)
        assert _segment_bits(table.segments()) == _segment_bits(_reference_segments(dataset, seg_len))


def test_segment_table_rejects_a_degenerate_segment_like_segmentize():
    # a closed loop merged into one piece starts and ends at the same point
    dataset = make_dataset("d", [("ok", [(0, 0), (50, 0)]), ("loop", [(0, 0), (3, 0), (3, 3), (0, 0)])])
    with pytest.raises(GeometryError, match="loop"):
        _reference_segments(dataset, 10.0)
    with pytest.raises(GeometryError, match="loop"):
        segment_table(dataset, 10.0)


def test_segment_table_of_an_empty_dataset():
    table = segment_table(make_dataset("d", []), 10.0)
    assert len(table) == 0 and table.ends.shape == (0, 4) and table.segments() == []
