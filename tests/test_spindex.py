import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netqa.spindex import BucketJoin


def _as_sets(q, p, n_queries):
    found = [set() for _ in range(n_queries)]
    for i, j in zip(q.tolist(), p.tolist()):
        found[i].add(j)
    return found


def test_rejects_bad_cell_size():
    for side in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="side"):
            BucketJoin(np.zeros(1), np.zeros(1), side)


@st.composite
def points_and_boxes(draw):
    # coordinates near a projected origin or near 6.4e6 m, at the scale of
    # the bucket side, down to sides below the spacing of the doubles there
    base = draw(st.sampled_from([0.0, -400000.0, 6.4e6]))
    side = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.7, 5.0, 1000.0]))
    step = st.integers(-40, 40).map(lambda k: base + k * side * 0.37)
    points = draw(st.lists(st.tuples(step, step), max_size=60))
    boxes = []
    for _ in range(draw(st.integers(0, 12))):
        x, y = draw(step), draw(step)
        w, h = draw(st.integers(0, 12)) * side * 0.29, draw(st.integers(0, 12)) * side * 0.29
        boxes.append((x - w, y - h, x + w, y + h))
    return points, boxes, side


@settings(max_examples=300, deadline=None)
@given(points_and_boxes())
def test_query_is_superset_of_true_hits(case):
    points, boxes, side = case
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    box = np.array(boxes, dtype=float).reshape(-1, 4)
    q, p = BucketJoin(x, y, side).pairs(*box.T)
    found = _as_sets(q, p, len(boxes))
    for (xmin, ymin, xmax, ymax), hits in zip(boxes, found):
        inside = {i for i, (px, py) in enumerate(points) if xmin <= px <= xmax and ymin <= py <= ymax}
        assert inside <= hits
        # and exactly the points in the box's bucket range
        in_range = {
            i
            for i, (px, py) in enumerate(points)
            if math.floor(xmin / side) <= math.floor(px / side) <= math.floor(xmax / side)
            and math.floor(ymin / side) <= math.floor(py / side) <= math.floor(ymax / side)
        }
        assert hits == in_range
    assert len(set(zip(q.tolist(), p.tolist()))) == len(q)


def test_query_sorted_and_deduped():
    rng = np.random.default_rng(7)
    x, y = rng.uniform(0, 100, size=(2, 300))
    lo = rng.uniform(-10, 110, size=(2, 80))
    hi = lo + rng.uniform(0, 40, size=(2, 80))
    q, p = BucketJoin(x, y, 5.0).pairs(lo[0], lo[1], hi[0], hi[1])
    # grouped by query, in query order, and no (query, point) pair twice
    assert (np.diff(q) >= 0).all()
    assert len(set(zip(q.tolist(), p.tolist()))) == len(q)
    assert set(q.tolist()) <= set(range(80))


def test_query_point():
    join = BucketJoin(np.array([10.5, 50.0]), np.array([10.5, 50.0]), 2.0)
    px, py, r = np.array([9.5, 30.0]), np.array([9.5, 30.0]), 1.0
    q, p = join.pairs(px - r, py - r, px + r, py + r)
    assert list(zip(q.tolist(), p.tolist())) == [(0, 0)]


def test_empty_index_and_no_queries():
    q, p = BucketJoin(np.zeros(0), np.zeros(0), 1.0).pairs(*np.zeros((4, 3)))
    assert len(q) == len(p) == 0
    q, p = BucketJoin(np.ones(3), np.ones(3), 1.0).pairs(*np.zeros((4, 0)))
    assert len(q) == len(p) == 0
