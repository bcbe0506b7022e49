"""The weights arrays against the dense n×n builder they replaced."""

import dataclasses
import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netqa import spatial
from netqa.spatial import build_weights, distance_band_scheme, knn_scheme

from conftest import reference_build_weights

SQRT3 = math.sqrt(3.0)


def hex_centroid(q, r, s=100.0):
    return (1.5 * s * q, SQRT3 * s * (r + q / 2.0))


@st.composite
def centroid_sets(draw):
    """Cell id -> centroid: hex-lattice cells (equal distances by symmetry),
    integer square-lattice points (exact ties), or free points, with some
    centroids repeated under further ids."""
    layout = draw(st.sampled_from(["hex", "square", "free"]))
    if layout == "hex":
        cells = draw(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=30))
        pts = [hex_centroid(q, r) for q, r in sorted(cells)]
    elif layout == "square":
        cells = draw(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=2, max_size=30))
        pts = [(100.0 * x, 100.0 * y) for x, y in sorted(cells)]
    else:
        coord = st.floats(-1000.0, 1000.0, allow_nan=False)
        pts = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=30))
    repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=4))
    pts += [pts[i] for i in repeats]
    # shuffled ids, so index order is not drawing order
    ids = draw(st.permutations(range(len(pts))))
    return {f"c{i:02d}": p for i, p in zip(ids, pts)}


@st.composite
def schemes(draw, n):
    if draw(st.booleans()):
        # k = n - 1 (every other cell) is drawn often
        return knn_scheme(draw(st.one_of(st.just(n - 1), st.integers(1, n - 1))))
    # from below the lattice spacing (all islands) to beyond the widest set
    return distance_band_scheme(draw(st.sampled_from([50.0, 100.0, 150.0, 173.3, 200.0, 2000.0, 3000.0])))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_weights_equal_the_dense_builder(data):
    cents = data.draw(centroid_sets())
    scheme = data.draw(schemes(len(cents)))
    w = build_weights(cents, scheme)
    ref = reference_build_weights(cents, scheme)
    assert w.ids == ref.ids
    assert w.scheme == ref.scheme
    assert w.neighbors == ref.neighbors
    assert w.weights == ref.weights
    assert w.islands == ref.islands
    assert w.s0.hex() == ref.s0.hex()
    assert len(w.col) == sum(len(row) for row in ref.neighbors)
    z = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=w.n, max_size=w.n)))
    lag, ref_lag = w.lag(z), ref.lag(z)
    # all islands: the dense builder's np.bincount of no entries gives
    # integer zeros; the lag is float whatever the weights
    assert lag.dtype == np.float64
    assert [float(x).hex() for x in lag.tolist()] == [float(x).hex() for x in ref_lag.tolist()]


def test_lag_of_all_islands_is_float_zeros():
    w = build_weights({i: (100.0 * i, 0.0) for i in range(4)}, distance_band_scheme(50.0))
    assert w.n == 4 and len(w.col) == 0
    lag = w.lag(np.array([1.0, -2.0, 3.0, 0.5]))
    assert lag.dtype == np.float64
    assert [x.hex() for x in lag.tolist()] == [(0.0).hex()] * 4


def test_weights_hold_flat_arrays_only():
    assert [f.name for f in dataclasses.fields(spatial.SpatialWeights)] == ["ids", "scheme", "row", "col", "weight"]
    w = build_weights({i: (float(i), 0.0) for i in range(5)}, knn_scheme(2))
    assert w.row.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    assert w.col.tolist() == [1, 2, 0, 2, 1, 3, 2, 4, 3, 2]
    assert w.weight.tolist() == [0.5] * 10


def test_build_allocates_no_n_by_n_array():
    # 1,500 cells: one n×n float matrix alone would take 18 MB
    cents = {(q, r): hex_centroid(q, r) for q in range(50) for r in range(30)}
    for scheme in (knn_scheme(6), distance_band_scheme(180.0)):
        tracemalloc.start()
        try:
            build_weights(cents, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
