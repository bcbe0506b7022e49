import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from netqa import spatial
from netqa.errors import WeightsError, ZeroVarianceError
from netqa.spatial import (
    _sample_others,
    build_weights,
    distance_band_scheme,
    global_moran,
    knn_scheme,
    local_moran,
)

SQRT3 = math.sqrt(3.0)


def hex_centroid(q, r, s=1.0):
    return (1.5 * s * q, SQRT3 * s * (r + q / 2.0))


def hex_block(n_q, n_r):
    return {(q, r): hex_centroid(q, r) for q in range(n_q) for r in range(n_r)}


# 40 frozen values for the 8x5 block, row-major in (q, r)
HAND_VALUES = [
    1.06, 4.05, 1.09, 6.13, 3.16, 2.58, -4.39, 4.46, -2.94, -2.51,
    -1.09, 12.94, 11.93, 6.58, -4.75, 3.78, 3.21, -1.33, 2.79, 3.43,
    1.86, 10.63, 2.85, 1.04, 1.73, 14.69, 10.17, -4.21, 1.1, 14.59,
    10.98, -0.82, 13.13, 7.8, -4.58, -4.83, 2.63, 9.97, 3.88, 7.3,
]


@pytest.fixture
def block_40():
    cells = [(q, r) for q in range(8) for r in range(5)]
    cents = {c: hex_centroid(*c) for c in cells}
    values = {c: v for c, v in zip(cells, HAND_VALUES)}
    return cents, values


def global_oracle(values, w):
    """Double-loop cross-product formula."""
    v = np.array([values[i] for i in w.ids])
    z = v - v.mean()
    num = 0.0
    s0 = 0.0
    for i, (nbrs, wts) in enumerate(zip(w.neighbors, w.weights)):
        for j, wij in zip(nbrs, wts):
            num += wij * z[i] * z[j]
            s0 += wij
    return len(v) / s0 * num / float((z * z).sum())


def local_oracle(values, w):
    """Direct per-cell formula: (n-1) * z_i * lag_i / sum(z^2)."""
    v = np.array([values[i] for i in w.ids])
    z = v - v.mean()
    den = float((z * z).sum())
    out = {}
    for i, (nbrs, wts) in enumerate(zip(w.neighbors, w.weights)):
        lag = sum(wij * z[j] for j, wij in zip(nbrs, wts))
        out[w.ids[i]] = (len(v) - 1) * z[i] * lag / den
    return out


# ----------------------------------------------------------------- weights


def test_knn_collinear_cells():
    cents = {"a": (0.0, 0.0), "b": (10.0, 0.0), "c": (25.0, 0.0)}
    w = build_weights(cents, knn_scheme(1))
    by_id = dict(zip(w.ids, w.neighbors))
    assert w.ids == ("a", "b", "c")
    assert by_id["a"] == (1,)  # nearer endpoint is b
    assert by_id["b"] == (0,)  # a at 10 beats c at 15
    assert by_id["c"] == (1,)


def test_distance_band_smaller_than_spacing(caplog):
    import logging

    cents = {i: (float(i * 100), 0.0) for i in range(5)}
    with caplog.at_level(logging.WARNING):
        w = build_weights(cents, distance_band_scheme(50.0))
    assert all(len(nbrs) == 0 for nbrs in w.neighbors)
    assert len(w.islands) == 5
    assert "no neighbors" in caplog.text


def test_knn_needs_enough_cells():
    cents = {i: (float(i), 0.0) for i in range(5)}
    with pytest.raises(WeightsError):
        build_weights(cents, knn_scheme(6))
    with pytest.raises(WeightsError):
        build_weights({}, knn_scheme(1))


def test_knn_matches_brute_force_sort_oracle(rng):
    cents = {i: (float(x), float(y)) for i, (x, y) in enumerate(rng.uniform(0, 1000, size=(50, 2)))}
    w = build_weights(cents, knn_scheme(6))
    ids = w.ids
    for i, me in enumerate(ids):
        ranked = sorted(
            ((math.dist(cents[me], cents[other]), j) for j, other in enumerate(ids) if other != me),
        )
        oracle = tuple(j for _, j in ranked[:6])
        assert set(w.neighbors[i]) == set(oracle)
    # rows standardized
    for row in w.weights:
        assert sum(row) == pytest.approx(1.0)


def test_knn_tie_break_by_cell_id():
    # four cells at the corners of a square: the two equidistant choices
    # for each corner's 2nd neighbor resolve to the lower cell index
    cents = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0), "d": (1.0, 1.0)}
    w = build_weights(cents, knn_scheme(2))
    by_id = dict(zip(w.ids, w.neighbors))
    # for "d" (index 3): b (index 1) and c (index 2) both at distance 1
    assert by_id["d"] == (1, 2)
    # for "a" (index 0): b (1) and c (2) both at distance 1 -> id order
    assert by_id["a"] == (1, 2)


def test_distance_band_inclusive():
    cents = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (250.0, 0.0)}
    w = build_weights(cents, distance_band_scheme(100.0))
    assert w.neighbors[0] == (1,)
    assert w.neighbors[1] == (0,)
    assert w.neighbors[2] == ()


# ------------------------------------------------------------ global moran


def test_constant_values_raise():
    cents = hex_block(4, 4)
    w = build_weights(cents, knn_scheme(6))
    values = {c: 7.0 for c in cents}
    with pytest.raises(ZeroVarianceError):
        global_moran(values, w, n_perm=99, seed=3)
    with pytest.raises(ZeroVarianceError):
        local_moran(values, w, n_perm=99, seed=3)


def test_too_few_cells_raise():
    cents = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    w = build_weights(cents, knn_scheme(1))
    with pytest.raises(WeightsError):
        global_moran({0: 1.0, 1: 2.0}, w, n_perm=9, seed=1)


def test_checkerboard_negative():
    cents = hex_block(8, 5)
    w = build_weights(cents, knn_scheme(6))
    values = {(q, r): float(q % 2) for q, r in cents}
    res = global_moran(values, w, n_perm=199, seed=5)
    assert res.i < 0
    assert res.i == pytest.approx(global_oracle(values, w), abs=1e-12)


def test_two_block_strongly_positive():
    cents = hex_block(8, 5)
    w = build_weights(cents, knn_scheme(6))
    values = {(q, r): (10.0 if q < 4 else 0.0) for q, r in cents}
    res = global_moran(values, w, n_perm=199, seed=5)
    # frozen from the double-loop oracle: 0.80833...
    assert res.i == pytest.approx(0.8083333333333333, abs=1e-12)
    assert res.i > 0.5
    assert res.i == pytest.approx(global_oracle(values, w), abs=1e-12)
    assert res.pseudo_p <= 0.05


def test_hand_fixture_matches_double_loop_oracle(block_40):
    cents, values = block_40
    w = build_weights(cents, knn_scheme(6))
    res = global_moran(values, w, n_perm=999, seed=11)
    # frozen oracle value for the hand-assigned fixture
    assert res.i == pytest.approx(-0.00945549781824254, abs=1e-12)
    assert res.i == pytest.approx(global_oracle(values, w), abs=1e-12)
    assert res.expected_i == pytest.approx(-1.0 / 39.0)
    assert 0.0 < res.pseudo_p <= 1.0


def test_global_seed_reproducible(block_40):
    cents, values = block_40
    w = build_weights(cents, knn_scheme(6))
    a = global_moran(values, w, n_perm=499, seed=23)
    b = global_moran(values, w, n_perm=499, seed=23)
    assert a.pseudo_p == b.pseudo_p
    c = global_moran(values, w, n_perm=499, seed=24)
    assert a.i == c.i  # statistic independent of seed


def test_global_affine_invariance(block_40):
    cents, values = block_40
    w = build_weights(cents, knn_scheme(6))
    base = global_moran(values, w, n_perm=99, seed=2).i
    scaled = {c: 3.5 * v + 11.0 for c, v in values.items()}
    assert global_moran(scaled, w, n_perm=99, seed=2).i == pytest.approx(base, abs=1e-12)
    flipped = {c: -2.0 * v for c, v in values.items()}
    assert abs(global_moran(flipped, w, n_perm=99, seed=2).i) == pytest.approx(abs(base), abs=1e-12)


def test_missing_cell_value_raises(block_40):
    cents, values = block_40
    w = build_weights(cents, knn_scheme(6))
    del values[(0, 0)]
    with pytest.raises(WeightsError):
        global_moran(values, w, n_perm=9, seed=1)


# ------------------------------------------------------------- local moran


def test_local_matches_direct_formula_oracle(block_40):
    cents, values = block_40
    w = build_weights(cents, knn_scheme(6))
    lisa = local_moran(values, w, n_perm=99, seed=11)
    oracle = local_oracle(values, w)
    for cell, expected in oracle.items():
        assert lisa.local_i[cell] == pytest.approx(expected, abs=1e-12)


def test_local_sum_identity(block_40):
    # sum of local I == global I * S0 * (n-1) / n, the exact algebraic
    # relation of the implemented formulation
    cents, values = block_40
    w = build_weights(cents, knn_scheme(6))
    res = global_moran(values, w, n_perm=9, seed=1)
    lisa = local_moran(values, w, n_perm=9, seed=1)
    n = len(cents)
    assert sum(lisa.local_i.values()) == pytest.approx(res.i * w.s0 * (n - 1) / n, abs=1e-12)


def test_plateau_quadrants_and_significance():
    cents = hex_block(8, 8)
    w = build_weights(cents, knn_scheme(6))
    plateau = {(q, r) for q in (3, 4, 5) for r in (3, 4, 5)}
    values = {c: (10.0 if c in plateau else 0.0) for c in cents}
    lisa = local_moran(values, w, n_perm=999, seed=7, alpha=0.05)
    # plateau interior: all six neighbors high
    assert lisa.quadrant[(4, 4)] == "HH"
    assert lisa.significant[(4, 4)]
    assert lisa.pseudo_p[(4, 4)] <= 0.01
    # all plateau cells read HH (high value, positive lag)
    for cell in plateau:
        assert lisa.quadrant[cell] == "HH"
    # low cells touching the plateau read LH
    idx_of = {cid: i for i, cid in enumerate(w.ids)}
    for cell in cents:
        if cell in plateau:
            continue
        nbr_cells = {w.ids[j] for j in w.neighbors[idx_of[cell]]}
        if nbr_cells & plateau:
            assert lisa.quadrant[cell] == "LH"


def test_sign_flip_swaps_quadrants_exactly(block_40):
    cents, values = block_40
    w = build_weights(cents, knn_scheme(6))
    lisa = local_moran(values, w, n_perm=199, seed=3)
    flipped = local_moran({c: -v for c, v in values.items()}, w, n_perm=199, seed=3)
    swap = {"HH": "LL", "LL": "HH", "HL": "LH", "LH": "HL"}
    for cell in values:
        assert flipped.quadrant[cell] == swap[lisa.quadrant[cell]]
        assert flipped.local_i[cell] == lisa.local_i[cell]  # exact
        assert flipped.pseudo_p[cell] == lisa.pseudo_p[cell]  # exact
        assert flipped.significant[cell] == lisa.significant[cell]


def test_local_pseudo_p_bit_reproducible_across_threads(block_40):
    cents, values = block_40
    w = build_weights(cents, knn_scheme(6))
    serial = local_moran(values, w, n_perm=999, seed=40)
    parallel = local_moran(values, w, n_perm=999, seed=40)
    assert serial.pseudo_p == parallel.pseudo_p
    assert serial.local_i == parallel.local_i
    again = local_moran(values, w, n_perm=999, seed=40)
    assert serial.pseudo_p == again.pseudo_p
    for p in serial.pseudo_p.values():
        assert 0.0 < p <= 1.0


def test_quadrant_labels_affine_invariant(block_40):
    cents, values = block_40
    w = build_weights(cents, knn_scheme(6))
    base = local_moran(values, w, n_perm=49, seed=9)
    scaled = local_moran({c: 4.0 * v + 3.0 for c, v in values.items()}, w, n_perm=49, seed=9)
    assert scaled.quadrant == base.quadrant


def test_islands_get_neutral_results():
    cents = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 0.0), 3: (1000.0, 0.0)}
    w = build_weights(cents, distance_band_scheme(15.0))
    values = {0: 1.0, 1: 5.0, 2: 2.0, 3: 9.0}
    lisa = local_moran(values, w, n_perm=99, seed=1)
    assert lisa.local_i[3] == 0.0
    assert lisa.pseudo_p[3] == 1.0
    assert not lisa.significant[3]


# --------------------------------------------------------- neighbor sampler


def test_sampler_uniform_over_all_subsets():
    # cell 7 of 8 draws 3 of the other 7: every one of the C(7,3) = 35
    # subsets should come up equally often
    per_subset = 200
    subsets = list(itertools.combinations(range(7), 3))
    u = np.random.default_rng(2024).random((3, 1, per_subset * len(subsets)))
    picks = _sample_others(u, 8, np.array([7]))[:, 0, :]
    counts = Counter(tuple(sorted(col)) for col in picks.T.tolist())
    assert set(counts) == set(subsets)
    chi2 = sum((counts[sub] - per_subset) ** 2 / per_subset for sub in subsets)
    # 99.9% quantile of the chi-square distribution with 34 degrees of freedom
    assert chi2 < 65.25


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), data=st.data())
def test_sampler_draws_distinct_in_range_never_self(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    cells = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)))
    uniforms = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    u = data.draw(hnp.arrays(np.float64, (k, len(cells), 8), elements=uniforms))
    picks = _sample_others(u, n, cells)
    assert picks.shape == u.shape
    assert picks.min() >= 0 and picks.max() < n
    for b, cell in enumerate(cells):
        for col in picks[:, b, :].T:
            assert len(set(col.tolist())) == k
            assert cell not in col


def lisa_p_reference(values, w, lisa, n_perm, seed):
    """One cell and one permutation at a time, with the same streams."""
    v = np.array([values[c] for c in w.ids])
    z = v - v.mean()
    n = len(z)
    den = float((z * z).sum())
    out = {}
    for i, nbrs in enumerate(w.neighbors):
        k = len(nbrs)
        if k == 0:
            out[w.ids[i]] = 1.0
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        u = rng.random((k, n_perm))
        tail = 0
        for p in range(n_perm):
            chosen = []
            for s in range(k):
                top = n - 1 - k + s
                t = int(u[s, p] * (top + 1))
                chosen.append(top if t in chosen else t)
            others = [j + (j >= i) for j in chosen]
            assert i not in others and len(set(others)) == k
            acc = z[others[0]]
            for j in others[1:]:
                acc += z[j]
            sim = (n - 1) * z[i] * (acc / k) / den
            tail += bool(sim >= lisa.local_i[w.ids[i]])
        tail = min(tail, n_perm - tail)
        out[w.ids[i]] = (tail + 1.0) / (n_perm + 1.0)
    return out


def test_local_pseudo_p_matches_scalar_reference(monkeypatch):
    # distance band over a hex block: degrees 2..6, plus one far island
    cents = hex_block(6, 4)
    cents[(50, 50)] = (500.0, 500.0)
    values = {c: float(v) for c, v in zip(sorted(cents), np.random.default_rng(5).normal(size=len(cents)))}
    values[(0, 0)] = 8.0
    values[(1, 0)] = 7.0
    w = build_weights(cents, distance_band_scheme(1.8))
    assert len({len(nbrs) for nbrs in w.neighbors}) >= 4
    assert w.islands == ((50, 50),)

    lisa = local_moran(values, w, n_perm=99, seed=17)
    assert lisa.pseudo_p == lisa_p_reference(values, w, lisa, 99, 17)
    assert lisa.pseudo_p[(50, 50)] == 1.0
    assert not lisa.significant[(50, 50)]
    assert any(lisa.significant.values())

    # one cell per block gives the same bytes as the default block size
    monkeypatch.setattr(spatial, "_BLOCK_ELEMENTS", 1)
    assert local_moran(values, w, n_perm=99, seed=17) == lisa
