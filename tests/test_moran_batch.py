"""Moran inference over one set of draws per weights build, against the
one-metric-a-call functions it replaced (copied into conftest.py)."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netqa import spatial
from netqa.errors import WeightsError, ZeroVarianceError
from netqa.pipeline import Pipeline, RunConfig
from netqa.spatial import build_weights, distance_band_scheme, global_moran, knn_scheme, local_moran, moran_batch

from conftest import reference_global_moran, reference_local_moran

SQRT3 = math.sqrt(3.0)
DEMO = Path(__file__).parent / "data" / "demo"


def hex_centroid(q, r, s=100.0):
    return (1.5 * s * q, SQRT3 * s * (r + q / 2.0))


def moran_bits(m):
    return (m.i.hex(), m.expected_i.hex(), m.pseudo_p.hex(), m.n_permutations, m.seed, m.n, m.scheme)


def lisa_bits(lisa):
    return (
        {c: v.hex() for c, v in lisa.local_i.items()},
        lisa.quadrant,
        {c: v.hex() for c, v in lisa.pseudo_p.items()},
        lisa.significant,
        lisa.alpha,
        lisa.n_permutations,
        lisa.seed,
        lisa.scheme,
    )


def outcome(fn, bits, *args):
    """``bits`` of fn's result, or the type and message of what it raised."""
    try:
        return bits(fn(*args))
    except (WeightsError, ZeroVarianceError) as exc:
        return type(exc), str(exc)


@st.composite
def weights_builds(draw):
    """Hex-lattice cells (equal distances) or free points, under KNN with k
    up to 12 or a band from below the lattice spacing (islands) to beyond
    the widest set (every other cell a neighbor)."""
    n = draw(st.sampled_from([40, 25, 12, 5, 3, 2]))
    if draw(st.booleans()):
        lattice = [(q, r) for q in range(7) for r in range(7)]
        cells = draw(st.lists(st.sampled_from(lattice), min_size=n, max_size=n, unique=True))
        cents = {c: hex_centroid(*c) for c in cells}
    else:
        coord = st.floats(0.0, 800.0, allow_nan=False)
        pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
        cents = {f"c{i:02d}": p for i, p in enumerate(pts)}
    # degrees above 8 are drawn first, where the lag's slot order matters
    if draw(st.booleans()):
        scheme = knn_scheme(min(n - 1, draw(st.sampled_from([12, 9, 6, 1]))))
    else:
        scheme = distance_band_scheme(draw(st.sampled_from([350.0, 2000.0, 260.0, 180.0, 50.0])))
    return build_weights(cents, scheme)


@st.composite
def metric_values(draw, ids):
    """Values over ``ids``: free floats, a few repeated levels, or constant."""
    kind = draw(st.sampled_from(["free", "levels", "constant"]))
    if kind == "constant":
        return dict.fromkeys(ids, draw(st.floats(-10.0, 10.0)))
    if kind == "levels":
        pool = draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=3))
        elements = st.sampled_from(pool)
    else:
        elements = st.floats(-1e3, 1e3, allow_nan=False)
    return {c: draw(elements) for c in ids}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_batch_equals_one_metric_at_a_time(data):
    w = data.draw(weights_builds())
    group = data.draw(st.lists(metric_values(w.ids), min_size=1, max_size=6))
    n_perm = data.draw(st.sampled_from([37, 2, 1]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    alpha = data.draw(st.sampled_from([0.05, 0.5]))
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):
            mp.setattr(spatial, "_BLOCK_ELEMENTS", 1)
        batch = moran_batch(group, w, n_perm, seed, alpha)
        assert len(batch) == len(group)
        for values, res in zip(group, batch):
            expected_global = outcome(reference_global_moran, moran_bits, values, w, n_perm, seed)
            expected_local = outcome(reference_local_moran, lisa_bits, values, w, n_perm, seed, alpha)
            # the thin wrappers raise what the references raise
            assert outcome(global_moran, moran_bits, values, w, n_perm, seed) == expected_global
            assert outcome(local_moran, lisa_bits, values, w, n_perm, seed, alpha) == expected_local
            if isinstance(res, Exception):
                # skipped with the message global_moran gives
                assert (type(res), str(res)) == expected_global
            else:
                moran, lisa = res
                assert moran_bits(moran) == expected_global
                assert lisa_bits(lisa) == expected_local


def test_batch_skips_in_the_order_global_moran_checks():
    w = build_weights({i: (100.0 * i, 0.0) for i in range(4)}, distance_band_scheme(50.0))
    varying = {i: float(i) for i in range(4)}
    constant = dict.fromkeys(range(4), 2.0)
    errors = moran_batch([varying, constant], w, 9, 1)
    assert [type(e) for e in errors] == [WeightsError, ZeroVarianceError]
    assert "every cell is an island" in str(errors[0])
    pair = build_weights({0: (0.0, 0.0), 1: (1.0, 0.0)}, knn_scheme(1))
    (error,) = moran_batch([{0: 1.0, 1: 1.0}], pair, 9, 1)
    assert str(error) == "global autocorrelation needs >= 3 cells, got 2"


def test_row_sums_beyond_8192_cells_equal_the_reference():
    # 95 x 95 square lattice: 9,025 cells, up to 8 neighbors within 1.5
    cents = {(x, y): (float(x), float(y)) for x in range(95) for y in range(95)}
    w = build_weights(cents, distance_band_scheme(1.5))
    assert w.n > 8192
    rng = np.random.default_rng(11)
    group = [{c: float(v) for c, v in zip(w.ids, rng.normal(size=w.n))} for _ in range(2)]
    group[1] = {c: round(v, 1) for c, v in group[1].items()}
    for values, (moran, lisa) in zip(group, moran_batch(group, w, 3, 5)):
        assert moran_bits(moran) == moran_bits(reference_global_moran(values, w, 3, 5))
        assert lisa_bits(lisa) == lisa_bits(reference_local_moran(values, w, 3, 5))


@pytest.mark.parametrize("n_perm", [0, -1])
def test_global_moran_rejects_fewer_than_one_permutation(n_perm):
    w = build_weights({i: (float(i), 0.0) for i in range(5)}, knn_scheme(2))
    values = {i: float(i * i) for i in range(5)}
    with pytest.raises(ValueError, match="n_perm >= 1"):
        global_moran(values, w, n_perm)
    with pytest.raises(ValueError, match="n_perm >= 1"):
        moran_batch([values], w, n_perm)


def test_demo_builds_each_cell_stream_once_per_weights_build(monkeypatch):
    streams = []
    real = spatial._cell_stream

    def counted(seed, i):
        streams.append(i)
        return real(seed, i)

    monkeypatch.setattr(spatial, "_cell_stream", counted)
    pipe = Pipeline(RunConfig.from_file(DEMO / "config.json"))
    results = pipe.autocorr()
    builds = {}  # weights object -> metrics evaluated on it
    for (_, metric), result in results.items():
        builds.setdefault(id(result["weights"]), (result["weights"], []))[1].append(metric)
    per_build = [int((w.degrees > 0).sum()) for w, _ in builds.values()]
    assert len(streams) == sum(per_build)
    # one metric a call would have built them once per metric
    assert sum(n * len(metrics) for n, (_, metrics) in zip(per_build, builds.values())) > len(streams)
    assert pipe.autocorr_groups == {"knn6": [metrics for _, metrics in builds.values()]}
