import logging
import math

import numpy as np
import pytest

from netqa.completeness import (
    LengthPolicy,
    build_density_surface,
    correlate,
    dataset_length_totals,
    density_difference,
    infrastructure_length,
    polygon_aggregate,
    polygon_compare,
)
from netqa.errors import ConfigError, GridMismatchError, ZeroVarianceError
from netqa.hexgrid import build_grid
from netqa.ingest import Dataset

from conftest import make_edge, rect_polygon


# ------------------------------------------------------------ length policy


def test_centerline_bidirectional_doubles():
    edge = make_edge("e", [(0, 0), (100, 0)], model="centerline", direction="bidirectional")
    assert infrastructure_length(edge, LengthPolicy.default()) == 200.0


def test_separate_geometry_keeps_raw_length():
    edge = make_edge("e", [(0, 0), (100, 0)], model="separate_geometry", direction="oneway")
    assert infrastructure_length(edge, LengthPolicy.default()) == 100.0


def test_missing_policy_entry_is_config_error():
    policy = LengthPolicy(factors={("centerline", "bidirectional"): 2.0})
    edge = make_edge("e", [(0, 0), (100, 0)], model="separate_geometry", direction="oneway")
    with pytest.raises(ConfigError):
        infrastructure_length(edge, policy)


def test_policy_rejects_sub_unit_factor():
    with pytest.raises(ConfigError):
        LengthPolicy(factors={("centerline", "oneway"): 0.5})


def test_dataset_totals_match_per_edge_oracle(rng):
    policy = LengthPolicy.default()
    models = [("centerline", "bidirectional"), ("centerline", "oneway"), ("separate_geometry", "oneway")]
    edges = []
    for i in range(50):
        x, y = rng.uniform(0, 1000, size=2)
        dx, dy = rng.uniform(10, 200, size=2)
        model, direction = models[int(rng.integers(0, len(models)))]
        infra = "protected" if rng.random() < 0.5 else "unprotected"
        edges.append(
            make_edge(f"e{i}", [(float(x), float(y)), (float(x + dx), float(y + dy))], infra=infra, model=model, direction=direction)
        )
    ds = Dataset(name="t", edges=edges)
    totals = dataset_length_totals(ds, policy)
    oracle_total = sum(
        math.dist(
            (e.geometry.vertices[0].x, e.geometry.vertices[0].y),
            (e.geometry.vertices[1].x, e.geometry.vertices[1].y),
        )
        * (2.0 if (e.mapping_model, e.directionality) == ("centerline", "bidirectional") else 1.0)
        for e in edges
    )
    assert totals["total_m"] == pytest.approx(oracle_total, abs=1e-9)
    assert totals["protected_m"] + totals["unprotected_m"] == pytest.approx(totals["total_m"], abs=1e-9)


# ------------------------------------------------------- density difference


@pytest.fixture
def small_grid():
    return build_grid(rect_polygon(0, 0, 3000, 3000), 500000.0)


def _surface(grid, name, values):
    from netqa.completeness import DensitySurface

    return DensitySurface(dataset_name=name, grid=grid, values=values)


def test_density_difference_sign_convention(small_grid):
    cand = _surface(small_grid, "cand", {(1, 1): 2.0})
    ref = _surface(small_grid, "ref", {(1, 1): 0.5})
    diff = density_difference(cand, ref)
    assert diff[(1, 1)] == -1.5  # negative: more candidate data


def test_density_difference_identity(small_grid):
    cand = _surface(small_grid, "cand", {(1, 1): 2.0, (1, 2): 0.25})
    assert all(v == 0.0 for v in density_difference(cand, cand).values())


def test_density_difference_null_in_one(small_grid):
    cand = _surface(small_grid, "cand", {})
    ref = _surface(small_grid, "ref", {(2, 1): 1.0})
    diff = density_difference(cand, ref)
    assert diff == {(2, 1): 1.0}


def test_density_difference_antisymmetric(small_grid, rng):
    cells = list(small_grid.cells)[:10]
    a = _surface(small_grid, "a", {c: float(rng.uniform(0, 3)) for c in cells[:7]})
    b = _surface(small_grid, "b", {c: float(rng.uniform(0, 3)) for c in cells[4:]})
    ab = density_difference(a, b)
    ba = density_difference(b, a)
    assert set(ab) == set(ba)
    for c in ab:
        assert ab[c] == pytest.approx(-ba[c], abs=1e-12)


def test_density_difference_grid_mismatch(small_grid):
    other = build_grid(rect_polygon(0, 0, 2000, 2000), 500000.0)
    with pytest.raises(GridMismatchError):
        density_difference(_surface(small_grid, "a", {}), _surface(other, "b", {}))


def test_density_surface_units(small_grid):
    # one 400 m edge in a 0.5 km² cell -> 0.8 km/km²
    cell = small_grid.cells[(2, 2)]
    edge = make_edge("e", [(cell.center.x - 200, cell.center.y), (cell.center.x + 200, cell.center.y)])
    ds = Dataset(name="d", edges=[edge])
    surface = build_density_surface(ds, small_grid.clip_edges(ds.edges), LengthPolicy.default())
    assert surface.values[(2, 2)] == pytest.approx(0.8)
    # cells without data are absent, not zero
    assert (0, 0) not in surface.values


# --------------------------------------------------------------- polygons


def test_single_polygon_equals_global():
    edges = [make_edge("a", [(100, 100), (400, 100)]), make_edge("b", [(100, 200), (100, 500)])]
    polys = [rect_polygon(0, 0, 1000, 1000, name="all")]
    agg = polygon_aggregate(edges, polys, LengthPolicy.default())
    assert agg["all"]["length_m"] == pytest.approx(600.0)
    assert agg["all"]["density_km_per_km2"] == pytest.approx(0.6)


def test_edge_straddling_two_polygons():
    polys = [rect_polygon(0, 0, 100, 200, name="west"), rect_polygon(100, 0, 100, 200, name="east")]
    edges = [make_edge("e", [(50, 100), (150, 100)])]
    agg = polygon_aggregate(edges, polys, LengthPolicy.default())
    assert agg["west"]["length_m"] == pytest.approx(50.0)
    assert agg["east"]["length_m"] == pytest.approx(50.0)


def test_polygon_aggregate_matches_discretization_oracle(rng):
    polys = [
        rect_polygon(0, 0, 600, 1000, name="p0"),
        rect_polygon(600, 0, 700, 1000, name="p1"),
        rect_polygon(1300, 0, 700, 1000, name="p2"),
    ]
    edges = []
    for i in range(60):
        x, y = rng.uniform(50, 1950), rng.uniform(50, 950)
        dx, dy = rng.uniform(-400, 400), rng.uniform(-300, 300)
        x2, y2 = float(np.clip(x + dx, 0, 2000)), float(np.clip(y + dy, 0, 1000))
        if (x2, y2) == (x, y):
            continue
        edges.append(make_edge(f"e{i}", [(float(x), float(y)), (x2, y2)]))
    policy = LengthPolicy.default()
    agg = polygon_aggregate(edges, polys, policy)

    step = 0.1
    oracle = {p.name: 0.0 for p in polys}
    for e in edges:
        a, b = e.geometry.vertices
        length = math.dist((a.x, a.y), (b.x, b.y))
        n = max(1, int(length / step))
        t = (np.arange(n) + 0.5) / n
        px = a.x + t * (b.x - a.x)
        py = a.y + t * (b.y - a.y)
        for p in polys:
            x0, y0, x1, y1 = p.bbox
            inside = (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)
            oracle[p.name] += inside.sum() * (length / n)
    for name in oracle:
        assert agg[name]["length_m"] == pytest.approx(oracle[name], rel=0.005)


def test_polygon_partition_sums_to_global(rng):
    polys = [rect_polygon(0, 0, 1000, 1000, name="a"), rect_polygon(1000, 0, 1000, 1000, name="b")]
    edges = [
        make_edge("e1", [(200, 200), (1800, 800)]),
        make_edge("e2", [(100, 900), (900, 100)]),
    ]
    agg = polygon_aggregate(edges, polys, LengthPolicy.default())
    total = sum(v["length_m"] for v in agg.values())
    expected = sum(
        math.dist((e.geometry.vertices[0].x, e.geometry.vertices[0].y), (e.geometry.vertices[1].x, e.geometry.vertices[1].y))
        for e in edges
    )
    assert total == pytest.approx(expected, rel=1e-3)


def test_polygon_overlap_warns(caplog):
    polys = [rect_polygon(0, 0, 100, 100, name="a"), rect_polygon(50, 0, 100, 100, name="b")]
    edges = [make_edge("e", [(60, 50), (90, 50)])]  # entirely inside the overlap
    with caplog.at_level(logging.WARNING):
        polygon_aggregate(edges, polys, LengthPolicy.default())
    assert "double-counted" in caplog.text


def test_polygon_compare_relative_difference():
    polys = [rect_polygon(0, 0, 1000, 1000, name="only")]
    cand = [make_edge("c", [(100, 100), (500, 100)])]  # 400 m
    ref = [make_edge("r", [(100, 200), (200, 200)])]  # 100 m
    (stats,) = polygon_compare(cand, ref, polys, LengthPolicy.default())
    assert stats.relative_difference == pytest.approx((100.0 - 400.0) / 400.0)
    assert -1.0 <= stats.relative_difference <= 1.0


# ------------------------------------------------------------- correlation


def test_correlate_linear():
    a = {i: float(i) for i in range(10)}
    b = {i: 2.0 * i for i in range(10)}
    assert correlate(a, b, "pearson") == pytest.approx(1.0)


def test_correlate_negation():
    a = {i: float(i) for i in range(10)}
    b = {i: -float(i) for i in range(10)}
    assert correlate(a, b, "pearson") == pytest.approx(-1.0)


def test_correlate_matches_textbook_formula(rng):
    a = {i: float(v) for i, v in enumerate(rng.normal(size=100))}
    b = {i: float(v) for i, v in enumerate(rng.normal(size=100))}
    x = np.array([a[i] for i in sorted(a)])
    y = np.array([b[i] for i in sorted(b)])
    n = len(x)
    oracle = (n * (x * y).sum() - x.sum() * y.sum()) / (
        math.sqrt(n * (x * x).sum() - x.sum() ** 2) * math.sqrt(n * (y * y).sum() - y.sum() ** 2)
    )
    assert correlate(a, b, "pearson") == pytest.approx(oracle, abs=1e-9)


def test_correlate_spearman_monotone():
    a = {i: float(i) for i in range(20)}
    b = {i: math.exp(i / 3.0) for i in range(20)}  # monotone, nonlinear
    assert correlate(a, b, "spearman") == pytest.approx(1.0)


def test_correlate_excludes_incomplete_pairs():
    a = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0, 99: 5.0}
    b = {0: 2.0, 1: 4.0, 2: 6.0, 3: 8.0, 42: 1.0}
    assert correlate(a, b, "pearson") == pytest.approx(1.0)


def test_correlate_errors():
    with pytest.raises(ConfigError):
        correlate({0: 1.0, 1: 2.0}, {0: 1.0, 1: 2.0})
    const = {i: 5.0 for i in range(10)}
    varying = {i: float(i) for i in range(10)}
    with pytest.raises(ZeroVarianceError):
        correlate(const, varying)
    with pytest.raises(ConfigError):
        correlate(varying, varying, method="kendall")
