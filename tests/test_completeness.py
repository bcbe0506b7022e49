import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netqa import completeness, polygons
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
from netqa.errors import ConfigError, GeometryError, GridMismatchError, ZeroVarianceError
from netqa.geometry import Point2D
from netqa.hexgrid import build_grid
from netqa.ingest import Dataset
from netqa.polygons import PolygonArea

from conftest import (
    UNITS,
    bits,
    clip,
    lattice_points,
    lattice_polygons,
    make_edge,
    rect_polygon,
    reference_dataset_length_totals,
    reference_polygon_aggregate,
)


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


def test_edge_factors_are_factor_for_of_each_edge_once_per_edge_list():
    policy = LengthPolicy.default()
    edges = [
        make_edge("a", [(0, 0), (10, 0)], model="centerline", direction="bidirectional"),
        make_edge("b", [(0, 5), (10, 5)], model="separate_geometry", direction="oneway"),
        make_edge("c", [(0, 9), (10, 9)], model="centerline", direction="oneway"),
    ]
    with mock.patch.object(LengthPolicy, "factor_for", autospec=True, side_effect=LengthPolicy.factor_for) as spy:
        factors = policy.edge_factors(edges)
        assert factors.tolist() == [2.0, 1.0, 1.0] and spy.call_count == 3
        # the same edges in another container are the same edge list
        assert policy.edge_factors(tuple(edges)) is factors and spy.call_count == 3
        assert policy.edge_factors(edges[:2]).tolist() == [2.0, 1.0] and spy.call_count == 5
        assert LengthPolicy.default().edge_factors(edges).tolist() == [2.0, 1.0, 1.0] and spy.call_count == 8
    assert not factors.flags.writeable
    assert policy.edge_factors([]).shape == (0,)


def test_edge_factors_raise_the_missing_entry_config_error():
    policy = LengthPolicy(factors={("centerline", "bidirectional"): 2.0})
    edges = [make_edge("e", [(0, 0), (100, 0)], model="separate_geometry", direction="oneway")]
    with pytest.raises(ConfigError, match="no entry for"):
        policy.edge_factors(edges)


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


KEYS = [(model, direction) for model in ("centerline", "separate_geometry") for direction in ("bidirectional", "oneway")]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(1.0, 3.0), min_size=4, max_size=4),
    st.lists(
        st.tuples(
            st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)), min_size=2, max_size=5, unique=True),
            st.sampled_from(["protected", "unprotected"]),
            st.sampled_from(KEYS),
        ),
        max_size=30,
    ),
)
def test_dataset_totals_equal_the_reference_loop_bit_for_bit(factors, specs):
    # each total adds its edges' lengths in edge order, from 0.0, as the loop does
    policy = LengthPolicy(dict(zip(KEYS, factors)))
    edges = [
        make_edge(f"e{i}", coords, infra=infra, model=model, direction=direction)
        for i, (coords, infra, (model, direction)) in enumerate(specs)
    ]
    got = dataset_length_totals(Dataset("d", edges), policy)
    assert bits(got) == bits(reference_dataset_length_totals(edges, policy))


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
    surface = build_density_surface(ds, clip(small_grid, ds.edges), LengthPolicy.default())
    assert surface.values[(2, 2)] == pytest.approx(0.8)
    # cells without data are absent, not zero
    assert (0, 0) not in surface.values


# --------------------------------------------------------------- polygons


def test_single_polygon_equals_global():
    edges = [make_edge("a", [(100, 100), (400, 100)]), make_edge("b", [(100, 200), (100, 500)])]
    polys = [rect_polygon(0, 0, 1000, 1000, name="all")]
    agg = polygon_aggregate(Dataset("d", edges), polys, LengthPolicy.default())
    assert agg["all"]["length_m"] == pytest.approx(600.0)
    assert agg["all"]["density_km_per_km2"] == pytest.approx(0.6)


def test_edge_straddling_two_polygons():
    polys = [rect_polygon(0, 0, 100, 200, name="west"), rect_polygon(100, 0, 100, 200, name="east")]
    edges = [make_edge("e", [(50, 100), (150, 100)])]
    agg = polygon_aggregate(Dataset("d", edges), polys, LengthPolicy.default())
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
    agg = polygon_aggregate(Dataset("d", edges), polys, policy)

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
    agg = polygon_aggregate(Dataset("d", edges), polys, LengthPolicy.default())
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
        polygon_aggregate(Dataset("d", edges), polys, LengthPolicy.default())
    assert "double-counted" in caplog.text


def test_polygon_compare_relative_difference():
    polys = [rect_polygon(0, 0, 1000, 1000, name="only")]
    cand = [make_edge("c", [(100, 100), (500, 100)])]  # 400 m
    ref = [make_edge("r", [(100, 200), (200, 200)])]  # 100 m
    (stats,) = polygon_compare(Dataset("c", cand), Dataset("r", ref), polys, LengthPolicy.default())
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


# ------------------------------------------------ polygon clip property


@st.composite
def polygon_layers(draw):
    """Lattice polygons, some with holes, shifted so that parts overlap or
    share sides, under names that repeat (multi-part names), or no parts;
    and edges on the half-lattice: free lines that leave the parts, lines
    through their vertices and lines along their boundary edges."""
    unit = draw(UNITS)
    rect = rect_polygon(-3 * unit, -2 * unit, 6 * unit, 4 * unit)

    def shifted(poly, dx, dy):
        # whole lattice steps, then the unit: each vertex is a lattice point
        # k * unit, spelled as lattice_polygons spells it
        return tuple(
            tuple(Point2D((round(v.x / unit) + dx) * unit, (round(v.y / unit) + dy) * unit) for v in ring)
            for ring in poly.rings
        )

    parts = []
    for _ in range(draw(st.integers(0, 4))):
        poly, _ = draw(lattice_polygons().filter(lambda case: case[1] == unit) | st.just((None, unit)))
        dx, dy = draw(st.tuples(st.integers(-12, 12), st.integers(-12, 12)))
        name = draw(st.sampled_from(["a", "b", "c"]))
        try:
            parts.append(PolygonArea(rings=shifted(poly or rect, dx, dy), name=name))
        except GeometryError:
            # a ring with no lattice area (collinear lattice points) that
            # rounding kept above zero before the shift: lattice_polygons'
            # stand-in for a collapsed ring
            parts.append(PolygonArea(rings=shifted(rect, dx, dy), name=name))
    vertices = [(v.x, v.y) for part in parts for ring in part.rings for v in ring]
    edges = []
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["free", "vertices", "boundary"]))
        if kind == "free" or not parts:
            coords = draw(lattice_points(unit, draw(st.integers(2, 4))))
        elif kind == "vertices":
            point = st.sampled_from(vertices) | lattice_points(unit, 1).map(lambda p: p[0])
            coords = draw(st.lists(point, min_size=2, max_size=4))
        else:
            ring = draw(st.sampled_from([ring for part in parts for ring in part.rings]))
            k = draw(st.integers(0, len(ring) - 1))
            coords = [(v.x, v.y) for v in (ring + ring)[k : k + draw(st.integers(2, 4))]]
        coords = [c for j, c in enumerate(coords) if j == 0 or c != coords[j - 1]]
        if len(coords) >= 2:
            centerline = draw(st.booleans())
            edges.append(
                make_edge(
                    f"e{i}",
                    coords,
                    model="centerline" if centerline else "separate_geometry",
                    direction="bidirectional" if centerline else "oneway",
                )
            )
    return parts, edges


@settings(max_examples=100, deadline=None)
@given(polygon_layers(), st.sampled_from([1, 7, 1 << 12]))
def test_polygon_aggregate_equals_the_reference_loop(case, block):
    parts, edges = case
    policy = LengthPolicy.default()
    with pytest.MonkeyPatch.context() as mp, mock.patch.object(completeness.log, "warning") as warning:
        mp.setattr(polygons, "_BLOCK_ELEMENTS", block)
        got = polygon_aggregate(Dataset("d", edges), parts, policy)
        stats = polygon_compare(Dataset("a", edges[::2]), Dataset("b", edges[1::2]), parts, policy)
    expected, overlap = reference_polygon_aggregate(edges, parts, policy)
    assert bits(got) == bits(expected)
    assert warning.called == overlap
    agg_a, _ = reference_polygon_aggregate(edges[::2], parts, policy)
    agg_b, _ = reference_polygon_aggregate(edges[1::2], parts, policy)
    assert bits([(s.name, s.area_m2, s.length_a_m, s.length_b_m, s.density_a, s.density_b) for s in stats]) == bits(
        [
            (name, agg_a[name]["area_m2"], agg_a[name]["length_m"], agg_b[name]["length_m"],
             agg_a[name]["density_km_per_km2"], agg_b[name]["density_km_per_km2"])
            for name in sorted(agg_a)
        ]
    )
