"""Float sums keep their bits where ``sum()`` compensates its additions, as
it does from Python 3.12 on: netqa adds floats one at a time, in order."""

import builtins
import importlib
import math
import pkgutil
import random
from functools import reduce
from operator import add

import pytest

import netqa
from netqa.geometry import Point2D
from netqa.hexgrid import build_grid
from netqa.matching import MatchConfig, match_tables, summarize
from netqa.polygons import PolygonArea, ring_signed_area
from netqa.spatial import build_weights, knn_scheme

from conftest import bits, make_dataset, rect_polygon


def compensated_sum(iterable, start=0):
    """``sum`` with its float additions compensated: exact for ints,
    ``math.fsum`` otherwise."""
    items = [start, *iterable]
    if all(isinstance(v, int) for v in items):
        return builtins.sum(items)
    return math.fsum(items)


def plain_and_compensated(compute):
    """The bits of ``compute()``, and of it again with ``compensated_sum`` as
    ``sum`` in every netqa module."""
    plain = compute()
    with pytest.MonkeyPatch.context() as mp:
        modules = [importlib.import_module(f"netqa.{m.name}") for m in pkgutil.iter_modules(netqa.__path__)]
        for module in modules:
            mp.setattr(module, "sum", compensated_sum, raising=False)
        # the patch is what a module's code finds by the name ``sum``
        assert eval("sum([0.1] * 10)", vars(modules[0])) == 1.0 != reduce(add, [0.1] * 10, 0.0)
        compensated = compute()
    return bits(plain), bits(compensated)


def test_knn6_s0_keeps_its_bits():
    grid = build_grid(rect_polygon(0, 0, 5000, 5000), 500000.0)
    centroids = {c: (cell.center.x, cell.center.y) for c, cell in grid.cells.items()}
    # a row of six 1/6 weights adds to 1.0 when compensated, one ulp less in order
    assert compensated_sum([1 / 6] * 6) != reduce(add, [1 / 6] * 6, 0.0)
    plain, compensated = plain_and_compensated(lambda: build_weights(centroids, knn_scheme(6)).s0)
    assert plain == compensated


def test_match_summary_totals_and_local_average_keep_their_bits():
    # straight lines of any length and direction, each with a partner that
    # covers part of it: segment lengths and per-cell percentages are
    # inexact floats, on which compensation changes all three figures
    rng = random.Random(1)
    specs_a, specs_b = [], []
    for i in range(16):
        x, y, angle, length = rng.uniform(0, 300), rng.uniform(0, 300), rng.uniform(0, math.pi), rng.uniform(15, 90)
        dx, dy = math.cos(angle), math.sin(angle)
        specs_a.append((f"a{i}", [(x, y), (x + length * dx, y + length * dy)]))
        part = rng.uniform(0.3, 1.0) * length
        specs_b.append((f"b{i}", [(x + 1.0, y - 0.5), (x + 1.0 + part * dx, y - 0.5 + part * dy)]))
    grid = build_grid(rect_polygon(-100, -100, 500, 500), 5000.0)
    table, _ = match_tables(make_dataset("a", specs_a), make_dataset("b", specs_b), MatchConfig())
    lengths = table.segments.length.tolist()
    matched = table.segments.length[table.target >= 0].tolist()
    assert math.fsum(lengths) != reduce(add, lengths, 0.0) and math.fsum(matched) != reduce(add, matched, 0.0)

    def figures():
        summary = summarize(table, grid)
        pcts = list(summary.per_cell_pct.values())
        assert math.fsum(pcts) != reduce(add, pcts, 0.0)
        return summary.total_length_m, summary.matched_length_m, summary.local_avg_pct

    plain, compensated = plain_and_compensated(figures)
    assert plain == compensated


def test_area_of_a_polygon_with_holes_keeps_its_bits():
    def square(x0, side):
        return (Point2D(x0, 0.1), Point2D(x0 + side, 0.1), Point2D(x0 + side, 0.1 + side), Point2D(x0, 0.1 + side))

    outer = (Point2D(0.0, 0.0), Point2D(1.4, 0.0), Point2D(1.4, 0.9), Point2D(0.0, 0.9))
    holes = [square(0.1, 0.1), square(0.3, 0.3), square(0.7, 0.6)]
    # holes whose compensated sum changes the area's last bit
    outer_area, hole_areas = ring_signed_area(outer), [ring_signed_area(h) for h in holes]
    assert outer_area - math.fsum(hole_areas) != outer_area - reduce(add, hole_areas, 0.0)
    plain, compensated = plain_and_compensated(lambda: PolygonArea(rings=(outer, *holes)).area)
    assert plain == compensated
