import numpy as np
import pytest

from netqa.completeness import LengthPolicy
from netqa.hexgrid import build_grid
from netqa.tags import DEFAULT_TAG_SPECS, TagSpec, tag_presence, tag_share

from conftest import clip, make_edge, rect_polygon, reference_clip_polyline

SURFACE = TagSpec("surface", ("surface", "cycleway:surface"))


def test_presence_any_key_counts():
    edge = make_edge("e", [(0, 0), (10, 0)], attrs={"surface": "asphalt"})
    assert tag_presence(edge, SURFACE)
    alt = make_edge("e", [(0, 0), (10, 0)], attrs={"cycleway:surface": "gravel"})
    assert tag_presence(alt, SURFACE)


def test_presence_empty_value_is_absent():
    edge = make_edge("e", [(0, 0), (10, 0)], attrs={"surface": ""})
    assert not tag_presence(edge, SURFACE)


def test_presence_other_keys_do_not_count():
    edge = make_edge("e", [(0, 0), (10, 0)], attrs={"lit": "yes"})
    assert not tag_presence(edge, SURFACE)


def test_spec_requires_keys():
    with pytest.raises(ValueError):
        TagSpec("empty", ())


def test_default_specs_cover_expected_keys():
    by_name = {t.name: t.keys for t in DEFAULT_TAG_SPECS}
    assert by_name["surface"] == ("surface", "cycleway:surface")
    assert by_name["lit"] == ("lit",)
    assert by_name["width"] == ("width", "cycleway:width")
    assert by_name["maxspeed"] == ("maxspeed",)


@pytest.fixture
def one_cell_grid():
    return build_grid(rect_polygon(0, 0, 500, 500), 4000000.0)


def test_share_300_of_400(one_cell_grid):
    edges = [
        make_edge("tagged", [(100, 100), (400, 100)], attrs={"surface": "asphalt"}),
        make_edge("bare", [(100, 200), (200, 200)]),
    ]
    share = tag_share(edges, SURFACE, clip(one_cell_grid, edges))
    assert share.global_pct == pytest.approx(75.0)
    assert list(share.per_cell_pct.values()) == [pytest.approx(75.0)]


def test_all_tagged_everywhere(one_cell_grid):
    edges = [
        make_edge(f"e{i}", [(50 + 40 * i, 50), (50 + 40 * i, 250)], attrs={"surface": "x"})
        for i in range(5)
    ]
    share = tag_share(edges, SURFACE, clip(one_cell_grid, edges))
    assert share.global_pct == 100.0
    assert all(v == 100.0 for v in share.per_cell_pct.values())


def test_share_bounds_and_weighted_mean(rng):
    grid = build_grid(rect_polygon(0, 0, 3000, 3000), 300000.0)
    edges = []
    for i in range(80):
        x, y = rng.uniform(100, 2900, size=2)
        dx, dy = rng.uniform(-200, 200, size=2)
        x2, y2 = float(np.clip(x + dx, 50, 2950)), float(np.clip(y + dy, 50, 2950))
        if (x2, y2) == (x, y):
            continue
        attrs = {"surface": "asphalt"} if rng.random() < 0.5 else {}
        edges.append(make_edge(f"e{i}", [(float(x), float(y)), (x2, y2)], attrs=attrs))
    share = tag_share(edges, SURFACE, clip(grid, edges))
    assert all(0.0 <= v <= 100.0 for v in share.per_cell_pct.values())
    # global equals the length-weighted mean of cell shares (all length in cells)
    totals = {}
    for e in edges:
        for cell, l in reference_clip_polyline(grid, e.geometry).items():
            totals[cell] = totals.get(cell, 0.0) + l
    weighted = sum(share.per_cell_pct[c] * totals[c] for c in share.per_cell_pct) / sum(totals.values())
    assert share.global_pct == pytest.approx(weighted, abs=1e-6)


def test_share_matches_discretization_oracle(rng):
    grid = build_grid(rect_polygon(0, 0, 2000, 2000), 200000.0)
    edges = []
    for i in range(40):
        x, y = rng.uniform(100, 1900, size=2)
        dx, dy = rng.uniform(-300, 300, size=2)
        x2, y2 = float(np.clip(x + dx, 50, 1950)), float(np.clip(y + dy, 50, 1950))
        if (x2, y2) == (x, y):
            continue
        attrs = {"surface": "asphalt"} if i % 3 == 0 else {}
        edges.append(make_edge(f"e{i}", [(float(x), float(y)), (x2, y2)], attrs=attrs))
    share = tag_share(edges, SURFACE, clip(grid, edges))

    ids = list(grid.cells)
    centers = np.array([(grid.cells[c].center.x, grid.cells[c].center.y) for c in ids])
    tagged = {}
    total = {}
    step = 0.1
    for e in edges:
        a, b = e.geometry.vertices
        length = float(np.hypot(b.x - a.x, b.y - a.y))
        n = max(1, int(length / step))
        t = (np.arange(n) + 0.5) / n
        px = a.x + t * (b.x - a.x)
        py = a.y + t * (b.y - a.y)
        d2 = (px[:, None] - centers[None, :, 0]) ** 2 + (py[:, None] - centers[None, :, 1]) ** 2
        nearest = d2.argmin(axis=1)
        has_tag = tag_presence(e, SURFACE)
        for idx, count in zip(*np.unique(nearest, return_counts=True)):
            cell = ids[idx]
            total[cell] = total.get(cell, 0.0) + count * (length / n)
            if has_tag:
                tagged[cell] = tagged.get(cell, 0.0) + count * (length / n)
    for cell, total_len in total.items():
        if total_len < 1.0:
            continue
        oracle_pct = 100.0 * tagged.get(cell, 0.0) / total_len
        assert share.per_cell_pct[cell] == pytest.approx(oracle_pct, abs=0.5)


def test_monotone_under_tag_addition(rng):
    grid = build_grid(rect_polygon(0, 0, 1500, 1500), 300000.0)
    edges = []
    for i in range(30):
        x, y = rng.uniform(100, 1400, size=2)
        x2 = float(np.clip(x + rng.uniform(-200, 200), 50, 1450))
        y2 = float(np.clip(y + rng.uniform(-200, 200), 50, 1450))
        if (x2, y2) == (x, y):
            continue
        attrs = {"surface": "asphalt"} if rng.random() < 0.3 else {}
        edges.append(make_edge(f"e{i}", [(float(x), float(y)), (x2, y2)], attrs=attrs))
    base = tag_share(edges, SURFACE, clip(grid, edges))
    untagged_idx = [i for i, e in enumerate(edges) if not tag_presence(e, SURFACE)]
    for _ in range(100):
        pick = int(rng.choice(untagged_idx))
        edges[pick].attributes["surface"] = "gravel"
        bumped = tag_share(edges, SURFACE, clip(grid, edges))
        for cell, pct in base.per_cell_pct.items():
            assert bumped.per_cell_pct[cell] >= pct - 1e-9
        del edges[pick].attributes["surface"]


def test_multiplier_weighting(one_cell_grid):
    # 100 m untagged centerline-bidirectional counts as 200 m against
    # 200 m of tagged separate geometry: share is 50%, not 66.7%
    edges = [
        make_edge("t", [(100, 100), (300, 100)], attrs={"surface": "x"}),
        make_edge("u", [(100, 200), (200, 200)], model="centerline", direction="bidirectional"),
    ]
    share = tag_share(edges, SURFACE, clip(one_cell_grid, edges), policy=LengthPolicy.default())
    assert share.global_pct == pytest.approx(50.0)
    raw = tag_share(edges, SURFACE, clip(one_cell_grid, edges))
    assert raw.global_pct == pytest.approx(200.0 / 300.0 * 100.0)
