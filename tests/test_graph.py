import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netqa.geometry import point_to_polyline_distance
from netqa.graph import (
    build_graph,
    component_zipf,
    connected_components,
    dangling_nodes,
    detect_undershoots,
    local_component_count,
)
from netqa.hexgrid import build_grid

from conftest import clip, make_dataset, rect_polygon, reference_detect_undershoots, reference_snap


def graph_of(edge_specs, snap=0.001):
    return build_graph(make_dataset("t", edge_specs), snap_tolerance=snap)


# ------------------------------------------------------------ construction


def test_shared_endpoint_merges_nodes():
    g = graph_of([("a", [(0, 0), (10, 0)]), ("b", [(10, 0), (20, 0)])])
    assert len(g.nodes) == 3
    assert len(g.component_index) == 1


def test_snapping_within_tolerance():
    g = graph_of([("a", [(0, 0), (10, 0)]), ("b", [(10.0005, 0), (20, 0)])], snap=0.001)
    assert len(g.nodes) == 3
    assert len(g.component_index) == 1


def test_snapping_is_first_come_then_nearest_then_lowest_id():
    specs = [
        ("a", [(0.0, 0.0), (0.0, 50.0)]),  # opens node 0 at x = 0
        ("b", [(1.0, 0.0), (10.0, 50.0)]),  # joins node 0 at the tolerance
        ("c", [(1.8, 0.0), (20.0, 50.0)]),  # near b's endpoint, which opened nothing
        ("d", [(0.9, 0.0), (30.0, 50.0)]),  # 0.9 from nodes 0 and 3: the lower id
        ("e", [(1.3, 0.0), (40.0, 50.0)]),  # only node 3 in reach
    ]
    g = graph_of(specs, snap=1.0)
    assert [e.from_node for e in g.edges.values()] == [0, 0, 3, 0, 3]
    assert (g.nodes[3].location.x, g.nodes[3].degree) == (1.8, 2)
    nodes, ends = reference_snap(make_dataset("t", specs), 1.0)
    assert [e.from_node for e in g.edges.values()] == [a for a, _ in ends]


def test_no_snapping_beyond_tolerance():
    g = graph_of([("a", [(0, 0), (10, 0)]), ("b", [(10.01, 0), (20, 0)])], snap=0.001)
    assert len(g.nodes) == 4
    assert len(g.component_index) == 2


def test_interior_crossing_does_not_connect():
    # two edges crossing mid-span stay disconnected and share no node
    g = graph_of([("a", [(0, 0), (10, 10)]), ("b", [(0, 10), (10, 0)])])
    assert len(g.nodes) == 4
    assert len(g.component_index) == 2


@pytest.mark.parametrize("snap", [-1, math.nan, math.inf])
def test_rejects_negative_tolerance(snap):
    with pytest.raises(ValueError, match="snap_tolerance"):
        graph_of([("a", [(0, 0), (1, 0)])], snap=snap)


# ------------------------------------------------------------- components


def test_single_path_one_component():
    specs = [(f"e{i}", [(i * 10, 0), ((i + 1) * 10, 0)]) for i in range(5)]
    g = graph_of(specs)
    assert len(g.component_index) == 1


def test_three_disjoint_paths():
    specs = []
    for k in range(3):
        y = k * 100
        specs += [(f"p{k}e{i}", [(i * 10, y), ((i + 1) * 10, y)]) for i in range(3)]
    g = graph_of(specs)
    assert len(g.component_index) == 3


def _closure_oracle(edge_specs):
    """Partition edges by reachability, via repeated set expansion over
    exact-coordinate endpoints."""
    def key(pt):
        return (round(pt[0], 9), round(pt[1], 9))

    groups = [{key(spec[1][0]), key(spec[1][-1])} for spec in edge_specs]
    changed = True
    while changed:
        changed = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i] is not groups[j] and groups[i] & groups[j]:
                    merged = groups[i] | groups[j]
                    for k in range(len(groups)):
                        if groups[k] is groups[i] or groups[k] is groups[j]:
                            groups[k] = merged
                    changed = True
    partition = {}
    for idx, spec in enumerate(edge_specs):
        partition.setdefault(id(groups[idx]), set()).add(spec[0])
    return {frozenset(v) for v in partition.values()}


def test_components_match_transitive_closure_oracle(rng):
    for trial in range(30):
        n_nodes = int(rng.integers(4, 20))
        n_edges = int(rng.integers(1, 51))
        nodes = [(float(x), float(y)) for x, y in rng.uniform(0, 1000, size=(n_nodes, 2))]
        specs = []
        for e in range(n_edges):
            i, j = rng.integers(0, n_nodes, size=2)
            if i == j:
                j = (j + 1) % n_nodes
            specs.append((f"e{e}", [nodes[i], nodes[j]]))
        g = graph_of(specs, snap=0.0)
        ours = {frozenset(eids) for eids in g.component_index.values()}
        assert ours == _closure_oracle(specs)
        # partition property: every edge in exactly one component
        assert sum(len(eids) for eids in g.component_index.values()) == n_edges


def test_exact_snap_matches_endpoint_grouping_oracle(rng):
    nodes = [(float(x), float(y)) for x, y in rng.uniform(0, 500, size=(30, 2))]
    specs = []
    for e in range(100):
        i, j = rng.integers(0, 30, size=2)
        if i == j:
            continue
        specs.append((f"e{e}", [nodes[i], nodes[j]]))
    # a signed zero is the same coordinate; near 10^7 m, neighbouring
    # doubles (about 2e-9 m apart) are not
    far = 1.0e7
    step = math.ulp(far)
    specs += [
        ("z0", [(0.0, -0.0), (5.0, 0.0)]),
        ("z1", [(-0.0, 0.0), (0.0, 5.0)]),
        ("f0", [(far, far), (far + 10.0, far)]),
        ("f1", [(far + step, far), (far, far + 10.0)]),
        ("f2", [(far, far), (far, far - step)]),
    ]
    g = graph_of(specs, snap=0.0)
    used = set()
    for spec in specs:
        used.add(tuple(spec[1][0]))
        used.add(tuple(spec[1][-1]))
    assert len(g.nodes) == len(used)


# offsets of an endpoint from its cluster centre: exact repeats, signed
# zeros, and distances at, just inside and just beyond both tolerances
_OFFSETS = [0.0, -0.0, 4e-4, -6e-4, 1e-3, -1e-3, 1.5e-3, 2.0, -3.5, 5.0, -5.0, 5.000001, 7.0]


@st.composite
def clustered_specs(draw):
    base = draw(st.sampled_from([0.0, 400000.0, 5800000.0]))
    centres = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4))
    offset = st.tuples(st.sampled_from(_OFFSETS), st.sampled_from(_OFFSETS))

    def endpoint():
        (cx, cy), (dx, dy) = draw(st.sampled_from(centres)), draw(offset)
        return (base + 8.0 * cx + dx, base + 8.0 * cy + dy)

    specs = []
    for e in range(draw(st.integers(1, 24))):
        a, b = endpoint(), endpoint()
        mid = (a[0] + 0.37, a[1] + 0.41)
        assume(mid != a and mid != b)
        specs.append((f"e{e:02d}", [a, mid, b]))
    return specs


def _located(node):
    return (node.id, repr(node.location.x), repr(node.location.y), node.degree)


@settings(max_examples=150, deadline=None)
@given(specs=clustered_specs(), snap=st.sampled_from([0.0, 1e-3, 5.0]))
def test_snapping_equals_the_one_at_a_time_reference(specs, snap):
    g = graph_of(specs, snap=snap)
    nodes, ends = reference_snap(make_dataset("t", specs), snap)
    assert [_located(n) for n in g.nodes.values()] == [_located(n) for n in nodes.values()]
    assert [(e.from_node, e.to_node) for e in g.edges.values()] == ends


def test_component_lengths_and_order():
    specs = [
        ("long", [(0, 0), (500, 0)]),
        ("short", [(0, 100), (100, 100)]),
        ("mid", [(0, 200), (300, 200)]),
    ]
    g = graph_of(specs)
    stats = connected_components(g)
    assert [round(s.length_m) for s in stats] == [500, 300, 100]


# ---------------------------------------------------------------- dangling


def test_isolated_edge_has_two_dangling():
    g = graph_of([("a", [(0, 0), (10, 0)])])
    assert len(dangling_nodes(g)) == 2


def test_cycle_has_no_dangling():
    g = graph_of(
        [
            ("a", [(0, 0), (10, 0)]),
            ("b", [(10, 0), (10, 10)]),
            ("c", [(10, 10), (0, 10)]),
            ("d", [(0, 10), (0, 0)]),
        ]
    )
    assert dangling_nodes(g) == []


def test_star_has_leaf_dangling():
    g = graph_of(
        [
            ("a", [(0, 0), (10, 0)]),
            ("b", [(0, 0), (-10, 0)]),
            ("c", [(0, 0), (0, 10)]),
            ("d", [(0, 0), (0, -10)]),
        ]
    )
    assert len(dangling_nodes(g)) == 4


# -------------------------------------------------------------- undershoots


def test_undershoot_detected_at_2_5m():
    g = graph_of(
        [
            ("target", [(0, 0), (100, 0)]),
            ("stub", [(50, 2.5), (50, 60)]),
        ]
    )
    found = detect_undershoots(g, threshold=3.0)
    assert len(found) == 1
    assert found[0].nearest_edge_id == "target"
    assert abs(found[0].gap_distance - 2.5) < 1e-9


def test_no_undershoot_beyond_threshold():
    g = graph_of(
        [
            ("target", [(0, 0), (100, 0)]),
            ("stub", [(50, 3.5), (50, 60)]),
        ]
    )
    assert detect_undershoots(g, threshold=3.0) == []


def test_own_edge_not_an_undershoot():
    # hook-shaped edge: its free end passes within 1 m of its own geometry
    g = graph_of([("hook", [(0, 0), (30, 0), (30, 5), (10, 5), (10, 1)])])
    assert detect_undershoots(g, threshold=3.0) == []


def test_continuation_edge_excluded():
    # b continues from a's endpoint; a's other geometry passes nearby but
    # edges incident to adjacent nodes are excluded
    g = graph_of(
        [
            ("a", [(0, 0), (50, 0)]),
            ("b", [(50, 0), (50, 2)]),
        ]
    )
    assert detect_undershoots(g, threshold=3.0) == []


def test_undershoot_monotone_in_threshold(rng):
    specs = [("base", [(0, 0), (200, 0)])]
    for i in range(12):
        x = float(rng.uniform(5, 195))
        gap = float(rng.uniform(0.5, 6.0))
        specs.append((f"s{i}", [(x, gap), (x, gap + 50)]))
    g = graph_of(specs)
    counts = [len(detect_undershoots(g, threshold=t)) for t in (0.001, 1.0, 2.0, 4.0, 7.0)]
    assert counts == sorted(counts)
    for u in detect_undershoots(g, threshold=3.0):
        node = g.nodes[u.node_id]
        assert u.nearest_edge_id not in g.incident_edges(u.node_id)
        assert 0 < u.gap_distance <= 3.0
        assert abs(point_to_polyline_distance(node.location, g.edges[u.nearest_edge_id].geometry) - u.gap_distance) < 1e-9


@pytest.mark.parametrize("threshold", [0.0, math.nan, math.inf])
def test_undershoot_requires_positive_threshold(threshold):
    g = graph_of([("a", [(0, 0), (1, 0)])])
    with pytest.raises(ValueError, match="threshold"):
        detect_undershoots(g, threshold=threshold)


@st.composite
def stubbed_specs(draw):
    base = draw(st.sampled_from([0.0, 400000.0]))
    specs = [
        ("h", [(base, base), (base + 100.0, base)]),
        ("v", [(base + 60.0, base - 40.0), (base + 60.0, base + 40.0)]),
        ("d", [(base, base + 30.0), (base + 40.0, base + 70.0), (base + 90.0, base + 70.0)]),
    ]
    gaps = st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0, 2.5, 3.0, 3.0000001, 4.0])
    for i in range(draw(st.integers(0, 10))):
        x = base + draw(st.integers(0, 100)) * 1.0
        y = base + draw(gaps)
        if draw(st.booleans()):
            # a stub off the street's far end that bends back beside it:
            # its free end is near an edge of its own adjacent node
            specs.append((f"s{i}", [(base + 100.0, base), (base + 100.0, y + 20.0), (x, y)]))
        else:
            direction = draw(st.sampled_from([1.0, -1.0]))
            specs.append((f"s{i}", [(x, y), (x + 1.0, y + direction * 20.0)]))
    return specs


@settings(max_examples=150, deadline=None)
@given(specs=stubbed_specs(), threshold=st.sampled_from([0.5, 3.0, 7.5]), snap=st.sampled_from([1e-3, 5.0]))
def test_undershoots_equal_the_every_edge_reference(specs, threshold, snap):
    g = graph_of(specs, snap=snap)
    assert detect_undershoots(g, threshold) == reference_detect_undershoots(g, threshold)


def test_undershoots_vanish_as_threshold_approaches_zero():
    g = graph_of(
        [
            ("target", [(0, 0), (100, 0)]),
            ("stub", [(50, 0.5), (50, 60)]),
        ]
    )
    assert len(detect_undershoots(g, threshold=1.0)) == 1
    assert detect_undershoots(g, threshold=1e-9) == []


# -------------------------------------------------------------------- zipf


def test_zipf_ranks_descending():
    specs = [
        ("a", [(0, 0), (5000, 0)]),
        ("b", [(0, 100), (1000, 100)]),
        ("c", [(0, 200), (3000, 200)]),
    ]
    g = graph_of(specs)
    assert component_zipf(connected_components(g)) == [(1, 5000.0), (2, 3000.0), (3, 1000.0)]


def test_zipf_single_component():
    g = graph_of([("a", [(0, 0), (700, 0)])])
    assert component_zipf(connected_components(g)) == [(1, 700.0)]


def test_zipf_ties_stable_by_component_id():
    specs = [
        ("first", [(0, 0), (100, 0)]),
        ("second", [(0, 50), (100, 50)]),
    ]
    g = graph_of(specs)
    ranked = component_zipf(connected_components(g))
    assert ranked == [(1, 100.0), (2, 100.0)]
    stats = connected_components(g)
    assert stats[0].component_id < stats[1].component_id


# --------------------------------------------------- local component count


def test_local_component_count():
    study = rect_polygon(0, 0, 2000, 2000)
    grid = build_grid(study, cell_area=4000000.0)  # large cells
    # two edges, same component, in one cell; plus two disjoint stubs
    specs = [
        ("a", [(100, 100), (200, 100)]),
        ("b", [(200, 100), (300, 100)]),
        ("c", [(100, 300), (200, 300)]),
        ("d", [(100, 500), (200, 500)]),
    ]
    g = graph_of(specs)
    counts = local_component_count(g, clip(grid, g.edges.values()))
    assert max(counts.values()) == 3
    # same-component edges a+b count once wherever they fall together
    only_ab = graph_of(specs[:2])
    counts_ab = local_component_count(only_ab, clip(grid, only_ab.edges.values()))
    assert set(counts_ab.values()) == {1}


def test_local_component_count_extreme():
    study = rect_polygon(0, 0, 800, 800)
    grid = build_grid(study, cell_area=1000000.0)
    specs = [(f"stub{i}", [(50 + i * 10, 100), (50 + i * 10, 160)]) for i in range(21)]
    g = graph_of(specs)
    counts = local_component_count(g, clip(grid, g.edges.values()))
    assert max(counts.values()) == 21


def test_cells_without_edges_absent():
    study = rect_polygon(0, 0, 5000, 5000)
    grid = build_grid(study, cell_area=740000.0)
    g = graph_of([("a", [(100, 100), (200, 100)])])
    counts = local_component_count(g, clip(grid, g.edges.values()))
    assert all(v >= 1 for v in counts.values())
    assert len(counts) < len(grid.cells)
