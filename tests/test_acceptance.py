"""Acceptance suite: one test per shipped guarantee, each with a runtime
budget and the tolerance it must hold. A reporting hook in conftest prints
one pass/fail line per criterion."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from netqa.completeness import (
    LengthPolicy,
    build_density_surface,
    density_difference,
    infrastructure_length,
    polygon_compare,
)
from netqa.errors import ZeroVarianceError
from netqa.geometry import hausdorff_distance, segment_angle_deg
from netqa.graph import build_graph, detect_undershoots
from netqa.hexgrid import assign_lengths, build_grid
from netqa.matching import MatchConfig, match_datasets, match_summary, segmentize_dataset
from netqa.pipeline import RunConfig, run_pipeline
from netqa.polygons import clip_polyline_to_polygon
from netqa.spatial import build_weights, global_moran, knn_scheme, local_moran
from netqa.tags import TagSpec, tag_share

from conftest import make_dataset, make_edge, rect_polygon
from test_spatial import HAND_VALUES, global_oracle, hex_block, hex_centroid, local_oracle

DEMO = Path(__file__).parent / "data" / "demo"


class budget:
    """Asserts the criterion body finished inside its stated runtime."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, f"exceeded {self.seconds}s budget: {elapsed:.2f}s"


def test_c01_infrastructure_length_normalization():
    with budget(1.0):
        edge = make_edge("e", [(0, 0), (100, 0)], model="centerline", direction="bidirectional")
        assert infrastructure_length(edge, LengthPolicy.default()) == 200.0


def test_c02_undershoot_threshold_semantics():
    with budget(1.0):
        detected = build_graph(
            make_dataset("t", [("target", [(0, 0), (100, 0)]), ("stub", [(50, 2.5), (50, 60)])])
        )
        hits = detect_undershoots(detected, threshold=3.0)
        assert [(u.nearest_edge_id, round(u.gap_distance, 9)) for u in hits] == [("target", 2.5)]

        beyond = build_graph(
            make_dataset("t", [("target", [(0, 0), (100, 0)]), ("stub", [(50, 3.5), (50, 60)])])
        )
        assert detect_undershoots(beyond, threshold=3.0) == []

        self_incident = build_graph(
            make_dataset("t", [("hook", [(0, 0), (30, 0), (30, 5), (10, 5), (10, 1)])])
        )
        assert detect_undershoots(self_incident, threshold=3.0) == []


def _thousand_edge_specs():
    specs = []
    for i in range(500):
        x0 = (i % 50) * 100.0
        y = (i // 50) * 500.0 + 20.0
        specs.append((f"ew{i}", [(x0, y), (x0 + 80.0, y)]))
    for i in range(500):
        x = (i % 50) * 100.0 + 50.0
        y0 = (i // 50) * 500.0 + 40.0
        specs.append((f"ns{i}", [(x, y0), (x, y0 + 80.0)]))
    return specs


def test_c03_self_matching_identity():
    with budget(10.0):
        specs = _thousand_edge_specs()
        assert len(specs) == 1000
        a = make_dataset("a", specs)
        b = make_dataset("b", specs)
        records_a, records_b = match_datasets(a, b, MatchConfig())
        grid = build_grid(rect_polygon(-100, -100, 5300, 5300), 740000.0)
        for records in (records_a, records_b):
            summary = match_summary(records, grid)
            assert summary.pct_matched_count == 100.0
            assert summary.pct_matched_length == 100.0

        policy = LengthPolicy.default()
        surf_a = build_density_surface(a, grid.clip_edges(a.edges), policy)
        surf_b = build_density_surface(b, grid.clip_edges(b.edges), policy)
        diff = density_difference(surf_a, surf_b)
        assert diff and all(v == 0.0 for v in diff.values())

        polygons = [
            rect_polygon(-100, -100, 2700, 5300, name="west"),
            rect_polygon(2600, -100, 2700, 5300, name="east"),
        ]
        for stats in polygon_compare(a.edges, b.edges, polygons, policy):
            assert stats.relative_difference == 0.0


def test_c04_matching_oracle_equivalence():
    with budget(30.0):
        rng = np.random.default_rng(1404)
        specs_a, specs_b = [], []
        for i in range(24):  # ~8 segments per 80 m edge: <=200 per side
            x, y = rng.uniform(0, 500, size=2)
            ang = rng.uniform(0, np.pi)
            dx, dy = 80.0 * np.cos(ang), 80.0 * np.sin(ang)
            specs_a.append((f"a{i}", [(float(x), float(y)), (float(x + dx), float(y + dy))]))
            jx, jy = rng.uniform(-10, 10, size=2)
            specs_b.append(
                (f"b{i}", [(float(x + jx), float(y + jy)), (float(x + dx + jx), float(y + dy + jy))])
            )
        cfg = MatchConfig()
        a = make_dataset("a", specs_a)
        b = make_dataset("b", specs_b)
        segs_a = segmentize_dataset(a, cfg.seg_len)
        segs_b = segmentize_dataset(b, cfg.seg_len)
        assert len(segs_a) <= 200 and len(segs_b) <= 200

        def oracle(src, dst):
            out = []
            for s in src:
                best_key, best = None, None
                for d in dst:
                    md = (
                        ((s.start.x + s.end.x) / 2 - (d.start.x + d.end.x) / 2) ** 2
                        + ((s.start.y + s.end.y) / 2 - (d.start.y + d.end.y) / 2) ** 2
                    ) ** 0.5
                    if md > cfg.max_dist:
                        continue
                    h = hausdorff_distance(s, d)
                    if h > cfg.max_hausdorff:
                        continue
                    ang = segment_angle_deg(s, d)
                    if ang > cfg.max_angle:
                        continue
                    key = (h + md + (ang / cfg.max_angle) * cfg.max_dist, d.segment_id)
                    if best_key is None or key < best_key:
                        best_key, best = key, (d.segment_id, md, h, ang)
                out.append((s.segment_id,) + (best if best else (None, None, None, None)))
            return out

        records_a, records_b = match_datasets(a, b, cfg)
        got_a = [(r.segment_id, r.matched_segment_id, r.midpoint_dist, r.hausdorff, r.angle) for r in records_a]
        got_b = [(r.segment_id, r.matched_segment_id, r.midpoint_dist, r.hausdorff, r.angle) for r in records_b]
        assert got_a == oracle(segs_a, segs_b)
        assert got_b == oracle(segs_b, segs_a)


def test_c05_component_oracle_equivalence():
    with budget(5.0):
        rng = np.random.default_rng(505)
        for _ in range(30):
            n_nodes = int(rng.integers(4, 18))
            n_edges = int(rng.integers(1, 51))
            nodes = [(float(x), float(y)) for x, y in rng.uniform(0, 800, size=(n_nodes, 2))]
            specs = []
            for e in range(n_edges):
                i, j = rng.integers(0, n_nodes, size=2)
                if i == j:
                    j = (j + 1) % n_nodes
                specs.append((f"e{e}", [nodes[i], nodes[j]]))
            g = build_graph(make_dataset("t", specs), snap_tolerance=0.0)

            # transitive-closure oracle over exact endpoints
            groups = [{tuple(s[1][0]), tuple(s[1][-1])} for s in specs]
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
            oracle_partition = {}
            for idx, s in enumerate(specs):
                oracle_partition.setdefault(id(groups[idx]), set()).add(s[0])
            assert {frozenset(v) for v in g.component_index.values()} == {
                frozenset(v) for v in oracle_partition.values()
            }


def test_c06_conservation():
    with budget(5.0):
        rng = np.random.default_rng(606)
        grid = build_grid(rect_polygon(0, 0, 4000, 4000), 100000.0)
        assert len(grid.cells) >= 100
        edges = []
        for i in range(200):
            x, y = rng.uniform(100, 3900, size=2)
            dx, dy = rng.uniform(-350, 350, size=2)
            x2 = float(np.clip(x + dx, 50, 3950))
            y2 = float(np.clip(y + dy, 50, 3950))
            if (x2, y2) == (x, y):
                continue
            edges.append(make_edge(f"e{i}", [(float(x), float(y)), (x2, y2)]))
        policy = LengthPolicy.default()
        totals, outside = assign_lengths(edges, grid.clip_edges(edges), policy)
        assert len({c for c in totals}) >= 100
        global_total = sum(infrastructure_length(e, policy) for e in edges)
        assert sum(totals.values()) + outside == pytest.approx(global_total, rel=1e-3)

        half = 2000.0
        parts = [
            rect_polygon(0, 0, half, 4000, name="w"),
            rect_polygon(half, 0, half, 4000, name="e"),
        ]
        clipped = sum(
            clip_polyline_to_polygon(e.geometry, p) * policy.factor_for(e) for e in edges for p in parts
        )
        assert clipped == pytest.approx(global_total, rel=1e-3)


def test_c07_moran_numerics():
    with budget(30.0):
        cells = [(q, r) for q in range(8) for r in range(5)]
        cents = {c: hex_centroid(*c) for c in cells}
        values = {c: v for c, v in zip(cells, HAND_VALUES)}
        w = build_weights(cents, knn_scheme(6))

        res = global_moran(values, w, n_perm=999, seed=77)
        assert res.i == pytest.approx(global_oracle(values, w), abs=1e-12)
        lisa = local_moran(values, w, n_perm=999, seed=77)
        for cell, expected in local_oracle(values, w).items():
            assert lisa.local_i[cell] == pytest.approx(expected, abs=1e-12)

        with pytest.raises(ZeroVarianceError):
            global_moran({c: 1.0 for c in cells}, w, n_perm=99, seed=1)

        checker = {(q, r): float(q % 2) for q, r in cells}
        assert global_moran(checker, w, n_perm=199, seed=1).i < 0

        block = {(q, r): (10.0 if q < 4 else 0.0) for q, r in cells}
        two_block = global_moran(block, w, n_perm=199, seed=1)
        assert two_block.i == pytest.approx(0.8083333333333333, abs=1e-12)  # frozen oracle value
        assert two_block.i > 0.5

        serial = local_moran(values, w, n_perm=999, seed=77)
        threaded = local_moran(values, w, n_perm=999, seed=77)
        assert serial.pseudo_p == threaded.pseudo_p
        g1 = global_moran(values, w, n_perm=999, seed=77)
        assert g1.pseudo_p == res.pseudo_p


def test_c08_lisa_quadrant_semantics():
    with budget(30.0):
        cents = hex_block(8, 8)
        w = build_weights(cents, knn_scheme(6))
        plateau = {(q, r) for q in (3, 4, 5) for r in (3, 4, 5)}
        values = {c: (10.0 if c in plateau else 0.0) for c in cents}
        lisa = local_moran(values, w, n_perm=999, seed=8, alpha=0.05)
        assert lisa.quadrant[(4, 4)] == "HH"
        assert lisa.significant[(4, 4)]
        idx_of = {cid: i for i, cid in enumerate(w.ids)}
        for cell in cents:
            if cell in plateau:
                assert lisa.quadrant[cell] == "HH"
            else:
                nbr_cells = {w.ids[j] for j in w.neighbors[idx_of[cell]]}
                if nbr_cells & plateau:
                    assert lisa.quadrant[cell] == "LH"

        flipped = local_moran({c: -v for c, v in values.items()}, w, n_perm=999, seed=8, alpha=0.05)
        swap = {"HH": "LL", "LL": "HH", "HL": "LH", "LH": "HL"}
        for cell in cents:
            assert flipped.quadrant[cell] == swap[lisa.quadrant[cell]]
            assert flipped.pseudo_p[cell] == lisa.pseudo_p[cell]
            assert flipped.significant[cell] == lisa.significant[cell]


def test_c09_tag_share():
    with budget(5.0):
        grid = build_grid(rect_polygon(0, 0, 500, 500), 4000000.0)
        spec = TagSpec("surface", ("surface", "cycleway:surface"))
        edges = [
            make_edge("tagged", [(100, 100), (400, 100)], attrs={"surface": "asphalt"}),
            make_edge("bare", [(100, 200), (200, 200)]),
        ]
        share = tag_share(edges, spec, grid.clip_edges(edges))
        assert share.global_pct == pytest.approx(75.0)
        assert list(share.per_cell_pct.values()) == [pytest.approx(75.0)]

        rng = np.random.default_rng(909)
        big_grid = build_grid(rect_polygon(0, 0, 1500, 1500), 300000.0)
        pool = []
        for i in range(30):
            x, y = rng.uniform(100, 1400, size=2)
            x2 = float(np.clip(x + rng.uniform(-200, 200), 50, 1450))
            y2 = float(np.clip(y + rng.uniform(-200, 200), 50, 1450))
            if (x2, y2) == (x, y):
                continue
            attrs = {"surface": "asphalt"} if rng.random() < 0.3 else {}
            pool.append(make_edge(f"e{i}", [(float(x), float(y)), (x2, y2)], attrs=attrs))
        base = tag_share(pool, spec, big_grid.clip_edges(pool))
        untagged = [e for e in pool if "surface" not in e.attributes]
        for _ in range(100):
            edge = untagged[int(rng.integers(0, len(untagged)))]
            edge.attributes["surface"] = "gravel"
            bumped = tag_share(pool, spec, big_grid.clip_edges(pool))
            for cell, pct in base.per_cell_pct.items():
                assert bumped.per_cell_pct[cell] >= pct - 1e-9
            del edge.attributes["surface"]


def test_c10_end_to_end_determinism(tmp_path):
    with budget(60.0):
        def configured(out_name):
            doc = json.loads((DEMO / "config.json").read_text())
            for key in ("candidate", "reference"):
                doc[key]["path"] = str(DEMO / doc[key]["path"])
            for key in ("study_area", "polygons", "population", "rules"):
                doc[key] = str(DEMO / doc[key])
            path = tmp_path / f"config-{out_name}.json"
            path.write_text(json.dumps(doc))
            return RunConfig.from_file(path, out_override=tmp_path / out_name)

        summary, _ = run_pipeline(configured("one"))
        run_pipeline(configured("two"))
        run_pipeline(configured("four"))

        def machine_outputs(d):
            return {
                p.name: p.read_bytes()
                for p in sorted((tmp_path / d).iterdir())
                if p.name != "run_info.json"
            }

        first = machine_outputs("one")
        assert first == machine_outputs("two")
        assert first == machine_outputs("four")

        # Table-1/Table-2-shaped summary populated and internally consistent
        for role in ("candidate", "reference"):
            totals = summary["density"]["totals"][role]
            structure = summary["structure"][role]
            match = summary["matching"][role]
            for key in ("total_km", "protected_km", "unprotected_km"):
                assert totals[key] >= 0
            assert structure["nodes"] > 0
            assert structure["components"] > 0
            assert structure["largest_component_share_pct"] / 100.0 * totals["total_km"] == pytest.approx(
                structure["largest_component_km"], rel=1e-5
            )
            assert match["pct_matched_segments"] == pytest.approx(
                100.0 * match["matched_segments"] / match["segments"], abs=1e-3
            )
            assert match["local_min_pct"] <= match["local_avg_pct"] <= match["local_max_pct"]
        assert summary["spatial_autocorrelation"]["knn6"]["density_difference"]["moran_i"] is not None
