"""Output checks applied to every benchmark invocation of netqa."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from generate import TAGS, Workload

ROLES = ("candidate", "reference")
EXCLUDED = "run_info.json"  # the only output allowed to differ between runs
KM_TOL = 1e-6  # summary lengths are rounded to 9 decimals of a km
CONSERVATION_TOL = 1e-6  # relative
SAMPLED_CELLS = 8


def expected_files(w: Workload) -> set[str]:
    files = {"grid_metrics.geojson", "polygons.csv", "summary.json", "summary.txt", EXCLUDED}
    if w.stage == "full":
        for role in ROLES:
            files |= {f"segments_{role}.geojson", f"undershoots_{role}.geojson"}
            files |= {f"components_{role}.geojson", f"zipf_{role}.csv"}
        metrics = ["density_difference", "pct_matched_candidate", "pct_matched_reference"]
        metrics += [f"tag_{name}" for name in TAGS]
        files |= {f"lisa_knn6_{m}.geojson" for m in metrics}
    return files


def digest(out_dir) -> str:
    """SHA-256 over every output file's name and bytes except run_info.json."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        if path.name != EXCLUDED:
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _bbox(points) -> tuple[float, float, float, float]:
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def _length_inside(coords, ring) -> float:
    """Length of a polyline inside a convex counter-clockwise ring."""
    total = 0.0
    for (ax, ay), (bx, by) in zip(coords, coords[1:]):
        t0, t1 = 0.0, 1.0
        for (px, py), (qx, qy) in zip(ring, ring[1:] + ring[:1]):
            # signed distances (times |pq|) of a and b from the edge's line
            fa = (qx - px) * (ay - py) - (qy - py) * (ax - px)
            fb = (qx - px) * (by - py) - (qy - py) * (bx - px)
            if fa < 0 and fb < 0:
                t0, t1 = 1.0, 0.0
                break
            if fa < 0:
                t0 = max(t0, fa / (fa - fb))
            elif fb < 0:
                t1 = min(t1, fa / (fa - fb))
        if t1 > t0:
            total += (t1 - t0) * math.hypot(bx - ax, by - ay)
    return total


def _cell_problems(cells, role, edges, cell_area) -> list[str]:
    """Recompute a sample of per-cell lengths from the generated edges.

    Conservation alone cannot see length moved between cells and the
    outside bucket; this independent clip of the cell's hexagon can.
    """
    boxed = [(_bbox(coords), coords, factor) for coords, factor in edges]
    with_data = [c for c in cells if c["properties"][f"density_{role}"] is not None]
    problems = []
    for cell in with_data[:: max(1, len(with_data) // SAMPLED_CELLS)]:
        ring = [tuple(v) for v in cell["geometry"]["coordinates"][0][:-1]]
        x0, y0, x1, y1 = _bbox(ring)
        want = sum(
            _length_inside(coords, ring) * factor
            for (ex0, ey0, ex1, ey1), coords, factor in boxed
            if ex1 >= x0 and ex0 <= x1 and ey1 >= y0 and ey0 <= y1
        )
        got = cell["properties"][f"density_{role}"] * cell_area / 1000.0
        if abs(got - want) > max(CONSERVATION_TOL * want, 1e-3):
            problems.append(f"cell {cell['properties']['cell_id']} {role}: {got} m, recomputed {want} m")
    return problems


def _pct_ok(v) -> bool:
    return v is None or 0.0 <= v <= 100.0


def check_outputs(w: Workload, out_dir, expected: dict) -> list[str]:
    """Problems found in one run's outputs; empty when they are correct.

    ``expected`` holds the generator's per-role totals in meters and its
    classified edges.
    """
    out_dir = Path(out_dir)
    found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    want = expected_files(w)
    if found != want:
        return [f"file set: missing {sorted(want - found)}, unexpected {sorted(found - want)}"]
    problems = []
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    density = summary["density"]
    cells = json.loads((out_dir / "grid_metrics.geojson").read_text(encoding="utf-8"))["features"]
    cell_area = summary["configuration"]["grid"]["cell_area_m2"]

    for role in ROLES:
        got, exp = density["totals"][role], expected[role]
        for key in ("total", "protected", "unprotected"):
            if abs(got[f"{key}_km"] - exp[f"{key}_m"] / 1000.0) > KM_TOL:
                problems.append(f"{role} {key}_km {got[f'{key}_km']} != generated {exp[f'{key}_m'] / 1000.0}")
        if got["edge_count"] != exp["edge_count"]:
            problems.append(f"{role} edge_count {got['edge_count']} != generated {exp['edge_count']}")
        in_cells = sum(
            c["properties"][f"density_{role}"] * cell_area / 1000.0
            for c in cells
            if c["properties"][f"density_{role}"] is not None
        )
        conserved = in_cells + density["outside_grid_m"][role]
        if abs(conserved - exp["total_m"]) > CONSERVATION_TOL * exp["total_m"]:
            problems.append(f"{role}: cells + outside_grid_m = {conserved} m, generated total {exp['total_m']} m")
        problems += _cell_problems(cells, role, exp["edges"], cell_area)

    for c in cells:
        for key, v in c["properties"].items():
            if key.startswith(("pct_matched_", "tag_")) and not _pct_ok(v):
                problems.append(f"cell {c['properties']['cell_id']}: {key}={v} outside [0, 100]")
    for role, m in summary.get("matching", {}).items():
        for key in ("pct_matched_segments", "pct_matched_length", "local_min_pct", "local_max_pct", "local_avg_pct"):
            if not _pct_ok(m[key]):
                problems.append(f"matching {role} {key}={m[key]} outside [0, 100]")
        if m["matched_segments"] > m["segments"]:
            problems.append(f"matching {role}: {m['matched_segments']} matched of {m['segments']} segments")
    for name, t in summary.get("tags", {}).items():
        if not _pct_ok(t["global_pct"]):
            problems.append(f"tag {name} global_pct={t['global_pct']} outside [0, 100]")
    return problems
