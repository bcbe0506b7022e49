"""Deterministic input generator for the netqa benchmark.

Every workload is a jittered street lattice seen by two mappers. The
candidate and the reference share the lattice but differ by a constant
offset and by independent edge deletions. The candidate maps every fourth
street as a residential road with a bicycle lane (a centerline,
bidirectional edge, so the length multiplier doubles it), carries four
spatially clustered tags and a few unclassified footways that the rules
drop. Both sides get short stubs that stop 1-2 m before a street, which
netqa reports as undershoots. Feature ids are unique.

The same (workload, seed) pair always gives byte-identical files: all
randomness comes from ``random.Random`` streams seeded with strings,
which do not depend on hash randomisation or on numpy.

Run ``python3 perfbench/generate.py <workload> <seed> <dir>`` to write one
input set; the runner calls ``generate`` directly.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

# Projected coordinates (meters) far from the origin, as in a UTM zone;
# small values would look like lon/lat degrees to netqa.
X0 = 400000.0
Y0 = 5800000.0
BLOCK_M = 100.0
JITTER_M = 12.0
DELETE_P = 0.12
OFFSET_M = (1.5, 1.0)
TAGS = {
    "surface": (("surface", "cycleway:surface"), "asphalt"),
    "lit": (("lit",), "yes"),
    "width": (("width", "cycleway:width"), "2.0"),
    "maxspeed": (("maxspeed",), "30"),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape and the netqa invocation that reads it."""

    name: str
    stage: str  # netqa subcommand
    threads: int
    extent_m: float  # side of the square street lattice
    cell_area_m2: float
    n_permutations: int
    outline_vertices: int  # 0: rectangular study area
    districts: int
    district_vertices: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("city-full", "full", 2, 1400.0, 10000.0, 599, 0, 4, 4),
        Workload("match-dense", "full", 1, 2400.0, 740000.0, 199, 0, 4, 4),
        Workload("ragged-district", "density", 1, 1800.0, 20000.0, 199, 1500, 6, 400),
    )
}

RULES = {
    "candidate": [
        {
            "match": {"key": "highway", "equals": "cycleway"},
            "assign": {
                "infra_category": "protected",
                "mapping_model": "separate_geometry",
                "directionality": "oneway",
            },
        },
        {
            "match": {"all": [{"key": "highway", "equals": "residential"}, {"key": "cycleway", "in": ["lane"]}]},
            "assign": {
                "infra_category": "unprotected",
                "mapping_model": "centerline",
                "directionality": "bidirectional",
            },
        },
    ],
    "reference": [
        {
            "match": {"key": "type", "equals": "track"},
            "assign": {
                "infra_category": "protected",
                "mapping_model": "separate_geometry",
                "directionality": "oneway",
            },
        },
        {
            "match": {"key": "type", "equals": "lane"},
            "assign": {
                "infra_category": "unprotected",
                "mapping_model": "separate_geometry",
                "directionality": "oneway",
            },
        },
    ],
}


def _rng(seed: int, workload: str, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{workload}:{purpose}")


def _r(v: float) -> float:
    return round(v, 3)


def _length(coords) -> float:
    return sum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(coords, coords[1:]))


def _lattice(w: Workload, seed: int):
    """Jittered nodes and the street edges between them.

    Each edge has a wobbled midpoint vertex, so it is a 3-vertex line.
    Returns a list of (key, is_lane, [a, mid, b]) in a fixed order.
    """
    rng = _rng(seed, w.name, "lattice")
    n = int(round(w.extent_m / BLOCK_M))
    nodes = {
        (i, j): (X0 + i * BLOCK_M + rng.uniform(-JITTER_M, JITTER_M), Y0 + j * BLOCK_M + rng.uniform(-JITTER_M, JITTER_M))
        for i in range(n + 1)
        for j in range(n + 1)
    }
    edges = []
    for i in range(n + 1):
        for j in range(n + 1):
            for di, dj, tag in ((1, 0, "h"), (0, 1, "v")):
                if i + di > n or j + dj > n:
                    continue
                a, b = nodes[(i, j)], nodes[(i + di, j + dj)]
                wob = rng.uniform(-3.0, 3.0)
                # perpendicular wobble of the midpoint
                dx, dy = b[0] - a[0], b[1] - a[1]
                norm = math.hypot(dx, dy)
                mid = ((a[0] + b[0]) / 2 - dy / norm * wob, (a[1] + b[1]) / 2 + dx / norm * wob)
                is_lane = (j if tag == "h" else i) % 4 == 0
                edges.append((f"{tag}-{i}-{j}", is_lane, [a, mid, b]))
    return edges


def _stub(rng: random.Random, line):
    """A 30 m stub whose free end stops 1-2 m short of ``line``'s first piece."""
    a, b = line[0], line[1]
    dx, dy = b[0] - a[0], b[1] - a[1]
    px, py = a[0] + 0.9 * dx, a[1] + 0.9 * dy
    norm = math.hypot(dx, dy)
    nx, ny = -dy / norm, dx / norm
    side = 1.0 if rng.random() < 0.5 else -1.0
    gap = rng.uniform(1.0, 2.0)
    near = (px + side * nx * gap, py + side * ny * gap)
    far = (px + side * nx * (gap + 30.0), py + side * ny * (gap + 30.0))
    return [far, near]


def _tag_clusters(w: Workload, seed: int):
    rng = _rng(seed, w.name, "tag-clusters")
    return {name: [(X0 + rng.uniform(0, w.extent_m), Y0 + rng.uniform(0, w.extent_m)) for _ in range(3)] for name in TAGS}


def _feature(fid, coords, props):
    return {
        "type": "Feature",
        "id": fid,
        "geometry": {"type": "LineString", "coordinates": [[_r(x), _r(y)] for x, y in coords]},
        "properties": props,
    }


def _datasets(w: Workload, seed: int):
    """Candidate and reference feature lists plus their expected totals."""
    lattice = _lattice(w, seed)
    clusters = _tag_clusters(w, seed)
    radius = w.extent_m / 5.0
    out = {}
    for role in ("candidate", "reference"):
        rng = _rng(seed, w.name, role)
        ox, oy = (0.0, 0.0) if role == "candidate" else OFFSET_M
        feats = []
        totals = {"total_m": 0.0, "protected_m": 0.0, "unprotected_m": 0.0, "edge_count": 0, "edges": []}
        kept = []

        def add(fid, coords, props, category, factor):
            feat = _feature(fid, coords, props)
            feats.append(feat)
            if category is None:
                return
            written = feat["geometry"]["coordinates"]
            length = _length(written) * factor
            totals["edges"].append((written, factor))
            totals["total_m"] += length
            totals[f"{category}_m"] += length
            totals["edge_count"] += 1

        prefix = role[0]
        for key, is_lane, line in lattice:
            if rng.random() < DELETE_P:
                continue
            coords = [(x + ox, y + oy) for x, y in line]
            fid = f"{prefix}-{key}"
            if role == "candidate":
                if is_lane:
                    props = {"highway": "residential", "cycleway": "lane"}
                    category, factor = "unprotected", 2.0
                elif rng.random() < 0.03:
                    add(fid, coords, {"highway": "footway"}, None, 0.0)
                    continue
                else:
                    props = {"highway": "cycleway"}
                    category, factor = "protected", 1.0
                mx, my = coords[1]
                for tag, (keys, value) in TAGS.items():
                    near = any(math.hypot(mx - cx, my - cy) < radius for cx, cy in clusters[tag])
                    if rng.random() < (0.85 if near else 0.08):
                        props[keys[rng.randrange(len(keys))]] = value
            else:
                props = {"type": "lane" if is_lane else "track"}
                category, factor = ("unprotected" if is_lane else "protected"), 1.0
            add(fid, coords, props, category, factor)
            kept.append(coords)
        stub_rng = _rng(seed, w.name, role + "-stubs")
        for k in range(max(3, len(kept) // 400)):
            line = kept[stub_rng.randrange(len(kept))]
            props = {"highway": "cycleway"} if role == "candidate" else {"type": "track"}
            add(f"{prefix}-stub-{k}", _stub(stub_rng, line), props, "protected", 1.0)
        out[role] = (feats, totals)
    return out


def _outline(w: Workload, theta0: float, theta1: float, n: int, closed: bool):
    """Points of the wobbly study outline r(theta) between two angles.

    The outline does not depend on the seed: grid and polygon costs grow
    with its shape, and a seed should vary the data, not the work.
    """
    rng = _rng(0, w.name, "outline")
    phases = [rng.uniform(0, 2 * math.pi) for _ in range(3)]
    cx, cy = X0 + w.extent_m / 2, Y0 + w.extent_m / 2
    r0 = 0.46 * w.extent_m
    pts = []
    count = n if closed else n + 1
    for k in range(count):
        th = theta0 + (theta1 - theta0) * k / n
        r = r0 * (
            1.0
            + 0.07 * math.sin(5 * th + phases[0])
            + 0.03 * math.sin(23 * th + phases[1])
            + 0.01 * math.sin(97 * th + phases[2])
        )
        pts.append((cx + r * math.cos(th), cy + r * math.sin(th)))
    return pts


def _polygon(fid, name, ring):
    coords = [[_r(x), _r(y)] for x, y in ring]
    coords.append(coords[0])
    return {"type": "Feature", "id": fid, "geometry": {"type": "Polygon", "coordinates": [coords]}, "properties": {"name": name}}


def _areas(w: Workload):
    """Study area and district features."""
    e = w.extent_m
    if w.outline_vertices:
        study = _outline(w, 0.0, 2 * math.pi, w.outline_vertices, closed=True)
        center = (X0 + e / 2, Y0 + e / 2)
        districts = []
        for k in range(w.districts):
            t0 = 2 * math.pi * k / w.districts
            t1 = 2 * math.pi * (k + 1) / w.districts
            arc = _outline(w, t0, t1, w.district_vertices - 2, closed=False)
            districts.append([center] + arc)
    else:
        # the east margin lies outside the study area, so some length
        # falls outside the grid
        x1 = X0 + e - 300.0
        study = [(X0 - 50.0, Y0 - 50.0), (x1, Y0 - 50.0), (x1, Y0 + e + 50.0), (X0 - 50.0, Y0 + e + 50.0)]
        half = e / 2
        districts = [
            [(X0 + i * half, Y0 + j * half), (X0 + (i + 1) * half, Y0 + j * half),
             (X0 + (i + 1) * half, Y0 + (j + 1) * half), (X0 + i * half, Y0 + (j + 1) * half)]
            for i in range(2)
            for j in range(2)
        ][: w.districts]
    return (
        {"type": "FeatureCollection", "features": [_polygon("study", "study", study)]},
        {
            "type": "FeatureCollection",
            "features": [_polygon(f"district-{k}", f"district-{k}", ring) for k, ring in enumerate(districts)],
        },
    )


def config(w: Workload) -> dict:
    return {
        "candidate": {"name": "crowd", "path": "candidate.geojson"},
        "reference": {"name": "authority", "path": "reference.geojson"},
        "study_area": "study_area.geojson",
        "polygons": "districts.geojson",
        "rules": "rules.json",
        "output_dir": "out",
        "seed": 7,
        "grid": {"cell_area_m2": w.cell_area_m2},
        "weights": [{"scheme": "knn", "k": 6}],
        "n_permutations": w.n_permutations,
        "tags": [{"name": name, "keys": list(keys)} for name, (keys, _) in TAGS.items()],
    }


def generate(w: Workload, seed: int, out_dir) -> dict:
    """Write the input files for (w, seed) into out_dir.

    Returns the expected per-role totals: multiplier-adjusted total,
    protected and unprotected meters, the classified edge count, and
    ``edges``, the (coordinates, length factor) of every classified edge.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = _datasets(w, seed)
    study, districts = _areas(w)
    docs = {
        "candidate.geojson": {"type": "FeatureCollection", "features": data["candidate"][0]},
        "reference.geojson": {"type": "FeatureCollection", "features": data["reference"][0]},
        "study_area.geojson": study,
        "districts.geojson": districts,
        "rules.json": RULES,
        "config.json": config(w),
    }
    for name, doc in docs.items():
        (out_dir / name).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    return {role: data[role][1] for role in ("candidate", "reference")}


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: generate.py {{{'|'.join(WORKLOADS)}}} SEED DIR")
    expected = generate(WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
    print(json.dumps({role: {k: v for k, v in t.items() if k != "edges"} for role, t in expected.items()}))
