"""Infrastructure length, densities, and density differences.

Raw geometric length understates center-line mapped facilities: a single
center line tagged with lanes on both sides represents twice its geometric
length of infrastructure. The length policy table normalizes for that, so
datasets with different mapping models compare fairly.

Null semantics for per-cell surfaces: a cell with no data in either
dataset does not exist in the comparison; a cell with data in exactly one
dataset treats the other as zero.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import ConfigError, GridMismatchError, ZeroVarianceError
from .geometry import _sum_in_order, polyline_columns, vertex_arrays
from .hexgrid import EdgeCells, HexGrid, assign_lengths
from .ingest import INFRA_CATEGORIES
from .polygons import PolygonArea, clip_lengths

log = logging.getLogger(__name__)

__all__ = [
    "LengthPolicy",
    "DensitySurface",
    "PolygonStats",
    "infrastructure_length",
    "dataset_length_totals",
    "build_density_surface",
    "density_difference",
    "polygon_aggregate",
    "polygon_compare",
    "correlate",
]


class LengthPolicy:
    """Multipliers keyed on (mapping_model, directionality)."""

    __slots__ = ("factors", "_arrays")

    def __init__(self, factors: dict):
        self.factors = factors
        # edge_factors' arrays, keyed by the ids of the edges they were built from
        self._arrays = {}
        for key, factor in self.factors.items():
            if factor < 1.0:
                raise ConfigError(f"length factor for {key} must be >= 1, got {factor}")

    @classmethod
    def default(cls) -> "LengthPolicy":
        # a bidirectional center line stands for facilities on both sides
        return cls(
            factors={
                ("centerline", "bidirectional"): 2.0,
                ("centerline", "oneway"): 1.0,
                ("separate_geometry", "bidirectional"): 1.0,
                ("separate_geometry", "oneway"): 1.0,
            }
        )

    def factor_for(self, edge) -> float:
        key = (edge.mapping_model, edge.directionality)
        try:
            return self.factors[key]
        except KeyError:
            raise ConfigError(f"length policy has no entry for {key}") from None

    def edge_factors(self, edges) -> np.ndarray:
        """``factor_for`` of each edge, as one read-only array.

        The array is kept with the policy: the same edge objects in the same
        order (a dataset's edges, or its graph's) get it back without
        another ``factor_for`` call, so a run calls it once per edge.
        """
        key = np.fromiter(map(id, edges), dtype=np.uintp).tobytes()
        if key not in self._arrays:
            factors = np.array([self.factor_for(e) for e in edges], dtype=float)
            factors.flags.writeable = False
            self._arrays[key] = (list(edges), factors)  # held, so no other object takes their ids
        return self._arrays[key][1]


def infrastructure_length(edge, policy: LengthPolicy) -> float:
    """Geometric length times the data-model multiplier, in meters."""
    return float(vertex_arrays(*polyline_columns([edge.geometry])).length[0]) * policy.factor_for(edge)


def dataset_length_totals(dataset, policy: LengthPolicy) -> dict:
    """Total, protected, and unprotected infrastructure length (meters), each added in edge order."""
    length = dataset.vertices.length * policy.edge_factors(dataset.edges)
    category = np.array([INFRA_CATEGORIES.index(e.infra_category) for e in dataset.edges], dtype=np.intp)
    parts = {f"{name}_m": length[category == i] for i, name in enumerate(INFRA_CATEGORIES)}
    return {key: _sum_in_order(part) for key, part in {"total_m": length, **parts}.items()}


class DensitySurface:
    """Per-cell infrastructure density in km per km²; empty cells absent."""

    __slots__ = ("dataset_name", "grid", "values", "outside_m")

    def __init__(self, dataset_name: str, grid: HexGrid, values: dict | None = None, outside_m: float = 0.0):
        self.dataset_name, self.grid = dataset_name, grid
        self.values = {} if values is None else values
        self.outside_m = outside_m


def build_density_surface(dataset, cells: EdgeCells, policy: LengthPolicy) -> DensitySurface:
    cell_lengths, outside = assign_lengths(dataset.edges, cells, policy)
    values = {cell: 1000.0 * length_m / cells.grid.cell_area for cell, length_m in cell_lengths.items()}
    return DensitySurface(dataset_name=dataset.name, grid=cells.grid, values=values, outside_m=outside)


def density_difference(a: DensitySurface, b: DensitySurface) -> dict:
    """Per-cell ``b - a`` density in km/km².

    With a as the candidate (crowdsourced) surface and b as the reference
    surface, negative cells carry more candidate data. Cells empty in both
    surfaces are absent; a cell empty in only one treats that side as 0.
    """
    if a.grid is not b.grid and a.grid.signature != b.grid.signature:
        raise GridMismatchError(
            f"surfaces built on different grids: {a.grid.signature} vs {b.grid.signature}"
        )
    cells = set(a.values) | set(b.values)
    return {cell: b.values.get(cell, 0.0) - a.values.get(cell, 0.0) for cell in sorted(cells)}


class PolygonStats:
    __slots__ = ("name", "area_m2", "length_a_m", "length_b_m", "density_a", "density_b", "relative_difference")

    def __init__(self, name, area_m2, length_a_m, length_b_m, density_a, density_b, relative_difference):
        self.name, self.area_m2, self.length_a_m, self.length_b_m = name, area_m2, length_a_m, length_b_m
        self.density_a, self.density_b, self.relative_difference = density_a, density_b, relative_difference


def polygon_aggregate(dataset, polygons: list[PolygonArea], policy: LengthPolicy) -> dict:
    """Infrastructure length and density per named polygon.

    Multi-part polygons contribute under one name. Overlapping polygons
    double-count the shared length; that is detected per edge (clipped
    total exceeding the edge length) and warned about once.

    Each part is clipped against all edges at once; the (edge, part)
    lengths then add up per name and per edge in edge order, then part
    order, as a loop over edges and parts does.
    """
    vertices = dataset.vertices
    areas: dict[str, float] = {}
    for part in polygons:
        areas[part.name] = areas.get(part.name, 0.0) + part.area
    names = sorted(areas)
    index = {name: i for i, name in enumerate(names)}
    name_of = np.array([index[part.name] for part in polygons], dtype=np.intp)
    # each part's edges of positive length, with their lengths
    hits = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for j, polygon in enumerate(polygons):
        clip = clip_lengths(vertices, polygon)
        e = np.flatnonzero(clip > 0.0)
        hits.append((e, np.full(len(e), j), clip[e]))
    edge, part, length = (np.concatenate(col) for col in zip(*hits))
    # the rows (edge, part, length) in edge order, then part order
    order = np.lexsort((part, edge))
    edge, part, length = edge[order], part[order], length[order]
    factors = policy.edge_factors(dataset.edges)
    # bincount gives ints when there are no weights at all
    lengths = np.bincount(name_of[part], length * factors[edge], minlength=len(names)).astype(float).tolist()
    clipped_total = np.bincount(edge, length, minlength=len(vertices))
    if np.count_nonzero(clipped_total > vertices.length * (1.0 + 1e-6)):
        log.warning("polygon layer overlaps itself; shared length is double-counted")
    return {
        name: {
            "length_m": length_m,
            "area_m2": areas[name],
            "density_km_per_km2": 1000.0 * length_m / areas[name],
        }
        for name, length_m in zip(names, lengths)
    }


def polygon_compare(dataset_a, dataset_b, polygons: list[PolygonArea], policy: LengthPolicy) -> list[PolygonStats]:
    """Side-by-side polygon totals with a bounded relative difference.

    The relative difference is (b - a) / max(a, b), which stays in
    [-1, 1]; it is 0 when both sides are empty.
    """
    agg_a = polygon_aggregate(dataset_a, polygons, policy)
    agg_b = polygon_aggregate(dataset_b, polygons, policy)
    out = []
    for name in sorted(agg_a):
        la = agg_a[name]["length_m"]
        lb = agg_b[name]["length_m"]
        denom = max(la, lb)
        out.append(
            PolygonStats(
                name=name,
                area_m2=agg_a[name]["area_m2"],
                length_a_m=la,
                length_b_m=lb,
                density_a=agg_a[name]["density_km_per_km2"],
                density_b=agg_b[name]["density_km_per_km2"],
                relative_difference=(lb - la) / denom if denom > 0 else 0.0,
            )
        )
    return out


def _average_ranks(v: np.ndarray) -> np.ndarray:
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=float)
    i = 0
    sv = v[order]
    while i < len(v):
        j = i
        while j + 1 < len(v) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def correlate(metric_a: dict, metric_b: dict, method: str = "pearson") -> float:
    """Correlation between two per-cell metrics over their common cells.

    Cells missing from either metric are excluded pairwise. Requires at
    least 3 complete pairs and nonzero variance on both sides.
    """
    common = sorted(set(metric_a) & set(metric_b))
    if len(common) < 3:
        raise ConfigError(f"correlation needs at least 3 complete pairs, got {len(common)}")
    x = np.array([metric_a[c] for c in common], dtype=float)
    y = np.array([metric_b[c] for c in common], dtype=float)
    if method == "spearman":
        x = _average_ranks(x)
        y = _average_ranks(y)
    elif method != "pearson":
        raise ConfigError(f"unknown correlation method {method!r}")
    xd = x - x.mean()
    yd = y - y.mean()
    sx = float(np.sqrt((xd * xd).sum()))
    sy = float(np.sqrt((yd * yd).sum()))
    if sx == 0.0 or sy == 0.0:
        raise ZeroVarianceError("correlation undefined: a metric has zero variance")
    return float((xd * yd).sum() / (sx * sy))
