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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridMismatchError, ZeroVarianceError
from .geometry import _sum_in_order, polyline_length
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


@dataclass(frozen=True)
class LengthPolicy:
    """Multipliers keyed on (mapping_model, directionality)."""

    factors: dict

    def __post_init__(self):
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


def infrastructure_length(edge, policy: LengthPolicy) -> float:
    """Geometric length times the data-model multiplier, in meters."""
    return polyline_length(edge.geometry) * policy.factor_for(edge)


def dataset_length_totals(dataset, policy: LengthPolicy) -> dict:
    """Total, protected, and unprotected infrastructure length (meters), each added in edge order."""
    length = dataset.vertices.length * np.array([policy.factor_for(e) for e in dataset.edges], dtype=float)
    category = np.array([INFRA_CATEGORIES.index(e.infra_category) for e in dataset.edges], dtype=np.intp)
    parts = {f"{name}_m": length[category == i] for i, name in enumerate(INFRA_CATEGORIES)}
    return {key: _sum_in_order(part) for key, part in {"total_m": length, **parts}.items()}


@dataclass
class DensitySurface:
    """Per-cell infrastructure density in km per km²; empty cells absent."""

    dataset_name: str
    grid: HexGrid
    values: dict = field(default_factory=dict)
    outside_m: float = 0.0


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


@dataclass(frozen=True)
class PolygonStats:
    name: str
    area_m2: float
    length_a_m: float
    length_b_m: float
    density_a: float
    density_b: float
    relative_difference: float


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
    factors = np.array([policy.factor_for(e) for e in dataset.edges], dtype=float)
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
