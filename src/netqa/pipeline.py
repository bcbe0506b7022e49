"""Pipeline orchestration: one config file in, all tables and layers out.

Stages run in dependency order (ingest, graph, grid, density, structure,
matching, tags, autocorrelation); each subcommand executes only its stage
plus prerequisites. All output payloads are assembled in memory and
written together at the end, into a temporary directory beside the output
directory; the files are moved into place only once all of them are
written, so neither a failing stage nor a failed write leaves partial
files behind or destroys a previous run's results. Output files carry no
timestamps; run metadata lives in a separate file excluded from golden
comparisons.
"""

from __future__ import annotations

import json
import logging
import math
import os
import shutil
import tempfile
import time
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

from . import completeness, featureio, graph, hexgrid, ingest, matching, spatial, tags
from .errors import ConfigError, NetqaError, PipelineError, WeightsError, ZeroVarianceError
from .featureio import round_metric as _r

__all__ = ["RunConfig", "Pipeline", "run_pipeline", "STAGES"]

log = logging.getLogger(__name__)

STAGES = ("validate", "density", "structure", "match", "tags", "autocorr", "full")

_DEFAULTS = {
    "snap_tolerance_m": graph.DEFAULT_SNAP_TOLERANCE,
    "undershoot_threshold_m": graph.DEFAULT_UNDERSHOOT_THRESHOLD,
    "cell_area_m2": hexgrid.DEFAULT_CELL_AREA,
    "n_permutations": 999,
    "alpha": 0.05,
    "weights": [{"scheme": "knn", "k": 6}],
}


@dataclass
class RunConfig:
    candidate_name: str
    candidate_path: Path
    reference_name: str
    reference_path: Path
    study_area_path: Path
    rules_path: Path
    output_dir: Path
    seed: int
    polygons_path: Path | None = None
    population_path: Path | None = None
    cell_area_m2: float = _DEFAULTS["cell_area_m2"]
    snap_tolerance_m: float = _DEFAULTS["snap_tolerance_m"]
    undershoot_threshold_m: float = _DEFAULTS["undershoot_threshold_m"]
    match_config: matching.MatchConfig = field(default_factory=matching.MatchConfig)
    weights_schemes: tuple = ({"scheme": "knn", "k": 6},)
    n_permutations: int = _DEFAULTS["n_permutations"]
    alpha: float = _DEFAULTS["alpha"]
    length_policy: completeness.LengthPolicy = field(default_factory=completeness.LengthPolicy.default)
    tag_specs: tuple = tags.DEFAULT_TAG_SPECS
    tags_use_raw_length: bool = False

    @classmethod
    def from_file(cls, path, out_override=None) -> "RunConfig":
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        base = path.parent

        def need(key):
            if key not in doc:
                raise ConfigError(f"config is missing required key {key!r}")
            return doc[key]

        def dataset(role):
            entry = need(role)
            if not isinstance(entry, dict) or "path" not in entry:
                raise ConfigError(f"config key {role!r} must be an object with a 'path'")
            return str(entry.get("name", role)), base / entry["path"]

        cand_name, cand_path = dataset("candidate")
        ref_name, ref_path = dataset("reference")
        if "seed" not in doc:
            raise ConfigError("config is missing required key 'seed' (reproducibility)")
        if not _is_int(doc["seed"]) or doc["seed"] < 0:
            raise ConfigError(f"config key 'seed' must be an integer >= 0, got {doc['seed']!r}")

        match_doc = _object(doc.get("match", {}), "match")

        def threshold(key, default):
            return _number(match_doc.get(key, default), f"match.{key}", *_POSITIVE)

        match_cfg = matching.MatchConfig(
            seg_len=threshold("seg_len_m", 10.0),
            max_dist=threshold("max_dist_m", 15.0),
            max_hausdorff=threshold("max_hausdorff_m", 17.0),
            max_angle=threshold("max_angle_deg", 30.0),
        )

        policy = completeness.LengthPolicy.default()
        if "length_policy" in doc:
            factors = {}
            for key, factor in _object(doc["length_policy"], "length_policy").items():
                parts = [p.strip() for p in key.split(",")]
                if len(parts) != 2:
                    raise ConfigError(f"length_policy key {key!r} must be 'mapping_model,directionality'")
                factors[(parts[0], parts[1])] = _number(factor, f"length_policy.{key}", *_AT_LEAST_ONE)
            policy = completeness.LengthPolicy(factors=factors)

        tag_specs = tags.DEFAULT_TAG_SPECS
        if "tags" in doc:
            tag_specs = tuple(_tag_spec(entry, f"tags[{i}]") for i, entry in enumerate(_list(doc["tags"], "tags")))
            names = [t.name for t in tag_specs]
            repeated = sorted({n for n in names if names.count(n) > 1})
            if repeated:
                raise ConfigError(f"config key 'tags' names a tag more than once: {', '.join(repeated)}")

        weights_schemes = tuple(_list(doc.get("weights", _DEFAULTS["weights"]), "weights"))
        for i, scheme in enumerate(weights_schemes):
            kind = _object(scheme, f"weights[{i}]").get("scheme")
            if kind == "knn":
                if "k" not in scheme:
                    raise ConfigError("knn weights scheme needs 'k'")
                if not _is_int(scheme["k"]) or scheme["k"] < 1:
                    raise ConfigError(f"knn weights key 'k' must be an integer >= 1, got {scheme['k']!r}")
            elif kind == "distance_band":
                if "distance_m" not in scheme:
                    raise ConfigError("distance_band weights scheme needs 'distance_m'")
                if not _is_number(scheme["distance_m"]) or not scheme["distance_m"] > 0:
                    raise ConfigError(
                        f"distance_band weights key 'distance_m' must be a number > 0, got {scheme['distance_m']!r}"
                    )
            else:
                raise ConfigError(f"unknown weights scheme {kind!r}")

        n_permutations = doc.get("n_permutations", _DEFAULTS["n_permutations"])
        if not _is_int(n_permutations) or n_permutations < 1:
            raise ConfigError(f"config key 'n_permutations' must be an integer >= 1, got {n_permutations!r}")
        alpha = _number(doc.get("alpha", _DEFAULTS["alpha"]), "alpha", "a number in (0, 1)", lambda v: 0.0 < v < 1.0)
        tags_use_raw_length = doc.get("tags_use_raw_length", False)
        if not isinstance(tags_use_raw_length, bool):
            raise ConfigError(f"config key 'tags_use_raw_length' must be true or false, got {tags_use_raw_length!r}")

        grid_doc = _object(doc.get("grid", {}), "grid")
        return cls(
            candidate_name=cand_name,
            candidate_path=cand_path,
            reference_name=ref_name,
            reference_path=ref_path,
            study_area_path=base / need("study_area"),
            rules_path=base / need("rules"),
            output_dir=Path(out_override) if out_override else base / doc.get("output_dir", "netqa-out"),
            seed=doc["seed"],
            polygons_path=base / doc["polygons"] if "polygons" in doc else None,
            population_path=base / doc["population"] if "population" in doc else None,
            cell_area_m2=_number(
                grid_doc.get("cell_area_m2", _DEFAULTS["cell_area_m2"]), "grid.cell_area_m2", *_POSITIVE
            ),
            snap_tolerance_m=_number(
                doc.get("snap_tolerance_m", _DEFAULTS["snap_tolerance_m"]), "snap_tolerance_m", *_NONNEGATIVE
            ),
            undershoot_threshold_m=_number(
                doc.get("undershoot_threshold_m", _DEFAULTS["undershoot_threshold_m"]),
                "undershoot_threshold_m",
                *_POSITIVE,
            ),
            match_config=match_cfg,
            weights_schemes=weights_schemes,
            n_permutations=n_permutations,
            alpha=alpha,
            length_policy=policy,
            tag_specs=tag_specs,
            tags_use_raw_length=tags_use_raw_length,
        )

    def input_paths(self):
        paths = {
            "candidate": self.candidate_path,
            "reference": self.reference_path,
            "study_area": self.study_area_path,
            "rules": self.rules_path,
        }
        if self.polygons_path is not None:
            paths["polygons"] = self.polygons_path
        if self.population_path is not None:
            paths["population"] = self.population_path
        return paths

    def missing_inputs(self) -> list[str]:
        return [f"{key}: {p}" for key, p in self.input_paths().items() if not Path(p).is_file()]

    def resolved(self) -> dict:
        """Analysis configuration with defaults applied, echoed into reports.

        Execution details that cannot change results (output directory,
        stage timings, work sizes) are excluded here and recorded in
        run_info.json, so reports stay byte-comparable across invocations.
        """
        return {
            "candidate": {"name": self.candidate_name, "path": str(self.candidate_path)},
            "reference": {"name": self.reference_name, "path": str(self.reference_path)},
            "study_area": str(self.study_area_path),
            "rules": str(self.rules_path),
            "polygons": str(self.polygons_path) if self.polygons_path else None,
            "population": str(self.population_path) if self.population_path else None,
            "seed": self.seed,
            "grid": {"cell_area_m2": self.cell_area_m2, "orientation": "flat-top"},
            "snap_tolerance_m": self.snap_tolerance_m,
            "undershoot_threshold_m": self.undershoot_threshold_m,
            "match": {
                "seg_len_m": self.match_config.seg_len,
                "max_dist_m": self.match_config.max_dist,
                "max_hausdorff_m": self.match_config.max_hausdorff,
                "max_angle_deg": self.match_config.max_angle,
            },
            "weights": list(self.weights_schemes),
            "n_permutations": self.n_permutations,
            "alpha": self.alpha,
            "length_policy": {
                f"{model},{direction}": factor
                for (model, direction), factor in sorted(self.length_policy.factors.items())
            },
            "tags": [{"name": t.name, "keys": list(t.keys)} for t in self.tag_specs],
            "tags_use_raw_length": self.tags_use_raw_length,
        }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_POSITIVE = ("a finite number > 0", lambda v: v > 0)
_NONNEGATIVE = ("a finite number >= 0", lambda v: v >= 0)
_AT_LEAST_ONE = ("a finite number >= 1", lambda v: v >= 1)


def _number(value, key: str, rule: str, ok) -> float:
    """``value`` as a float if it is a finite JSON number passing ``ok``."""
    if not _is_number(value) or not math.isfinite(value) or not ok(value):
        raise ConfigError(f"config key {key!r} must be {rule}, got {value!r}")
    return float(value)


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config key {key!r} must be an object, got {value!r}")
    return value


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"config key {key!r} must be a list, got {value!r}")
    return value


def _tag_spec(entry, key: str) -> tags.TagSpec:
    """A tag entry: a nonempty string ``name`` and a nonempty list of nonempty string ``keys``."""
    entry = _object(entry, key)
    name, keys = entry.get("name"), entry.get("keys")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"config key '{key}.name' must be a nonempty string, got {name!r}")
    if not isinstance(keys, list) or not keys or not all(isinstance(k, str) and k for k in keys):
        raise ConfigError(f"config key '{key}.keys' must be a nonempty list of nonempty strings, got {keys!r}")
    return tags.TagSpec(name=name, keys=tuple(keys))


def _cell_key(cell_id) -> str:
    return f"{cell_id[0]},{cell_id[1]}"


def _parse_cell_key(text: str):
    q, r = text.split(",")
    return (int(q), int(r))


class Pipeline:
    """Caches stage results so subcommands share prerequisites."""

    ROLES = ("candidate", "reference")

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._cache = {}
        self.grid_fields: dict[str, dict] = {}  # field name -> {cell_id: value}
        self.summary: dict = {"configuration": cfg.resolved()}
        self.outputs: dict[str, tuple] = {}
        # wall seconds of each stage's first computation, including any
        # prerequisite it computed first; recorded in run_info.json
        self.stage_seconds: dict[str, float] = {}
        # per-direction matching work (role -> MatchCounts); run_info.json
        self.match_counts: dict[str, matching.MatchCounts] = {}

    def _run(self, stage, fn):
        if stage not in self._cache:
            start = time.perf_counter()
            try:
                self._cache[stage] = fn()
            except PipelineError:
                raise
            except NetqaError as exc:
                raise PipelineError(stage, exc) from exc
            except Exception as exc:  # defensive: name the failing stage
                raise PipelineError(stage, repr(exc)) from exc
            self.stage_seconds[stage] = time.perf_counter() - start
            log.debug("stage %s: %.3f s", stage, self.stage_seconds[stage])
        return self._cache[stage]

    def _add_grid_field(self, name: str, values: dict):
        self.grid_fields[name] = dict(values)

    # ---------------- prerequisites ----------------

    def datasets(self):
        def build():
            missing = self.cfg.missing_inputs()
            if missing:
                raise ConfigError("missing input file(s): " + "; ".join(missing))
            rules = ingest.load_rules(self.cfg.rules_path)
            out = {}
            for role, name, path in (
                ("candidate", self.cfg.candidate_name, self.cfg.candidate_path),
                ("reference", self.cfg.reference_name, self.cfg.reference_path),
            ):
                if role not in rules:
                    raise ConfigError(f"rules file has no entry for role {role!r}")
                features = ingest.parse_dataset(path)
                out[role] = ingest.classify(features, rules[role], name=name)
            return out

        return self._run("ingest", build)

    def grid(self):
        def build():
            parts = ingest.load_study_area(self.cfg.study_area_path)
            return hexgrid.build_grid(parts, self.cfg.cell_area_m2)

        return self._run("grid", build)

    def edge_cells(self, role: str) -> hexgrid.EdgeCells:
        """One role's edges clipped once; graph edges are the same objects in order."""
        if ("clip", role) not in self._cache:
            self._cache[("clip", role)] = self.grid().clip_edges(self.datasets()[role].edges)
        return self._cache[("clip", role)]

    def graphs(self):
        def build():
            return {
                role: graph.build_graph(ds, self.cfg.snap_tolerance_m)
                for role, ds in self.datasets().items()
            }

        return self._run("graph", build)

    # ---------------- stages ----------------

    def density(self):
        def build():
            cfg = self.cfg
            datasets = self.datasets()
            surfaces = {
                role: completeness.build_density_surface(ds, self.edge_cells(role), cfg.length_policy)
                for role, ds in datasets.items()
            }
            diff = completeness.density_difference(surfaces["candidate"], surfaces["reference"])
            totals = {
                role: completeness.dataset_length_totals(ds, cfg.length_policy)
                for role, ds in datasets.items()
            }
            cells_cand = set(surfaces["candidate"].values)
            cells_ref = set(surfaces["reference"].values)
            summary = {
                "totals": {
                    role: {
                        "total_km": _r(t["total_m"] / 1000.0),
                        "protected_km": _r(t["protected_m"] / 1000.0),
                        "unprotected_km": _r(t["unprotected_m"] / 1000.0),
                        "edge_count": len(datasets[role].edges),
                    }
                    for role, t in totals.items()
                },
                "grid_cells_total": len(self.grid().cells),
                "cells_with_data": {
                    "candidate": len(cells_cand),
                    "reference": len(cells_ref),
                    "either": len(cells_cand | cells_ref),
                },
                "cells_more_candidate": sum(1 for v in diff.values() if v < 0),
                "cells_more_reference": sum(1 for v in diff.values() if v > 0),
                "outside_grid_m": {
                    role: _r(surfaces[role].outside_m) for role in self.ROLES
                },
            }
            polygon_stats = None
            if cfg.polygons_path is not None:
                polys = ingest.load_polygon_layer(cfg.polygons_path)
                polygon_stats = completeness.polygon_compare(
                    datasets["candidate"].edges, datasets["reference"].edges, polys, cfg.length_policy
                )
                summary["polygons"] = {
                    "count": len({p.name for p in polygon_stats}),
                    "more_candidate": sum(1 for p in polygon_stats if p.relative_difference < 0),
                    "more_reference": sum(1 for p in polygon_stats if p.relative_difference > 0),
                }

            self._add_grid_field("density_candidate", surfaces["candidate"].values)
            self._add_grid_field("density_reference", surfaces["reference"].values)
            self._add_grid_field("density_difference", diff)
            self.summary["density"] = summary
            if polygon_stats is not None:
                self.outputs["polygons.csv"] = (
                    "csv",
                    (
                        [
                            "name",
                            "area_km2",
                            "length_candidate_km",
                            "length_reference_km",
                            "density_candidate_km_per_km2",
                            "density_reference_km_per_km2",
                            "relative_difference",
                        ],
                        [
                            [
                                p.name,
                                _r(p.area_m2 / 1e6),
                                _r(p.length_a_m / 1000.0),
                                _r(p.length_b_m / 1000.0),
                                _r(p.density_a),
                                _r(p.density_b),
                                _r(p.relative_difference),
                            ]
                            for p in polygon_stats
                        ],
                    ),
                )
            return {"surfaces": surfaces, "difference": diff, "polygon_stats": polygon_stats}

        return self._run("density", build)

    def structure(self):
        def build():
            cfg = self.cfg
            graphs = self.graphs()
            result = {}
            for role in self.ROLES:
                g = graphs[role]
                comps = graph.connected_components(g, cfg.length_policy)
                dangling = graph.dangling_nodes(g)
                undershoots = graph.detect_undershoots(g, cfg.undershoot_threshold_m)
                zipf = graph.component_zipf(g, cfg.length_policy)
                counts = graph.local_component_count(g, self.edge_cells(role))
                total_m = sum(c.length_m for c in comps)
                largest_m = comps[0].length_m if comps else 0.0
                result[role] = {
                    "components": comps,
                    "dangling": dangling,
                    "undershoots": undershoots,
                    "zipf": zipf,
                    "local_component_count": counts,
                }
                self.summary.setdefault("structure", {})[role] = {
                    "nodes": len(g.nodes),
                    "dangling_nodes": len(dangling),
                    "undershoots": len(undershoots),
                    "components": len(comps),
                    "largest_component_km": _r(largest_m / 1000.0),
                    "largest_component_share_pct": _r(100.0 * largest_m / total_m if total_m else 0.0, 6),
                }
                self._add_grid_field(f"component_count_{role}", counts)

                g_obj = graphs[role]
                self.outputs[f"undershoots_{role}.geojson"] = (
                    "fc",
                    [
                        featureio.point_feature(
                            g_obj.nodes[u.node_id].location.x,
                            g_obj.nodes[u.node_id].location.y,
                            {
                                "node_id": u.node_id,
                                "nearest_edge_id": u.nearest_edge_id,
                                "gap_m": _r(u.gap_distance),
                            },
                        )
                        for u in undershoots
                    ],
                )
                self.outputs[f"components_{role}.geojson"] = (
                    "fc",
                    [
                        featureio.line_feature(
                            featureio.polyline_coords(e.geometry),
                            {
                                "edge_id": e.id,
                                "component_id": e.component_id,
                                "infra_category": e.infra_category,
                            },
                            feature_id=e.id,
                        )
                        for e in g_obj.edges.values()
                    ],
                )
                self.outputs[f"zipf_{role}.csv"] = (
                    "csv",
                    (
                        ["rank", "component_length_km"],
                        [[rank, _r(length / 1000.0)] for rank, length in zipf],
                    ),
                )
            return result

        return self._run("structure", build)

    def matching_results(self):
        def build():
            datasets = self.datasets()
            grid = self.grid()
            counts = []
            records_cand, records_ref = matching.match_datasets(
                datasets["candidate"], datasets["reference"], self.cfg.match_config, counts
            )
            for role, c in zip(self.ROLES, counts):
                self.match_counts[role] = c
                log.debug(
                    "match %s: %d segments, %d pairs within max_dist, %d rejected by Hausdorff, "
                    "%d rejected by angle, %d accepted, %d matched",
                    role, *astuple(c),
                )
            result = {}
            for role, records in (("candidate", records_cand), ("reference", records_ref)):
                summ = matching.match_summary(records, grid)
                result[role] = {"records": records, "summary": summ}
                self.summary.setdefault("matching", {})[role] = {
                    "segments": summ.total_segments,
                    "matched_segments": summ.matched_segments,
                    "matched_length_km": _r(summ.matched_length_m / 1000.0),
                    "total_length_km": _r(summ.total_length_m / 1000.0),
                    "pct_matched_segments": _r(summ.pct_matched_count, 6),
                    "pct_matched_length": _r(summ.pct_matched_length, 6),
                    "local_min_pct": _r(summ.local_min_pct, 6),
                    "local_max_pct": _r(summ.local_max_pct, 6),
                    "local_avg_pct": _r(summ.local_avg_pct, 6),
                }
                self._add_grid_field(f"pct_matched_{role}", summ.per_cell_pct)
                self.outputs[f"segments_{role}.geojson"] = (
                    "fc",
                    [
                        featureio.line_feature(
                            [
                                [round(r.segment.start.x, 6), round(r.segment.start.y, 6)],
                                [round(r.segment.end.x, 6), round(r.segment.end.y, 6)],
                            ],
                            {
                                "edge_id": r.segment.parent_edge_id,
                                "segment_index": r.segment.index,
                                "length_m": _r(r.segment.arc_length),
                                "matched": r.matched is not None,
                                "matched_edge_id": r.matched.parent_edge_id if r.matched else None,
                                "matched_segment_index": r.matched.index if r.matched else None,
                                "midpoint_dist_m": _r(r.midpoint_dist),
                                "hausdorff_m": _r(r.hausdorff),
                                "angle_deg": _r(r.angle),
                            },
                        )
                        for r in records
                    ],
                )
            return result

        return self._run("match", build)

    def tag_shares(self):
        def build():
            cfg = self.cfg
            edges = self.datasets()["candidate"].edges
            policy = None if cfg.tags_use_raw_length else cfg.length_policy
            shares = {}
            for spec in cfg.tag_specs:
                share = tags.tag_share(edges, spec, self.edge_cells("candidate"), policy)
                shares[spec.name] = share
                self.summary.setdefault("tags", {})[spec.name] = {
                    "keys": list(spec.keys),
                    "global_pct": _r(share.global_pct, 6),
                }
                self._add_grid_field(f"tag_{spec.name}", share.per_cell_pct)
            return shares

        return self._run("tags", build)

    def autocorr(self):
        def build():
            cfg = self.cfg
            # prerequisites computed transparently
            self.density()
            self.matching_results()
            self.tag_shares()
            grid = self.grid()
            metrics = ["density_difference", "pct_matched_candidate", "pct_matched_reference"]
            metrics += [f"tag_{spec.name}" for spec in cfg.tag_specs]

            results = {}
            for scheme in cfg.weights_schemes:
                if scheme["scheme"] == "knn":
                    scheme_obj = spatial.knn_scheme(scheme["k"])
                    label = f"knn{scheme['k']}"
                else:
                    scheme_obj = spatial.distance_band_scheme(scheme["distance_m"])
                    label = f"band{scheme['distance_m']:g}"
                weights_by_cells = {}  # metrics over the same cells share weights
                for metric in metrics:
                    values = self.grid_fields.get(metric, {})
                    try:
                        cells = tuple(sorted(values))
                        w = weights_by_cells.get(cells)
                        if w is None:
                            centroids = {cell: grid.cells[cell].center for cell in cells}
                            w = weights_by_cells[cells] = spatial.build_weights(centroids, scheme_obj)
                        moran = spatial.global_moran(values, w, cfg.n_permutations, cfg.seed)
                        lisa = spatial.local_moran(values, w, cfg.n_permutations, cfg.seed, cfg.alpha)
                    except (WeightsError, ZeroVarianceError) as exc:
                        self.summary.setdefault("spatial_autocorrelation", {}).setdefault(label, {})[
                            metric
                        ] = {"skipped": str(exc)}
                        continue
                    results[(w.scheme, metric)] = {"weights": w, "global": moran, "lisa": lisa}
                    self.summary.setdefault("spatial_autocorrelation", {}).setdefault(w.scheme, {})[
                        metric
                    ] = {
                        "moran_i": _r(moran.i, 12),
                        "expected_i": _r(moran.expected_i, 12),
                        "pseudo_p": _r(moran.pseudo_p, 6),
                        "n_cells": moran.n,
                        "n_permutations": moran.n_permutations,
                        "significant_cells": sum(1 for v in lisa.significant.values() if v),
                    }
                    self.outputs[f"lisa_{w.scheme}_{metric}.geojson"] = (
                        "fc",
                        [
                            featureio.polygon_feature(
                                [grid.cells[cell].polygon],
                                {
                                    "cell_id": _cell_key(cell),
                                    "local_i": _r(lisa.local_i[cell], 12),
                                    "quadrant": lisa.quadrant[cell],
                                    "pseudo_p": _r(lisa.pseudo_p[cell], 6),
                                    "significant": lisa.significant[cell],
                                },
                            )
                            for cell in lisa.local_i
                        ],
                    )
            if cfg.population_path is not None:
                self._population_correlations()
            return results

        return self._run("autocorr", build)

    def _population_correlations(self):
        population_raw = ingest.load_population_csv(self.cfg.population_path)
        population = {}
        for key, value in population_raw.items():
            try:
                population[_parse_cell_key(key)] = value
            except (ValueError, IndexError):
                raise ConfigError(
                    f"population cell_id {key!r} is not a 'q,r' axial id"
                ) from None
        out = {}
        for metric in ["density_difference"] + [f"tag_{t.name}" for t in self.cfg.tag_specs]:
            values = self.grid_fields.get(metric)
            if not values:
                continue
            entry = {}
            for method in ("pearson", "spearman"):
                try:
                    entry[method] = _r(completeness.correlate(values, population, method), 9)
                except (ConfigError, ZeroVarianceError) as exc:
                    entry[method] = None
                    entry[f"{method}_skipped"] = str(exc)
            out[metric] = entry
        self.summary["population_correlation"] = out

    # ---------------- assembly ----------------

    def _grid_layer(self):
        grid = self.grid()
        fields = sorted(self.grid_fields)
        features = []
        for cell_id in sorted(grid.cells):
            cell = grid.cells[cell_id]
            props = {"cell_id": _cell_key(cell_id), "q": cell_id[0], "r": cell_id[1]}
            for name in fields:
                value = self.grid_fields[name].get(cell_id)
                props[name] = _r(value, 9) if value is not None else None
            features.append(featureio.polygon_feature([cell.polygon], props))
        return features

    def run_stage(self, stage: str):
        if stage == "validate":
            return self.validate()
        if stage == "density":
            self.density()
        elif stage == "structure":
            self.structure()
        elif stage == "match":
            self.matching_results()
        elif stage == "tags":
            self.tag_shares()
        elif stage == "autocorr":
            self.autocorr()
        elif stage == "full":
            self.density()
            self.structure()
            self.matching_results()
            self.tag_shares()
            self.autocorr()
        else:
            raise ConfigError(f"unknown stage {stage!r}")
        return self.write_outputs()

    def validate(self) -> dict:
        """Check inputs without writing anything."""
        problems = self.cfg.missing_inputs()
        report = {"ok": False, "problems": problems}
        if problems:
            return report
        try:
            rules = ingest.load_rules(self.cfg.rules_path)
            for role in self.ROLES:
                if role not in rules:
                    problems.append(f"rules file has no entry for role {role!r}")
            self.datasets()
            self.grid()
        except NetqaError as exc:
            problems.append(str(exc))
        report["ok"] = not problems
        return report

    def write_outputs(self) -> list[str]:
        out_dir = Path(self.cfg.output_dir)
        grid_features = self._grid_layer() if self.grid_fields else None
        summary_json = dict(self.summary)
        self._cross_check(summary_json)

        out_dir.mkdir(parents=True, exist_ok=True)
        tmp_dir = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=out_dir.parent))
        written: list[str] = []
        try:
            if grid_features is not None:
                featureio.write_feature_collection(tmp_dir / "grid_metrics.geojson", grid_features)
                written.append("grid_metrics.geojson")
            for name in sorted(self.outputs):
                kind, payload = self.outputs[name]
                if kind == "fc":
                    featureio.write_feature_collection(tmp_dir / name, payload)
                elif kind == "csv":
                    header, rows = payload
                    featureio.write_csv(tmp_dir / name, header, rows)
                else:
                    featureio.write_json(tmp_dir / name, payload)
                written.append(name)
            featureio.write_json(tmp_dir / "summary.json", summary_json)
            written.append("summary.json")
            with open(tmp_dir / "summary.txt", "w", encoding="utf-8", newline="\n") as fh:
                fh.write(render_text_summary(summary_json))
            written.append("summary.txt")
            run_info = {
                "finished_unix": int(time.time()),
                "tool": "netqa",
                "version": "0.1.0",
                "output_dir": str(out_dir),
                "stage_seconds": {stage: round(sec, 6) for stage, sec in self.stage_seconds.items()},
            }
            if self.match_counts:
                run_info["matching"] = {role: asdict(c) for role, c in self.match_counts.items()}
            run_info["work"] = self._work()
            featureio.write_json(tmp_dir / "run_info.json", run_info)
            written.append("run_info.json")
            for name in written:
                os.replace(tmp_dir / name, out_dir / name)
        finally:
            shutil.rmtree(tmp_dir, ignore_errors=True)
        return written

    def _work(self) -> dict:
        """Sizes of what the run computed: grid cells and, per role, edges,
        clip index rows and, when matching ran, segments."""
        work = {"grid_cells": len(self.grid().cells)}
        for role, ds in self.datasets().items():
            work[role] = {"edges": len(ds.edges)}
            if ("clip", role) in self._cache:
                work[role]["clips"] = len(self._cache[("clip", role)].edge)
            if role in self.match_counts:
                work[role]["segments"] = self.match_counts[role].segments
        log.debug("work: %s", json.dumps(work, sort_keys=True))
        return work

    def _cross_check(self, summary: dict) -> None:
        structure = summary.get("structure")
        density = summary.get("density")
        if not structure or not density:
            return
        for role in self.ROLES:
            total_km = density["totals"][role]["total_km"]
            share = structure[role]["largest_component_share_pct"]
            largest = structure[role]["largest_component_km"]
            if total_km > 0 and abs(share / 100.0 * total_km - largest) > max(1e-6 * total_km, 1e-9):
                raise PipelineError(
                    "report", f"inconsistent component share for {role}: {share}% of {total_km} != {largest}"
                )


def render_text_summary(summary: dict) -> str:
    lines = ["netqa summary", "============="]

    def section(title):
        lines.append("")
        lines.append(title)
        lines.append("-" * len(title))

    density = summary.get("density")
    if density:
        section("extrinsic comparison")
        rows = [
            ("total infrastructure (km)", "total_km"),
            ("protected (km)", "protected_km"),
            ("unprotected (km)", "unprotected_km"),
            ("edges", "edge_count"),
        ]
        lines.append(f"{'metric':38} {'candidate':>16} {'reference':>16}")
        for label, key in rows:
            c = density["totals"]["candidate"][key]
            r = density["totals"]["reference"][key]
            lines.append(f"{label:38} {c:>16} {r:>16}")
        structure = summary.get("structure")
        if structure:
            for label, key in (
                ("nodes", "nodes"),
                ("dangling nodes", "dangling_nodes"),
                ("undershoots", "undershoots"),
                ("components", "components"),
                ("largest component (km)", "largest_component_km"),
                ("largest component share (%)", "largest_component_share_pct"),
            ):
                c = structure["candidate"][key]
                r = structure["reference"][key]
                lines.append(f"{label:38} {c:>16} {r:>16}")
        cells = density["cells_with_data"]
        lines.append("")
        lines.append(
            f"grid cells with data: candidate {cells['candidate']}, reference {cells['reference']}, "
            f"either {cells['either']} of {density['grid_cells_total']}"
        )
        lines.append(
            f"cells with more candidate data: {density['cells_more_candidate']}; "
            f"more reference data: {density['cells_more_reference']}"
        )

    match = summary.get("matching")
    if match:
        section("feature matching")
        lines.append(f"{'metric':38} {'candidate':>16} {'reference':>16}")
        for label, key in (
            ("segments", "segments"),
            ("matched segments", "matched_segments"),
            ("matched length (km)", "matched_length_km"),
            ("% matched segments", "pct_matched_segments"),
            ("% matched length", "pct_matched_length"),
            ("local min %", "local_min_pct"),
            ("local max %", "local_max_pct"),
            ("local avg %", "local_avg_pct"),
        ):
            c = match["candidate"][key]
            r = match["reference"][key]
            lines.append(f"{label:38} {c!s:>16} {r!s:>16}")

    tag_section = summary.get("tags")
    if tag_section:
        section("tag coverage (candidate)")
        for name in sorted(tag_section):
            lines.append(f"{name:38} {tag_section[name]['global_pct']!s:>16} %")

    autocorr = summary.get("spatial_autocorrelation")
    if autocorr:
        section("spatial autocorrelation")
        for scheme in sorted(autocorr):
            for metric in sorted(autocorr[scheme]):
                entry = autocorr[scheme][metric]
                if "skipped" in entry:
                    lines.append(f"{scheme} {metric}: skipped ({entry['skipped']})")
                else:
                    lines.append(
                        f"{scheme} {metric}: I={entry['moran_i']} p={entry['pseudo_p']} "
                        f"significant cells={entry['significant_cells']}"
                    )

    pop = summary.get("population_correlation")
    if pop:
        section("correlation with population")
        for metric in sorted(pop):
            entry = pop[metric]
            lines.append(f"{metric}: pearson={entry.get('pearson')} spearman={entry.get('spearman')}")

    lines.append("")
    return "\n".join(lines)


def run_pipeline(cfg: RunConfig) -> tuple[dict, list[str]]:
    """Execute every stage and write all outputs.

    Returns the summary dict and the list of files written.
    """
    pipe = Pipeline(cfg)
    written = pipe.run_stage("full")
    return pipe.summary, written
