"""Pipeline orchestration: one config file in, all tables and layers out.

Stages run in dependency order (ingest, graph, grid, density, structure,
matching, tags, autocorrelation); each subcommand executes only its stage
plus prerequisites. A stage registers each output layer as a producer: a
zero-argument callable returning an iterable of features, built from the
stage's results, or of encoded feature lines (the segment layer, formatted
from the match columns). All files are written together at the end (the
``write`` stage), each layer streamed from its producer while its file is
written, so no layer is held in memory whole. They go into a temporary
directory beside the output directory and are moved into place only once
all of them are written, so neither a failing stage nor a failed write
leaves partial files behind or destroys a previous run's results. Output
files carry no timestamps; run metadata (stage timings including
``write``, peak RSS, work sizes) lives in ``run_info.json``, excluded from
golden comparisons.
"""

from __future__ import annotations

import json
import logging
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, astuple, dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path

from . import completeness, featureio, graph, hexgrid, ingest, matching, spatial, tags
from .errors import ConfigError, NetqaError, PipelineError, WeightsError, ZeroVarianceError
from .featureio import round_metric as _r

try:
    import resource
except ImportError:  # no getrusage on Windows; run_info.json then records null
    resource = None

__all__ = ["RunConfig", "Pipeline", "run_pipeline", "STAGES"]

log = logging.getLogger(__name__)

STAGES = ("validate", "density", "structure", "match", "tags", "autocorr", "full")

_DEFAULTS = {
    "snap_tolerance_m": graph.DEFAULT_SNAP_TOLERANCE,
    "undershoot_threshold_m": graph.DEFAULT_UNDERSHOOT_THRESHOLD,
    "cell_area_m2": hexgrid.DEFAULT_CELL_AREA,
    "n_permutations": 999,
    "alpha": 0.05,
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
        match_default = matching.MatchConfig()

        def threshold(key, default):
            return _number(match_doc.get(key, default), f"match.{key}", *_POSITIVE)

        match_cfg = matching.MatchConfig(
            seg_len=threshold("seg_len_m", match_default.seg_len),
            max_dist=threshold("max_dist_m", match_default.max_dist),
            max_hausdorff=threshold("max_hausdorff_m", match_default.max_hausdorff),
            max_angle=threshold("max_angle_deg", match_default.max_angle),
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

        weights_schemes = tuple(_list(doc.get("weights", list(cls.weights_schemes)), "weights"))
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


# ---------------- output layers ----------------
# Generators over a stage's results, bound with functools.partial into the
# producers that Pipeline.outputs holds; each runs while its file is written.
# partial binds its arguments at once: a closure over the stages' loop
# variables (role, scheme, metric) would give every layer the last value.


def _undershoot_features(g, undershoots):
    for u in undershoots:
        at = g.nodes[u.node_id].location
        yield featureio.point_feature(
            at.x, at.y, {"node_id": u.node_id, "nearest_edge_id": u.nearest_edge_id, "gap_m": _r(u.gap_distance)}
        )


def _component_features(g):
    for e in g.edges.values():
        yield featureio.line_feature(
            featureio.polyline_coords(e.geometry),
            {"edge_id": e.id, "component_id": e.component_id, "infra_category": e.infra_category},
            feature_id=e.id,
        )


# The two lines of the segment layer: the encoded feature (keys sorted,
# compact) with its fixed parts in place, for a matched and an unmatched row.
_MATCHED_SEGMENT = (
    '{"geometry":{"coordinates":[%s,%s],"type":"LineString"},"properties":{"angle_deg":%s,"edge_id":%s,'
    '"hausdorff_m":%s,"length_m":%s,"matched":true,"matched_edge_id":%s,"matched_segment_index":%d,'
    '"midpoint_dist_m":%s,"segment_index":%d},"type":"Feature"}'
)
_UNMATCHED_SEGMENT = (
    '{"geometry":{"coordinates":[%s,%s],"type":"LineString"},"properties":{"angle_deg":null,"edge_id":%s,'
    '"hausdorff_m":null,"length_m":%s,"matched":false,"matched_edge_id":null,"matched_segment_index":null,'
    '"midpoint_dist_m":null,"segment_index":%d},"type":"Feature"}'
)

# Rows of a segment layer turned into Python values at a time. As Python
# objects a row takes about 400 bytes: converting a whole table at once
# would set the peak memory of a run that matches many segments.
_LINE_BLOCK = 1024

_sign = partial(math.copysign, 1.0)


def _float_text(v: float, decimals: int) -> str:
    """``featureio.encode(round(v, decimals))``: for a finite float that is
    ``float.__repr__``, which the encoder calls, at a third of the cost."""
    v = round(v, decimals)
    return repr(v) if math.isfinite(v) else featureio.encode(v)


def _segment_lines(table):
    """The segment layer of a ``MatchTable``, one encoded feature per row.

    Each line is ``featureio.encode`` of the row's feature, byte for byte,
    without building the feature: the edge ids are encoded once each. Two
    values repeat on any input, and their text is reused while equal to the
    previous row's (signed zeros told apart): a segment's start is the
    previous segment's end within an edge, the cut point they share, and
    the full segments of an edge share one length. The match metrics are
    formatted on every matched row.
    """
    segs, targets = table.segments, table.targets
    ids = [featureio.encode(i) for i in segs.edge_ids]
    target_ids = [featureio.encode(i) for i in targets.edge_ids]
    target_edge, target_index = targets.edge.tolist(), targets.index.tolist()
    columns = (
        segs.ends, segs.edge, segs.index, segs.length, table.target, table.midpoint_dist, table.hausdorff, table.angle
    )
    rows = chain.from_iterable(
        zip(*(c[lo : lo + _LINE_BLOCK].tolist() for c in columns)) for lo in range(0, len(segs), _LINE_BLOCK)
    )
    coord, metric = featureio.COORD_DECIMALS, featureio.METRIC_DECIMALS
    px = py = p_len = None  # the values behind end and s_len
    for (x1, y1, x2, y2), edge, index, length, j, md, h, ang in rows:
        if x1 == px and y1 == py and (x1 and y1 or (_sign(x1), _sign(y1)) == (_sign(px), _sign(py))):
            start = end
        else:
            start = "[%s,%s]" % (_float_text(x1, coord), _float_text(y1, coord))
        end, px, py = "[%s,%s]" % (_float_text(x2, coord), _float_text(y2, coord)), x2, y2
        if length != p_len or not length and _sign(length) != _sign(p_len):
            s_len, p_len = _float_text(length, metric), length
        if j < 0:
            yield _UNMATCHED_SEGMENT % (start, end, ids[edge], s_len, index)
            continue
        yield _MATCHED_SEGMENT % (
            start,
            end,
            _float_text(ang, metric),
            ids[edge],
            _float_text(h, metric),
            s_len,
            target_ids[target_edge[j]],
            target_index[j],
            _float_text(md, metric),
            index,
        )


def _lisa_features(grid, lisa):
    for cell in lisa.local_i:
        yield featureio.polygon_feature(
            [grid.cells[cell].polygon],
            {
                "cell_id": _cell_key(cell),
                "local_i": _r(lisa.local_i[cell], 12),
                "quadrant": lisa.quadrant[cell],
                "pseudo_p": _r(lisa.pseudo_p[cell], 6),
                "significant": lisa.significant[cell],
            },
        )


def _grid_features(grid, grid_fields):
    names = sorted(grid_fields)
    for cell_id in sorted(grid.cells):
        props = {"cell_id": _cell_key(cell_id), "q": cell_id[0], "r": cell_id[1]}
        for name in names:
            value = grid_fields[name].get(cell_id)
            props[name] = _r(value, 9) if value is not None else None
        yield featureio.polygon_feature([grid.cells[cell_id].polygon], props)


def _write_file(path, kind: str, payload) -> None:
    if kind == "fc":
        featureio.write_feature_collection(path, payload())
    elif kind == "lines":
        featureio.write_feature_lines(path, payload())
    elif kind == "csv":
        featureio.write_csv(path, *payload)
    elif kind == "json":
        featureio.write_json(path, payload)
    else:  # "text": a callable returning the file's text
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload())


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size so far, in MB (10**6 bytes)."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
    return round(peak * (1 if sys.platform == "darwin" else 1024) / 1e6, 3)


class Pipeline:
    """Caches stage results so subcommands share prerequisites."""

    ROLES = ("candidate", "reference")

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._cache = {}
        self.grid_fields: dict[str, dict] = {}  # field name -> {cell_id: value}
        self.summary: dict = {"configuration": cfg.resolved()}
        # file name -> ("fc", feature producer), ("lines", encoded-line
        # producer) or ("csv", (header, rows))
        self.outputs: dict[str, tuple] = {}
        # wall seconds of each stage's first computation, less those of the
        # stages it computed first; recorded in run_info.json
        self.stage_seconds: dict[str, float] = {}
        # per-direction matching work (role -> MatchCounts); run_info.json
        self.match_counts: dict[str, matching.MatchCounts] = {}
        # scheme -> [{"cells", "nnz"} of each weights build]; run_info.json
        self.weights_builds: dict[str, list[dict]] = {}
        # scheme -> [the metrics evaluated on each weights build]; run_info.json
        self.autocorr_groups: dict[str, list[list[str]]] = {}

    def _run(self, stage, fn):
        if stage not in self._cache:
            before = sum(self.stage_seconds.values())  # the stages run inside this one add to the sum
            start = time.perf_counter()
            try:
                self._cache[stage] = fn()
            except PipelineError:
                raise
            except NetqaError as exc:
                raise PipelineError(stage, exc) from exc
            except Exception as exc:  # defensive: name the failing stage
                raise PipelineError(stage, repr(exc)) from exc
            self.stage_seconds[stage] = time.perf_counter() - start - (sum(self.stage_seconds.values()) - before)
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
            self._cache[("clip", role)] = self.grid().clip_edges(self.datasets()[role].vertices)
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
            # signs of the differences as grid_metrics.geojson writes them,
            # so a difference that rounds to zero counts on neither side
            written_diff = [_r(v, 9) for v in diff.values()]
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
                "cells_more_candidate": sum(1 for v in written_diff if v < 0),
                "cells_more_reference": sum(1 for v in written_diff if v > 0),
                "outside_grid_m": {
                    role: _r(surfaces[role].outside_m) for role in self.ROLES
                },
            }
            polygon_stats = None
            if cfg.polygons_path is not None:
                polys = ingest.load_polygon_layer(cfg.polygons_path)
                polygon_stats = completeness.polygon_compare(
                    datasets["candidate"], datasets["reference"], polys, cfg.length_policy
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
                zipf = graph.component_zipf(comps)
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
                self.outputs[f"undershoots_{role}.geojson"] = ("fc", partial(_undershoot_features, g, undershoots))
                self.outputs[f"components_{role}.geojson"] = ("fc", partial(_component_features, g))
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
            tables = matching.match_tables(datasets["candidate"], datasets["reference"], self.cfg.match_config)
            result = {}
            for role, table in zip(self.ROLES, tables):
                self.match_counts[role] = table.counts
                log.debug(
                    "match %s: %d segments, %d pairs within max_dist, %d rejected by Hausdorff, "
                    "%d rejected by angle, %d accepted, %d matched",
                    role, *astuple(table.counts),
                )
                summ = matching.summarize(table, grid)
                result[role] = {"table": table, "summary": summ}
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
                self.outputs[f"segments_{role}.geojson"] = ("lines", partial(_segment_lines, table))
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
                label = spatial.scheme_label(scheme)
                entries = self.summary.setdefault("spatial_autocorrelation", {}).setdefault(label, {})
                # metrics over the same cells share one weights build and one
                # set of permutation draws; builds follow first appearance
                groups: dict[tuple, list[str]] = {}
                for metric in metrics:
                    groups.setdefault(tuple(sorted(self.grid_fields.get(metric, {}))), []).append(metric)
                outcome = {}  # metric -> (weights, MoranResult, LisaResult) or why it was skipped
                for cells, group in groups.items():
                    try:
                        w = spatial.build_weights({cell: grid.cells[cell].center for cell in cells}, scheme)
                    except WeightsError as exc:
                        outcome.update(dict.fromkeys(group, exc))
                        continue
                    self.weights_builds.setdefault(label, []).append({"cells": w.n, "nnz": len(w.col)})
                    batch = spatial.moran_batch(
                        [self.grid_fields.get(metric, {}) for metric in group],
                        w,
                        cfg.n_permutations,
                        cfg.seed,
                        cfg.alpha,
                    )
                    for metric, res in zip(group, batch):
                        outcome[metric] = res if isinstance(res, Exception) else (w, *res)
                    self.autocorr_groups.setdefault(label, []).append(
                        [metric for metric, res in zip(group, batch) if not isinstance(res, Exception)]
                    )
                for metric in metrics:
                    if isinstance(outcome[metric], Exception):
                        entries[metric] = {"skipped": str(outcome[metric])}
                        continue
                    w, moran, lisa = outcome[metric]
                    results[(label, metric)] = {"weights": w, "global": moran, "lisa": lisa}
                    entries[metric] = {
                        "moran_i": _r(moran.i, 12),
                        "expected_i": _r(moran.expected_i, 12),
                        "pseudo_p": _r(moran.pseudo_p, 6),
                        "n_cells": moran.n,
                        "n_permutations": moran.n_permutations,
                        "significant_cells": sum(1 for v in lisa.significant.values() if v),
                    }
                    self.outputs[f"lisa_{label}_{metric}.geojson"] = ("fc", partial(_lisa_features, grid, lisa))
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
            self.datasets()
            self.grid()
        except NetqaError as exc:
            problems.append(str(exc))
        report["ok"] = not problems
        return report

    def write_outputs(self) -> list[str]:
        """Build and write every file, then run_info.json; returns the names written.

        Building and writing the files before run_info.json is the ``write``
        stage: a failure there raises ``PipelineError("write", ...)`` naming
        the file, and the previous run's outputs stay in place.
        """
        out_dir = Path(self.cfg.output_dir)
        summary_json = dict(self.summary)
        self._cross_check(summary_json)
        files = []
        if self.grid_fields:
            files.append(("grid_metrics.geojson", "fc", partial(_grid_features, self.grid(), self.grid_fields)))
        files += [(name, *self.outputs[name]) for name in sorted(self.outputs)]
        files.append(("summary.json", "json", summary_json))
        files.append(("summary.txt", "text", partial(render_text_summary, summary_json)))

        out_dir.mkdir(parents=True, exist_ok=True)
        tmp_dir = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=out_dir.parent))
        written: list[str] = []
        try:
            start = time.perf_counter()
            for name, kind, payload in files:
                try:
                    _write_file(tmp_dir / name, kind, payload)
                except Exception as exc:
                    raise PipelineError("write", f"{name}: {exc!r}") from exc
                written.append(name)
            self.stage_seconds["write"] = time.perf_counter() - start
            peak_rss_mb = _peak_rss_mb()
            log.debug("stage write: %.3f s", self.stage_seconds["write"])
            log.debug("peak RSS: %s MB", peak_rss_mb)
            run_info = {
                "finished_unix": int(time.time()),
                "tool": "netqa",
                "version": "0.1.0",
                "output_dir": str(out_dir),
                "stage_seconds": {stage: round(sec, 6) for stage, sec in self.stage_seconds.items()},
                "peak_rss_mb": peak_rss_mb,
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
        """Sizes of what the run computed: grid cells; per role, edges, clip
        index rows and, when matching ran, segments; and, when the autocorr
        stage ran, the cells and neighbour count (nnz) of each weights build
        and the metrics evaluated on its one set of permutation draws."""
        work = {"grid_cells": len(self.grid().cells)}
        for role, ds in self.datasets().items():
            work[role] = {"edges": len(ds.edges)}
            if ("clip", role) in self._cache:
                work[role]["clips"] = len(self._cache[("clip", role)].edge)
            if role in self.match_counts:
                work[role]["segments"] = self.match_counts[role].segments
        if self.weights_builds:
            work["weights"] = self.weights_builds
            work["autocorr"] = self.autocorr_groups
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
