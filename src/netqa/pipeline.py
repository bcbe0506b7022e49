"""Pipeline orchestration: one config file in, all tables and layers out.

Stages run in dependency order (ingest, graph, grid, density, structure,
matching, tags, autocorrelation); each subcommand executes only its stage
plus prerequisites. A stage registers each output layer as a producer: a
zero-argument callable returning an iterable of blocks of encoded feature
lines, spelled from columns of the stage's results. All files are written
together at the end (the ``write`` stage), each layer streamed from its
producer while its file is written, so no layer is held in memory whole. They go
into a temporary directory beside the output directory and are moved into
place only once all of them are written, so neither a failing stage nor a
failed write leaves partial files behind or destroys a previous run's
results. Output files carry no timestamps; run metadata (stage timings
including ``write``, peak RSS, work sizes) lives in ``run_info.json``,
excluded from golden comparisons.
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
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import _import_start, completeness, featureio, hexgrid, ingest
from .config import DEFAULT_SNAP_TOLERANCE, DEFAULT_TAG_SPECS, DEFAULT_UNDERSHOOT_THRESHOLD, MatchConfig, TagSpec
from .errors import ConfigError, NetqaError, PipelineError, WeightsError, ZeroVarianceError
from .featureio import round_metric as _r
from .geometry import _blocks, _sum_in_order

try:
    import resource
except ImportError:  # no getrusage on Windows; run_info.json then records null
    resource = None

__all__ = ["RunConfig", "Pipeline", "run_pipeline", "STAGES"]

log = logging.getLogger(__name__)

STAGES = ("validate", "density", "structure", "match", "tags", "autocorr", "full")

# The stage modules each subcommand runs, beyond those every run needs.
# run_stage imports them before the first stage, so that their import
# time counts in import_seconds, not in the first stage that calls them.
_STAGE_MODULES = {
    "structure": ("graph",),
    "match": ("matching",),
    "tags": ("tags",),
    "autocorr": ("matching", "tags", "spatial"),
    "full": ("graph", "matching", "tags", "spatial"),
}

_DEFAULTS = {
    "snap_tolerance_m": DEFAULT_SNAP_TOLERANCE,
    "undershoot_threshold_m": DEFAULT_UNDERSHOOT_THRESHOLD,
    "cell_area_m2": hexgrid.DEFAULT_CELL_AREA,
    "n_permutations": 999,
    "alpha": 0.05,
}


class RunConfig:
    """The settings of one run, as ``from_file`` reads them."""

    weights_schemes = ({"scheme": "knn", "k": 6},)  # the default

    def __init__(
        self,
        candidate_name: str,
        candidate_path: Path,
        reference_name: str,
        reference_path: Path,
        study_area_path: Path,
        rules_path: Path,
        output_dir: Path,
        seed: int,
        polygons_path: Path | None = None,
        population_path: Path | None = None,
        cell_area_m2: float = _DEFAULTS["cell_area_m2"],
        snap_tolerance_m: float = _DEFAULTS["snap_tolerance_m"],
        undershoot_threshold_m: float = _DEFAULTS["undershoot_threshold_m"],
        match_config: MatchConfig | None = None,
        weights_schemes: tuple = weights_schemes,
        n_permutations: int = _DEFAULTS["n_permutations"],
        alpha: float = _DEFAULTS["alpha"],
        length_policy: completeness.LengthPolicy | None = None,
        tag_specs: tuple = DEFAULT_TAG_SPECS,
        tags_use_raw_length: bool = False,
    ):
        self.candidate_name, self.candidate_path = candidate_name, candidate_path
        self.reference_name, self.reference_path = reference_name, reference_path
        self.study_area_path, self.rules_path = study_area_path, rules_path
        self.output_dir, self.seed = output_dir, seed
        self.polygons_path, self.population_path = polygons_path, population_path
        self.cell_area_m2, self.snap_tolerance_m = cell_area_m2, snap_tolerance_m
        self.undershoot_threshold_m = undershoot_threshold_m
        self.match_config = MatchConfig() if match_config is None else match_config
        self.weights_schemes, self.n_permutations, self.alpha = weights_schemes, n_permutations, alpha
        self.length_policy = completeness.LengthPolicy.default() if length_policy is None else length_policy
        self.tag_specs, self.tags_use_raw_length = tag_specs, tags_use_raw_length

    @classmethod
    def from_file(cls, path, out_override=None) -> "RunConfig":
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must hold a JSON object, got {doc!r}")
        base = path.parent

        def need(key):
            if key not in doc:
                raise ConfigError(f"config is missing required key {key!r}")
            return doc[key]

        def dataset(role):
            entry = need(role)
            if not isinstance(entry, dict) or "path" not in entry:
                raise ConfigError(f"config key {role!r} must be an object with a 'path'")
            name = entry.get("name", role)
            if not isinstance(name, str) or not name:
                raise ConfigError(f"config key '{role}.name' must be a nonempty string, got {name!r}")
            return name, base / _string(entry["path"], f"{role}.path")

        cand_name, cand_path = dataset("candidate")
        ref_name, ref_path = dataset("reference")
        if "seed" not in doc:
            raise ConfigError("config is missing required key 'seed' (reproducibility)")
        if not _is_int(doc["seed"]) or doc["seed"] < 0:
            raise ConfigError(f"config key 'seed' must be an integer >= 0, got {doc['seed']!r}")

        match_doc = _object(doc.get("match", {}), "match")
        match_default = MatchConfig()

        def threshold(key, default):
            return _number(match_doc.get(key, default), f"match.{key}", *_POSITIVE)

        match_cfg = MatchConfig(
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

        tag_specs = DEFAULT_TAG_SPECS
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
        output_dir = base / _string(doc.get("output_dir", "netqa-out"), "output_dir")
        return cls(
            candidate_name=cand_name,
            candidate_path=cand_path,
            reference_name=ref_name,
            reference_path=ref_path,
            study_area_path=base / _string(need("study_area"), "study_area"),
            rules_path=base / _string(need("rules"), "rules"),
            output_dir=Path(out_override) if out_override else output_dir,
            seed=doc["seed"],
            polygons_path=base / _string(doc["polygons"], "polygons") if "polygons" in doc else None,
            population_path=base / _string(doc["population"], "population") if "population" in doc else None,
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


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
    return value


def _tag_spec(entry, key: str) -> TagSpec:
    """A tag entry: a nonempty string ``name`` and a nonempty list of nonempty string ``keys``."""
    entry = _object(entry, key)
    name, keys = entry.get("name"), entry.get("keys")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"config key '{key}.name' must be a nonempty string, got {name!r}")
    if not isinstance(keys, list) or not keys or not all(isinstance(k, str) and k for k in keys):
        raise ConfigError(f"config key '{key}.keys' must be a nonempty list of nonempty strings, got {keys!r}")
    return TagSpec(name=name, keys=tuple(keys))


def _parse_cell_key(text: str):
    q, r = text.split(",")
    return (int(q), int(r))


# ---------------- output layers ----------------
# Each layer is spelled from columns, in blocks of encoded lines, by a
# producer that Pipeline.outputs holds and that runs while its file is
# written. functools.partial binds its arguments at once: a closure over the
# stages' loop variables (role, scheme, metric) would see their last value.

# Bytes of the matrix one block of rows is spelled into. Spelling a block
# holds about twice that (the matrix, then the block's text), so it sets
# the write stage's share of a run's peak memory.
_LINE_BLOCK = 1 << 18


def _text_rows(texts) -> np.ndarray:
    """ASCII texts as the rows of a zero-padded ``uint8`` matrix."""
    rows = np.array([t.encode("ascii") for t in texts], dtype=bytes)
    return rows.view(np.uint8).reshape(len(rows), rows.itemsize)


_NULL = _text_rows(["null"])[0]
_BOOLEANS = _text_rows(["false", "true"])
# what opens a vertex of a component line: row 1 on an edge's first vertex
_VERTEX_HEADS = _text_rows(["[", '{"geometry":{"coordinates":[['])
_NESTING = {"Point": ("[", "]"), "LineString": ("[[", "]]"), "Polygon": ("[[[", "]]]")}  # around _vertex_parts


def _side_by_side(parts, n: int) -> bytearray:
    """``n`` rows of text as one zero-padded byte matrix: each part, a
    literal (``bytes``) or a ``uint8`` matrix of ``n`` rows, fills the next
    columns. The literals are laid out once, in a row repeated ``n`` times."""
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in parts]
    text = bytearray(b"".join(p if isinstance(p, bytes) else bytes(w) for p, w in zip(parts, widths))) * n
    block = np.frombuffer(text, dtype=np.uint8).reshape(n, sum(widths))
    at = 0
    for part, width in zip(parts, widths):
        if not isinstance(part, bytes):
            block[:, at : at + width] = part
        at += width
    return text


def _block_text(matrix: bytearray) -> bytearray:
    """The lines of a matrix whose rows each end in ``,\\n``: its non-zero
    bytes, without the last separator (``write_feature_lines`` puts one
    between two blocks)."""
    text = matrix.translate(None, b"\0")
    del text[-2:]
    return text


def _vertex_parts(xy: np.ndarray) -> list:
    """``_side_by_side`` parts of the vertices ``xy`` (n, k, 2): ``x,y`` at 6
    decimals each, joined by ``],[``, a geometry's text inside its brackets."""
    text = featureio.decimal_text(xy.ravel(), featureio.COORD_DECIMALS).reshape(*xy.shape, -1)
    parts = [text[:, 0, 0], b",", text[:, 0, 1]]
    for i in range(1, xy.shape[1]):
        parts += [b"],[", text[:, i, 0], b",", text[:, i, 1]]
    return parts


def _feature_lines(kind: str, n: int, spell):
    """``n`` features with ``kind`` geometries, in blocks of lines; ``spell(rows)``
    gives a block's vertex text parts and a ``uint8`` matrix of each
    property's value text. A block's matrix is about ``_LINE_BLOCK`` bytes
    at the width of the block before (512 bytes a line for the first)."""
    lo, step = 0, max(1, _LINE_BLOCK >> 9)
    while lo < n:
        hi = min(lo + step, n)
        text, size = _feature_block(kind, slice(lo, hi), spell)
        lo, step = hi, max(1, _LINE_BLOCK * (hi - lo) // size)
        yield text


def _feature_block(kind: str, rows: slice, spell) -> tuple:
    """The lines of features ``rows``, each ``featureio.encode`` of its
    feature byte for byte, and the bytes of the matrix they were spelled in."""
    vertices, properties = spell(rows)
    opening, closing = _NESTING[kind]
    parts = [f'{{"geometry":{{"coordinates":{opening}'.encode(), *vertices]
    head = f'{closing},"type":"{kind}"}},"properties":{{'
    for key in sorted(properties):  # encode's key order
        parts += [f"{head}{featureio.encode(key)}:".encode(), properties[key]]
        head = ","
    parts.append(b'},"type":"Feature"},\n')
    matrix = _side_by_side(parts, rows.stop - rows.start)
    del vertices, properties, parts  # the columns go before the matrix is read
    return _block_text(matrix), len(matrix)


def _undershoot_lines(g, undershoots):
    """One Point feature per undershoot, at its dangling node."""
    nodes = np.array([u.node_id for u in undershoots], dtype=np.int64)
    xy = g.nodes[nodes].reshape(-1, 1, 2)
    gaps = np.array([u.gap_distance for u in undershoots], dtype=float)
    edges = _text_rows([featureio.encode(u.nearest_edge_id) for u in undershoots])

    def spell(rows):
        gap, node = featureio.decimal_text(gaps[rows], featureio.METRIC_DECIMALS), featureio.integer_text(nodes[rows])
        return _vertex_parts(xy[rows]), {"gap_m": gap, "nearest_edge_id": edges[rows], "node_id": node}

    return _feature_lines("Point", len(undershoots), spell)


def _component_lines(g):
    """The component layer of a graph: one line per edge, ``featureio.encode``
    of its LineString feature (``line_feature`` in the tests' conftest.py:
    vertices rounded to 6 decimals, id, component and category), byte for
    byte. An edge has any number of vertices, so its matrix has a row per
    vertex, not per feature as in ``_feature_lines``: ``_vertex_parts`` of
    ``g.vertices``, with the feature's opening on an edge's first vertex
    and the rest on its last.
    """
    v, component = g.vertices, g.component.tolist()
    # about 200 bytes a vertex row: 28 of head, two coordinates of 24 and
    # the edge's closing text on its last vertex
    for e0, e1 in _blocks(v.last - v.first + 1, max(1, _LINE_BLOCK // 256)):
        yield _block_text(_component_matrix(g.edges[e0:e1], component[e0:e1], v, slice(e0, e1)))


def _component_matrix(edges, component, v, rows) -> bytearray:
    """The component lines of ``edges`` in components ``component``, the
    polylines ``rows`` of ``v``, as a zero-padded byte matrix with one row
    per vertex: an edge's first row opens its feature, its last row closes it."""
    first, last = v.first[rows], v.last[rows]
    lo, hi = int(first[0]), int(last[-1]) + 1
    vertices = _vertex_parts(np.stack([v.x[lo:hi], v.y[lo:hi]], 1)[:, None])
    opens = np.zeros(hi - lo, dtype=np.intp)
    opens[first - lo] = 1
    # the feature's keys after "geometry", in encode's order; each distinct
    # component id and category is encoded once
    values = {*component, *(e.infra_category for e in edges)}
    spelled = {value: featureio.encode(value) for value in values}
    tails = _text_rows(
        f']],"type":"LineString"}},"id":{i},"properties":{{"component_id":{spelled[c]},'
        f'"edge_id":{i},"infra_category":{spelled[e.infra_category]}}},"type":"Feature"}},\n'
        for e, c, i in zip(edges, component, map(featureio.encode, (e.id for e in edges)))
    )
    closes = np.zeros((hi - lo, tails.shape[1]), dtype=np.uint8)
    closes[:, :2] = np.frombuffer(b"],", dtype=np.uint8)
    closes[last - lo] = tails
    return _side_by_side((_VERTEX_HEADS[opens], *vertices, closes), hi - lo)


def _segment_lines(table):
    """One LineString feature per row of a ``MatchTable``; each edge id is
    encoded once, and each group of number columns spelled by one
    ``decimal_text`` or ``integer_text`` call a block."""
    segs, targets = table.segments, table.targets
    edge_ids = _text_rows([featureio.encode(i) for i in segs.edge_ids])
    matched_ids = _text_rows([featureio.encode(i) for i in targets.edge_ids] + ["null"])  # row -1: unmatched

    def spell(rows):
        j = table.target[rows]
        n, matched = len(j), j >= 0
        # not targets.edge[j]: j is -1 where unmatched, and there may be no targets
        target_edge, target_index = np.full(n, -1), np.zeros(n, dtype=np.int64)
        target_edge[matched], target_index[matched] = targets.edge[j[matched]], targets.index[j[matched]]
        metrics = np.stack([segs.length[rows], table.angle[rows], table.hausdorff[rows], table.midpoint_dist[rows]], 1)
        metrics = featureio.decimal_text(metrics.ravel(), featureio.METRIC_DECIMALS).reshape(n, 4, -1)
        index = featureio.integer_text(np.stack([segs.index[rows], target_index], 1).ravel()).reshape(n, 2, -1)
        for match_values in (metrics[:, 1:], index[:, 1:]):
            match_values[~matched] = 0
            match_values[~matched, :, : len(_NULL)] = _NULL
        return _vertex_parts(segs.ends[rows].reshape(n, 2, 2)), {
            "angle_deg": metrics[:, 1],
            "edge_id": edge_ids[segs.edge[rows]],
            "hausdorff_m": metrics[:, 2],
            "length_m": metrics[:, 0],
            "matched": _BOOLEANS[matched.view(np.uint8)],
            "matched_edge_id": matched_ids[target_edge],
            "matched_segment_index": index[:, 1],
            "midpoint_dist_m": metrics[:, 3],
            "segment_index": index[:, 0],
        }

    return _feature_lines("LineString", len(segs), spell)


def _cell_text(grid) -> tuple:
    """The text the grid and LISA layers share, spelled once per grid in
    ``grid.cell_ids`` order: each cell's row, its hexagon ring closed by its
    first vertex (``_vertex_parts``) and its ``cell_id``, ``q`` and ``r``."""
    n = len(grid.cell_ids)
    q, r = featureio.integer_text(np.ravel(grid.cell_ids)).reshape(n, 2, -1).transpose(1, 0, 2)
    rings = np.array([[(v.x, v.y) for v in grid.cells[cell].polygon] for cell in grid.cell_ids], dtype=float)

    def matrix(parts):
        return np.frombuffer(_side_by_side(parts, n), dtype=np.uint8).reshape(n, -1)

    rings = matrix(_vertex_parts(np.concatenate([rings, rings[:, :1]], axis=1)))
    ids = {"cell_id": matrix((b'"', q, b",", r, b'"')), "q": q, "r": r}
    return {cell: i for i, cell in enumerate(grid.cell_ids)}, rings, ids


def _lisa_lines(cell_text, lisa):
    """One Polygon feature per cell of a ``LisaResult``, in its order."""
    (row, rings, ids), cells = cell_text(), list(lisa.local_i)
    at = np.array([row[cell] for cell in cells], dtype=np.intp)
    local_i, pseudo_p = (np.array([d[cell] for cell in cells], dtype=float) for d in (lisa.local_i, lisa.pseudo_p))
    significant = np.array([lisa.significant[cell] for cell in cells], dtype=bool)
    kinds = {}  # each distinct quadrant -> its row in ``quadrants``, encoded once
    quadrant = np.array([kinds.setdefault(lisa.quadrant[cell], len(kinds)) for cell in cells], dtype=np.intp)
    quadrants = _text_rows(map(featureio.encode, kinds))

    def spell(rows):
        return [rings[at[rows]]], {
            "cell_id": ids["cell_id"][at[rows]],
            "local_i": featureio.decimal_text(local_i[rows], 12),
            "pseudo_p": featureio.decimal_text(pseudo_p[rows], 6),
            "quadrant": quadrants[quadrant[rows]],
            "significant": _BOOLEANS[significant[rows].view(np.uint8)],
        }

    return _feature_lines("Polygon", len(cells), spell)


def _grid_lines(cell_text, grid_fields):
    """One Polygon feature per grid cell, with each field of ``grid_fields`` (``null`` where it has no value)."""
    (row, rings, ids), names = cell_text(), sorted(grid_fields)
    raw = [[grid_fields[name].get(cell) for name in names] for cell in row]
    shape = (len(raw), len(names))
    missing = np.array([[value is None for value in values] for values in raw], dtype=bool).reshape(shape)
    values = np.array(raw, dtype=float).reshape(shape)  # None becomes NaN, spelled null where missing

    def spell(rows):
        text = featureio.decimal_text(values[rows].ravel(), featureio.METRIC_DECIMALS)
        text = text.reshape(rows.stop - rows.start, len(names), -1)
        text[missing[rows]] = 0
        text[missing[rows], : len(_NULL)] = _NULL
        properties = {key: column[rows] for key, column in ids.items()}
        return [rings[rows]], properties | dict(zip(names, text.transpose(1, 0, 2)))

    return _feature_lines("Polygon", len(raw), spell)


def _write_file(path, kind: str, payload) -> None:
    if kind == "lines":
        featureio.write_feature_lines(path, payload())
    elif kind == "csv":
        featureio.write_csv(path, *payload)
    elif kind == "json":
        featureio.write_json(path, payload)
    else:  # "text": a callable returning the file's text
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload())


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size so far, in MB (10**6 bytes).

    ``VmHWM`` is the peak of this program alone; ``ru_maxrss``, the
    fallback where there is no /proc, also keeps that of the process image
    an exec replaced, such as a launcher's fork.
    """
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return round(int(line.split()[1]) * 1024 / 1e6, 3)  # kB
    except OSError:
        pass
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
        # file name -> ("lines", encoded-line producer) or ("csv", (header, rows))
        self.outputs: dict[str, tuple] = {}
        self.cell_text = cache(lambda: _cell_text(self.grid()))  # spelled on first use
        # wall seconds of each stage's first computation, less those of the
        # stages it computed first; recorded in run_info.json
        self.stage_seconds: dict[str, float] = {}
        # seconds from netqa's first import to the start of the first stage; run_info.json
        self.import_seconds: float | None = None
        # per-direction matching work (role -> the fields of its MatchCounts); run_info.json
        self.match_counts: dict[str, dict] = {}
        # scheme -> [{"cells", "nnz"} of each weights build]; run_info.json
        self.weights_builds: dict[str, list[dict]] = {}
        # scheme -> [the metrics evaluated on each weights build]; run_info.json
        self.autocorr_groups: dict[str, list[list[str]]] = {}

    def _run(self, stage, fn):
        if stage not in self._cache:
            before = sum(self.stage_seconds.values())  # the stages run inside this one add to the sum
            start = time.perf_counter()
            if self.import_seconds is None:
                self.import_seconds = start - _import_start
                log.debug("import: %.3f s", self.import_seconds)
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
            from . import graph

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
            from . import graph

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
                total_m = _sum_in_order([c.length_m for c in comps])
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
                self.outputs[f"undershoots_{role}.geojson"] = ("lines", partial(_undershoot_lines, g, undershoots))
                self.outputs[f"components_{role}.geojson"] = ("lines", partial(_component_lines, g))
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
            from dataclasses import asdict

            from . import matching

            datasets = self.datasets()
            grid = self.grid()
            tables = matching.match_tables(datasets["candidate"], datasets["reference"], self.cfg.match_config)
            result = {}
            for role, table in zip(self.ROLES, tables):
                self.match_counts[role] = asdict(table.counts)
                log.debug(
                    "match %s: %d segments, %d pairs within max_dist, %d rejected by Hausdorff, "
                    "%d rejected by angle, %d accepted, %d matched",
                    role, *self.match_counts[role].values(),
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
            from . import tags

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
            from . import spatial

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
                    layer = partial(_lisa_lines, self.cell_text, lisa)
                    self.outputs[f"lisa_{label}_{metric}.geojson"] = ("lines", layer)
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
        for name in _STAGE_MODULES.get(stage, ()):
            # the import statement's route, which -X importtime reports
            __import__(f"{__package__}.{name}")
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
            files.append(("grid_metrics.geojson", "lines", partial(_grid_lines, self.cell_text, self.grid_fields)))
        files += [(name, *self.outputs[name]) for name in sorted(self.outputs)]
        files.append(("summary.json", "json", summary_json))
        files.append(("summary.txt", "text", partial(render_text_summary, summary_json)))

        out_dir.mkdir(parents=True, exist_ok=True)
        tmp_dir = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=out_dir.parent))
        written: list[str] = []
        file_seconds: dict[str, float] = {}
        file_bytes: dict[str, int] = {}
        try:
            start = time.perf_counter()
            for name, kind, payload in files:
                begin = time.perf_counter()
                try:
                    _write_file(tmp_dir / name, kind, payload)
                except Exception as exc:
                    raise PipelineError("write", f"{name}: {exc!r}") from exc
                file_seconds[name] = time.perf_counter() - begin
                file_bytes[name] = (tmp_dir / name).stat().st_size
                log.debug("write %s: %d bytes, %.3f s", name, file_bytes[name], file_seconds[name])
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
                "import_seconds": None if self.import_seconds is None else round(self.import_seconds, 6),
                "stage_seconds": {stage: round(sec, 6) for stage, sec in self.stage_seconds.items()},
                "write_seconds": {name: round(sec, 6) for name, sec in file_seconds.items()},
                "peak_rss_mb": peak_rss_mb,
            }
            if self.match_counts:
                run_info["matching"] = self.match_counts
            run_info["work"] = self._work(file_bytes)
            featureio.write_json(tmp_dir / "run_info.json", run_info)
            written.append("run_info.json")
            for name in written:
                os.replace(tmp_dir / name, out_dir / name)
        finally:
            shutil.rmtree(tmp_dir, ignore_errors=True)
        return written

    def _work(self, file_bytes: dict) -> dict:
        """Sizes of what the run computed: grid cells; per role, edges, clip
        index rows and, when matching ran, segments; when the autocorr
        stage ran, the cells and neighbour count (nnz) of each weights build
        and the metrics evaluated on its one set of permutation draws; and
        the bytes of each file written before run_info.json."""
        work = {"grid_cells": len(self.grid().cells), "file_bytes": file_bytes}
        for role, ds in self.datasets().items():
            work[role] = {"edges": len(ds.edges)}
            if ("clip", role) in self._cache:
                work[role]["clips"] = len(self._cache[("clip", role)].edge)
            if role in self.match_counts:
                work[role]["segments"] = self.match_counts[role]["segments"]
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
