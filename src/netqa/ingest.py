"""Input parsing and rule-driven extraction of dedicated infrastructure.

Feature collections arrive as GeoJSON-style documents whose coordinates
must already be projected meters; anything that looks like lon/lat degrees
is rejected outright. Classification is a small declarative rule engine:
an ordered list of predicates over the attribute map, first match wins,
non-matching features are dropped.
"""

from __future__ import annotations

import gc
import json
import logging
import math
from collections import Counter
from contextlib import suppress
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import CrsError, ParseError, UnsupportedGeometryError
from .geometry import GeometryError, Point2D, Polyline, VertexArrays, _ranges, polyline_columns, vertex_arrays
from .polygons import PolygonArea

log = logging.getLogger(__name__)

__all__ = [
    "Features",
    "ClassificationRule",
    "NetworkEdge",
    "Dataset",
    "parse_dataset",
    "classify",
    "load_rules",
    "load_study_area",
    "load_polygon_layer",
    "load_population_csv",
]

INFRA_CATEGORIES = ("protected", "unprotected")
MAPPING_MODELS = ("centerline", "separate_geometry")
DIRECTIONALITIES = ("oneway", "bidirectional")


class Features:
    """A line file's parts as columns, in file order: part i has id
    ``ids[i]``, attribute map ``attributes[i]`` (one map shared by the parts
    of a feature) and ``count[i]`` vertices, stored end to end in
    (``x``, ``y``)."""

    __slots__ = ("ids", "attributes", "x", "y", "count")

    def __init__(self, ids: list, attributes: list, x: np.ndarray, y: np.ndarray, count: np.ndarray):
        self.ids, self.attributes, self.x, self.y, self.count = ids, attributes, x, y, count


class ClassificationRule:
    """One ordered rule: a predicate tree plus a full outcome.

    Predicate nodes are plain dicts:
      {"key": K, "equals": V}   attribute K equals V
      {"key": K, "in": [...]}   attribute K is one of the listed values
      {"key": K, "present": true}   attribute K has a nonempty value
      {"all": [...]} / {"any": [...]} / {"not": {...}}   combinators

    Values compare as text: ``str`` of each ``equals`` or ``in`` value,
    spelled once, when the rule is built.
    """

    __slots__ = ("predicate", "infra_category", "mapping_model", "directionality", "_test")

    def __init__(self, predicate: dict, infra_category: str, mapping_model: str, directionality: str):
        self.predicate, self.infra_category = predicate, infra_category
        self.mapping_model, self.directionality = mapping_model, directionality
        if self.infra_category not in INFRA_CATEGORIES:
            raise ValueError(f"unknown infra_category {self.infra_category!r}")
        if self.mapping_model not in MAPPING_MODELS:
            raise ValueError(f"unknown mapping_model {self.mapping_model!r}")
        if self.directionality not in DIRECTIONALITIES:
            raise ValueError(f"unknown directionality {self.directionality!r}")
        self._test = _compile_predicate(self.predicate)

    def matches(self, attributes: dict) -> bool:
        return self._test(attributes)


def _compile_predicate(node):
    """A checked predicate node as a function of an attribute map."""
    if not isinstance(node, dict):
        raise ValueError(f"predicate node must be a mapping, got {type(node).__name__}")
    if "all" in node or "any" in node:
        key = "all" if "all" in node else "any"
        children = node[key]
        if not isinstance(children, list) or not children:
            raise ValueError(f"'{key}' needs a nonempty list of predicates")
        tests = [_compile_predicate(child) for child in children]
        combine = all if key == "all" else any
        return lambda attributes: combine(test(attributes) for test in tests)
    if "not" in node:
        test = _compile_predicate(node["not"])
        return lambda attributes: not test(attributes)
    if "key" not in node:
        raise ValueError(f"unrecognized predicate node: {node!r}")
    key = node["key"]
    if not isinstance(key, str):
        raise ValueError("predicate 'key' must be a string")
    if "equals" in node:
        value = str(node["equals"])
        return lambda attributes: attributes.get(key) == value
    if "in" in node:
        values = tuple(map(str, node["in"]))
        return lambda attributes: attributes.get(key) in values
    if "present" in node:
        return lambda attributes: attributes.get(key) not in (None, "")
    raise ValueError(f"predicate on key {key!r} needs equals/in/present")


class NetworkEdge:
    """A classified infrastructure edge; its topology lives in ``graph.Graph``.

    ``geometry`` is given as a Polyline, or as (vertex arrays, row) for an
    edge that is a row of its dataset's vertex arrays, as ``classify`` makes
    them; such an edge builds its Polyline from the row on each read.
    """

    __slots__ = ("id", "_geometry", "infra_category", "mapping_model", "directionality", "attributes")

    def __init__(
        self,
        id: str,
        geometry: Polyline | tuple[VertexArrays, int],
        infra_category: str,
        mapping_model: str,
        directionality: str,
        attributes: dict | None = None,
    ):
        self.id, self._geometry = id, geometry
        self.infra_category, self.mapping_model, self.directionality = infra_category, mapping_model, directionality
        self.attributes = {} if attributes is None else attributes

    @property
    def geometry(self) -> Polyline:
        if type(self._geometry) is tuple:
            vertices, row = self._geometry
            return vertices.polyline(row)
        return self._geometry


class Dataset:
    """Named network edges, with their geometries as vertex arrays: given
    (as ``classify`` gives them) or built from the edges' Polylines."""

    __slots__ = ("name", "edges", "vertices")

    def __init__(self, name: str, edges: list | None = None, vertices: VertexArrays | None = None):
        self.name = name
        self.edges = [] if edges is None else edges
        self.vertices = vertex_arrays(*polyline_columns(e.geometry for e in self.edges)) if vertices is None else vertices


def _load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    paused = gc.isenabled()
    gc.disable()  # a parsed document holds no reference cycles, so collecting while parsing finds none
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.msg, line=exc.lineno, column=exc.colno) from exc
    finally:
        if paused:
            gc.enable()


def _read_positions(path, parts, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, count) of the parts' (lines' or rings') positions, end to end.

    A part is an array of positions, and a position an array of two or more
    JSON numbers (not booleans or strings) whose first two, x and y, are
    finite. The first part or position that is not raises a ParseError
    naming the part's label.
    """
    if set(map(type, parts)) <= {list}:
        positions = list(chain.from_iterable(parts))
        if set(map(type, positions)) <= {list} and min(map(len, positions), default=2) >= 2:
            xs, ys = list(map(itemgetter(0), positions)), list(map(itemgetter(1), positions))
            if set(map(type, xs)) | set(map(type, ys)) <= {int, float}:
                with suppress(OverflowError):  # an int beyond the float range, reported below
                    x, y = np.array(xs, dtype=float), np.array(ys, dtype=float)
                    if np.isfinite(x).all() and np.isfinite(y).all():
                        return x, y, np.fromiter(map(len, parts), dtype=np.intp, count=len(parts))
    for part, label in zip(parts, labels):
        if type(part) is not list:
            message = f"coordinates must be an array of positions, not {json.dumps(part)[:40]}"
            raise ParseError(path, f"feature {label}: {message}")
        for k, pos in enumerate(part):
            if type(pos) is not list or len(pos) < 2 or not {type(pos[0]), type(pos[1])} <= {int, float}:
                message = f"position {k} must be an array of two or more numbers, not {json.dumps(pos)[:40]}"
                raise ParseError(path, f"feature {label}: {message}")
            try:
                px, py = float(pos[0]), float(pos[1])
            except OverflowError:
                px = py = math.inf
            if not (math.isfinite(px) and math.isfinite(py)):
                raise ParseError(path, f"feature {label}: non-finite coordinate ({px}, {py})")
    raise AssertionError("positions judged malformed, but none is")


def parse_dataset(path) -> Features:
    """Read a line feature collection into columns.

    MultiLineStrings split into one part per line with ``#<n>`` suffixed
    ids. Consecutive duplicate vertices are dropped, and so are parts left
    with fewer than two vertices, with a logged count. Malformed or
    non-finite positions, non-line geometries, duplicate ids (a part id
    counts, so ``x#0`` may not also be a feature's own id) and degree-like
    coordinates are hard errors, in that order.
    """
    doc = _load_json(path)
    if doc.get("type") != "FeatureCollection" or "features" not in doc:
        raise ParseError(path, "expected a FeatureCollection with a 'features' list")

    parts: list = []
    part_ids: list[str] = []
    part_attributes: list[dict] = []
    bad_type_ids: list[str] = []
    for i, feat in enumerate(doc["features"]):
        props = feat.get("properties") or {}
        fid = feat.get("id")
        if fid is None:  # absent or JSON null
            fid = props.get("id")
        source_id = f"feature-{i}" if fid is None else str(fid)
        attributes = {str(k): str(v) for k, v in props.items() if v is not None}
        if attributes == props:  # all text already: keep the parsed map, not a copy
            attributes = props
        geom = feat.get("geometry") or {}
        gtype = geom.get("type")
        if gtype == "LineString":
            lines, ids = [geom.get("coordinates", [])], [source_id]
        elif gtype == "MultiLineString":
            lines = geom.get("coordinates", [])
            if type(lines) is not list:
                message = f"coordinates must be an array of lines, not {json.dumps(lines)[:40]}"
                raise ParseError(path, f"feature {source_id}: {message}")
            ids = [f"{source_id}#{k}" for k in range(len(lines))]
        else:
            bad_type_ids.append(source_id)
            continue
        parts += lines
        part_ids += ids
        part_attributes += [attributes] * len(ids)

    x, y, count = _read_positions(path, parts, part_ids)
    part = np.repeat(np.arange(len(count)), count)
    kept = np.ones(len(x), dtype=bool)  # drops each vertex equal to the one before it in its part
    kept[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1]) | (part[1:] != part[:-1])
    count = np.bincount(part[kept], minlength=len(count))
    long = count >= 2
    kept &= long[part]
    x, y = x[kept], y[kept]

    if bad_type_ids:
        raise UnsupportedGeometryError(path, bad_type_ids)
    duplicate_ids = [fid for fid, n in Counter(part_ids).items() if n > 1]
    if duplicate_ids:
        shown = ", ".join(duplicate_ids[:10]) + (", ..." if len(duplicate_ids) > 10 else "")
        raise ParseError(path, f"duplicate feature id(s): {shown}")
    dropped = len(count) - int(np.count_nonzero(long))
    if dropped:
        log.warning("%s: dropped %d degenerate (zero-length) feature(s)", path, dropped)
    if len(x) and (np.abs(x) <= 180.0).all() and (np.abs(y) <= 90.0).all():
        raise CrsError(
            f"{path}: every coordinate falls within |x|<=180, |y|<=90, which looks like "
            "lon/lat degrees. Reproject the data to a planar CRS in meters first."
        )
    rows = np.flatnonzero(long).tolist()
    return Features([part_ids[i] for i in rows], [part_attributes[i] for i in rows], x, y, count[long])


def classify(features: Features, rules, name: str) -> Dataset:
    """Apply ordered classification rules; first match wins.

    Matching parts become network edges carrying the rule outcome and
    their feature's attribute map, each edge a row of the dataset's vertex
    arrays; the rest are dropped. An empty result is a warning, not an
    error.
    """
    if not rules:
        raise ValueError("classification needs at least one rule")
    rows, outcomes = [], []
    last = rule = None
    for row, attributes in enumerate(features.attributes):
        if attributes is not last:  # the parts of a feature share its map, one after another
            last, rule = attributes, next((r for r in rules if r.matches(attributes)), None)
        if rule is not None:
            rows.append(row)
            outcomes.append(rule)
    rows = np.array(rows, dtype=np.intp)
    count = features.count[rows]
    _, vertex = _ranges((np.cumsum(features.count) - features.count)[rows], count)
    vertices = vertex_arrays(features.x[vertex], features.y[vertex], count)
    edges = [
        NetworkEdge(
            features.ids[row], (vertices, e), rule.infra_category, rule.mapping_model, rule.directionality,
            features.attributes[row],
        )
        for e, (row, rule) in enumerate(zip(rows.tolist(), outcomes))
    ]
    if not edges:
        log.warning("dataset %r: no features matched any classification rule", name)
    return Dataset(name=name, edges=edges, vertices=vertices)


def load_rules(path) -> dict[str, list[ClassificationRule]]:
    """Load per-dataset rule lists from a JSON rules file.

    Layout: ``{"<dataset role>": [{"match": <predicate>, "assign":
    {"infra_category": ..., "mapping_model": ..., "directionality": ...}},
    ...], ...}``.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or not doc:
        raise ParseError(path, "rules file must map dataset roles to rule lists")
    out: dict[str, list[ClassificationRule]] = {}
    for role, entries in doc.items():
        if not isinstance(entries, list) or not entries:
            raise ParseError(path, f"role {role!r}: expected a nonempty rule list")
        rules = []
        for i, entry in enumerate(entries):
            try:
                assign = entry["assign"]
                rules.append(
                    ClassificationRule(
                        predicate=entry["match"],
                        infra_category=assign["infra_category"],
                        mapping_model=assign["mapping_model"],
                        directionality=assign["directionality"],
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(path, f"role {role!r}, rule {i}: {exc}") from exc
        out[role] = rules
    return out


def _rings_from_polygon_coords(path, coords, name):
    x, y, count = _read_positions(path, coords, [name] * len(coords))
    rings = []
    ends = np.cumsum(count).tolist()
    for lo, hi in zip([0, *ends], ends):
        pts = tuple(map(Point2D, x[lo:hi].tolist(), y[lo:hi].tolist()))
        if len(pts) > 1 and pts[0] == pts[-1]:
            pts = pts[:-1]  # drop GeoJSON closing vertex
        rings.append(pts)
    return tuple(rings)


def _polygon_parts(path, feat, fallback_name):
    props = feat.get("properties") or {}
    name = str(props.get("name", feat.get("id", fallback_name)))
    geom = feat.get("geometry") or {}
    gtype = geom.get("type")
    if gtype not in ("Polygon", "MultiPolygon"):
        return name, None
    if "coordinates" not in geom:
        raise ParseError(path, f"feature {name}: {gtype} has no coordinates")
    all_coords = [geom["coordinates"]] if gtype == "Polygon" else geom["coordinates"]
    try:
        return name, [PolygonArea(rings=_rings_from_polygon_coords(path, c, name), name=name) for c in all_coords]
    except (GeometryError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(path, f"feature {name}: {exc}") from exc


def _load_polygons(path, fallback_prefix, empty_message) -> list[PolygonArea]:
    doc = _load_json(path)
    if doc.get("type") != "FeatureCollection" or not doc.get("features"):
        raise ParseError(path, empty_message)
    parts: list[PolygonArea] = []
    bad = []
    for i, feat in enumerate(doc["features"]):
        name, feat_parts = _polygon_parts(path, feat, f"{fallback_prefix}-{i}")
        if feat_parts is None:
            bad.append(name)
        else:
            parts.extend(feat_parts)
    if bad:
        raise UnsupportedGeometryError(path, bad)
    return parts


def load_study_area(path) -> list[PolygonArea]:
    """Polygon part(s) delimiting the study area."""
    return _load_polygons(path, "study", "expected a FeatureCollection with at least one polygon feature")


def load_polygon_layer(path) -> list[PolygonArea]:
    """Named administrative polygons; MultiPolygons split into same-named parts."""
    return _load_polygons(path, "polygon", "expected a FeatureCollection with polygon features")


def load_population_csv(path) -> dict[str, float]:
    """Per-cell population from a two-column header CSV: cell_id, population.

    A ``cell_id`` that appears on more than one row is an error.
    """
    import csv

    out: dict[str, float] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "cell_id" not in reader.fieldnames or "population" not in reader.fieldnames:
                raise ParseError(path, "expected header columns: cell_id, population")
            for i, row in enumerate(reader, start=2):
                if row["cell_id"] in out:
                    raise ParseError(path, f"duplicate cell_id {row['cell_id']!r}", line=i)
                try:
                    out[row["cell_id"]] = float(row["population"])
                except (TypeError, ValueError) as exc:
                    raise ParseError(path, f"bad population value: {row['population']!r}", line=i) from exc
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    return out
