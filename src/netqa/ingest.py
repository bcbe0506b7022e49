"""Input parsing and rule-driven extraction of dedicated infrastructure.

Feature collections arrive as GeoJSON-style documents whose coordinates
must already be projected meters; anything that looks like lon/lat degrees
is rejected outright. Classification is a small declarative rule engine:
an ordered list of predicates over the attribute map, first match wins,
non-matching features are dropped.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from pathlib import Path

from .errors import CrsError, ParseError, UnsupportedGeometryError
from .geometry import GeometryError, Point2D, Polyline, VertexArrays, vertex_arrays
from .polygons import PolygonArea

log = logging.getLogger(__name__)

__all__ = [
    "RawFeature",
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


class RawFeature:
    __slots__ = ("geometry", "attributes", "source_id")

    def __init__(self, geometry: Polyline, attributes: dict, source_id: str):
        self.geometry, self.attributes, self.source_id = geometry, attributes, source_id


class ClassificationRule:
    """One ordered rule: a predicate tree plus a full outcome.

    Predicate nodes are plain dicts:
      {"key": K, "equals": V}   attribute K equals V
      {"key": K, "in": [...]}   attribute K is one of the listed values
      {"key": K, "present": true}   attribute K has a nonempty value
      {"all": [...]} / {"any": [...]} / {"not": {...}}   combinators
    """

    __slots__ = ("predicate", "infra_category", "mapping_model", "directionality")

    def __init__(self, predicate: dict, infra_category: str, mapping_model: str, directionality: str):
        self.predicate, self.infra_category = predicate, infra_category
        self.mapping_model, self.directionality = mapping_model, directionality
        if self.infra_category not in INFRA_CATEGORIES:
            raise ValueError(f"unknown infra_category {self.infra_category!r}")
        if self.mapping_model not in MAPPING_MODELS:
            raise ValueError(f"unknown mapping_model {self.mapping_model!r}")
        if self.directionality not in DIRECTIONALITIES:
            raise ValueError(f"unknown directionality {self.directionality!r}")
        _validate_predicate(self.predicate)

    def matches(self, attributes: dict) -> bool:
        return _eval_predicate(self.predicate, attributes)


def _validate_predicate(node) -> None:
    if not isinstance(node, dict):
        raise ValueError(f"predicate node must be a mapping, got {type(node).__name__}")
    if "all" in node or "any" in node:
        key = "all" if "all" in node else "any"
        children = node[key]
        if not isinstance(children, list) or not children:
            raise ValueError(f"'{key}' needs a nonempty list of predicates")
        for child in children:
            _validate_predicate(child)
    elif "not" in node:
        _validate_predicate(node["not"])
    elif "key" in node:
        if not isinstance(node["key"], str):
            raise ValueError("predicate 'key' must be a string")
        if not any(op in node for op in ("equals", "in", "present")):
            raise ValueError(f"predicate on key {node['key']!r} needs equals/in/present")
    else:
        raise ValueError(f"unrecognized predicate node: {node!r}")


def _eval_predicate(node, attributes) -> bool:
    if "all" in node:
        return all(_eval_predicate(c, attributes) for c in node["all"])
    if "any" in node:
        return any(_eval_predicate(c, attributes) for c in node["any"])
    if "not" in node:
        return not _eval_predicate(node["not"], attributes)
    value = attributes.get(node["key"])
    if "equals" in node:
        return value == str(node["equals"])
    if "in" in node:
        return value is not None and value in [str(v) for v in node["in"]]
    return value is not None and value != ""


class NetworkEdge:
    """A classified infrastructure edge; its topology lives in ``graph.Graph``."""

    __slots__ = ("id", "geometry", "infra_category", "mapping_model", "directionality", "attributes")

    def __init__(
        self,
        id: str,
        geometry: Polyline,
        infra_category: str,
        mapping_model: str,
        directionality: str,
        attributes: dict | None = None,
    ):
        self.id, self.geometry = id, geometry
        self.infra_category, self.mapping_model, self.directionality = infra_category, mapping_model, directionality
        self.attributes = {} if attributes is None else attributes


class Dataset:
    __slots__ = ("name", "edges", "_vertices")

    def __init__(self, name: str, edges: list | None = None):
        self.name = name
        self.edges = [] if edges is None else edges
        self._vertices = None

    @property
    def vertices(self) -> VertexArrays:
        """The edges' geometries as vertex arrays, built on first use."""
        if self._vertices is None:
            self._vertices = vertex_arrays(e.geometry for e in self.edges)
        return self._vertices


def _load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.msg, line=exc.lineno, column=exc.colno) from exc


def _clean_coords(coords):
    points = []
    for xy in coords:
        pt = Point2D(float(xy[0]), float(xy[1]))
        if points and pt.x == points[-1].x and pt.y == points[-1].y:
            continue
        points.append(pt)
    if len(points) < 2:
        return None
    return Polyline(tuple(points))


def _looks_geographic(features) -> bool:
    saw_any = False
    for feat in features:
        for v in feat.geometry.vertices:
            saw_any = True
            if abs(v.x) > 180.0 or abs(v.y) > 90.0:
                return False
    return saw_any


def parse_dataset(path) -> list[RawFeature]:
    """Read a line feature collection into RawFeatures.

    MultiLineStrings split into one feature per part with ``#<n>``
    suffixed ids. Degenerate geometries (under two distinct vertices) are
    dropped with a logged count; non-line geometries, duplicate ids (a
    part id counts, so ``x#0`` may not also be a feature's own id) and
    degree-like coordinates are hard errors.
    """
    doc = _load_json(path)
    if doc.get("type") != "FeatureCollection" or "features" not in doc:
        raise ParseError(path, "expected a FeatureCollection with a 'features' list")

    features: list[RawFeature] = []
    bad_type_ids: list[str] = []
    part_ids: list[str] = []
    dropped = 0
    for i, feat in enumerate(doc["features"]):
        props = feat.get("properties") or {}
        fid = feat.get("id")
        if fid is None:  # absent or JSON null
            fid = props.get("id")
        source_id = f"feature-{i}" if fid is None else str(fid)
        attributes = {str(k): str(v) for k, v in props.items() if v is not None}
        geom = feat.get("geometry") or {}
        gtype = geom.get("type")
        if gtype == "LineString":
            parts = [geom.get("coordinates", [])]
            ids = [source_id]
        elif gtype == "MultiLineString":
            parts = geom.get("coordinates", [])
            ids = [f"{source_id}#{k}" for k in range(len(parts))]
        else:
            bad_type_ids.append(source_id)
            continue
        part_ids.extend(ids)
        for part_id, coords in zip(ids, parts):
            try:
                line = _clean_coords(coords)
            except (GeometryError, TypeError, IndexError, ValueError) as exc:
                raise ParseError(path, f"feature {part_id}: {exc}") from exc
            if line is None:
                dropped += 1
                continue
            features.append(RawFeature(geometry=line, attributes=attributes, source_id=part_id))

    if bad_type_ids:
        raise UnsupportedGeometryError(path, bad_type_ids)
    duplicate_ids = [fid for fid, count in Counter(part_ids).items() if count > 1]
    if duplicate_ids:
        shown = ", ".join(duplicate_ids[:10]) + (", ..." if len(duplicate_ids) > 10 else "")
        raise ParseError(path, f"duplicate feature id(s): {shown}")
    if dropped:
        log.warning("%s: dropped %d degenerate (zero-length) feature(s)", path, dropped)
    if _looks_geographic(features):
        raise CrsError(
            f"{path}: every coordinate falls within |x|<=180, |y|<=90, which looks like "
            "lon/lat degrees. Reproject the data to a planar CRS in meters first."
        )
    return features


def classify(features, rules, name: str) -> Dataset:
    """Apply ordered classification rules; first match wins.

    Matching features become network edges carrying the rule outcome and
    the full attribute map; the rest are dropped. An empty result is a
    warning, not an error.
    """
    if not rules:
        raise ValueError("classification needs at least one rule")
    edges = []
    for feat in features:
        for rule in rules:
            if rule.matches(feat.attributes):
                edges.append(
                    NetworkEdge(
                        id=feat.source_id,
                        geometry=feat.geometry,
                        infra_category=rule.infra_category,
                        mapping_model=rule.mapping_model,
                        directionality=rule.directionality,
                        attributes=dict(feat.attributes),
                    )
                )
                break
    if not edges:
        log.warning("dataset %r: no features matched any classification rule", name)
    return Dataset(name=name, edges=edges)


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


def _rings_from_polygon_coords(coords):
    rings = []
    for ring_coords in coords:
        pts = [Point2D(float(xy[0]), float(xy[1])) for xy in ring_coords]
        if len(pts) > 1 and pts[0].x == pts[-1].x and pts[0].y == pts[-1].y:
            pts = pts[:-1]  # drop GeoJSON closing vertex
        rings.append(tuple(pts))
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
        return name, [PolygonArea(rings=_rings_from_polygon_coords(c), name=name) for c in all_coords]
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
