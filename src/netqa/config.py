"""Run settings: the config file reader and the settings the stage modules read.

``RunConfig.from_file`` reads and checks a run's config file. Matching
thresholds, tag specs, weights scheme labels and the graph defaults live
here, not in ``matching``, ``tags``, ``spatial`` and ``graph``, so that
reading a configuration imports no stage module: ``netqa density`` and
``netqa validate`` load none of them. Those modules re-export the names
defined here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .completeness import LengthPolicy
from .errors import ConfigError, WeightsError
from .hexgrid import DEFAULT_CELL_AREA
from .ingest import DIRECTIONALITIES, MAPPING_MODELS

__all__ = [
    "RunConfig",
    "MatchConfig",
    "TagSpec",
    "DEFAULT_TAG_SPECS",
    "DEFAULT_SNAP_TOLERANCE",
    "DEFAULT_UNDERSHOOT_THRESHOLD",
    "scheme_label",
]

DEFAULT_SNAP_TOLERANCE = 0.001
DEFAULT_UNDERSHOOT_THRESHOLD = 3.0


class MatchConfig:
    """Matching thresholds, all configurable; defaults follow common
    segment-matching practice for road networks."""

    __slots__ = ("seg_len", "max_dist", "max_hausdorff", "max_angle")

    def __init__(self, seg_len=10.0, max_dist=15.0, max_hausdorff=17.0, max_angle=30.0):
        self.seg_len, self.max_dist, self.max_hausdorff, self.max_angle = seg_len, max_dist, max_hausdorff, max_angle
        for name in self.__slots__:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
        if self.max_hausdorff < self.max_dist:
            raise ConfigError("max_hausdorff must be >= max_dist")

    def __eq__(self, other):
        if type(other) is not MatchConfig:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self.__slots__))


# each MatchConfig field's key in the config's "match" object
_MATCH_KEYS = dict(zip(MatchConfig.__slots__, ("seg_len_m", "max_dist_m", "max_hausdorff_m", "max_angle_deg")))


class TagSpec:
    """A logical tag backed by one or more attribute keys; any one counts."""

    __slots__ = ("name", "keys")

    def __init__(self, name: str, keys: tuple[str, ...]):
        self.name, self.keys = name, keys
        if not self.keys:
            raise ValueError(f"tag spec {self.name!r} needs at least one key")


DEFAULT_TAG_SPECS = (
    TagSpec("surface", ("surface", "cycleway:surface")),
    TagSpec("lit", ("lit",)),
    TagSpec("width", ("width", "cycleway:width")),
    TagSpec("maxspeed", ("maxspeed",)),
)


def scheme_label(scheme: dict) -> str:
    """The name a weights scheme goes by in outputs: ``knn6``, ``band250``."""
    kind = scheme.get("scheme")
    if kind == "knn":
        return f"knn{scheme['k']}"
    if kind == "distance_band":
        return f"band{scheme['distance_m']:g}"
    raise WeightsError(f"unknown weights scheme {kind!r}")


class RunConfig:
    """The settings of one run: the attributes ``from_file`` sets, each
    read from its key in the config file or given its default there."""

    weights_schemes = ({"scheme": "knn", "k": 6},)  # the default

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
        self = cls()

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

        def optional_path(key):
            return base / _string(doc[key], key) if key in doc else None

        self.candidate_name, self.candidate_path = dataset("candidate")
        self.reference_name, self.reference_path = dataset("reference")
        if "seed" not in doc:
            raise ConfigError("config is missing required key 'seed' (reproducibility)")
        if not _is_int(doc["seed"]) or doc["seed"] < 0:
            raise ConfigError(f"config key 'seed' must be an integer >= 0, got {doc['seed']!r}")
        self.seed = doc["seed"]

        match_doc, default = _object(doc.get("match", {}), "match"), MatchConfig()
        self.match_config = MatchConfig(
            **{
                name: _number(match_doc.get(key, getattr(default, name)), f"match.{key}", *_POSITIVE)
                for name, key in _MATCH_KEYS.items()
            }
        )
        self.length_policy = _length_policy(doc["length_policy"]) if "length_policy" in doc else LengthPolicy.default()
        self.tag_specs = DEFAULT_TAG_SPECS
        if "tags" in doc:
            self.tag_specs = tuple(_tag_spec(entry, f"tags[{i}]") for i, entry in enumerate(_list(doc["tags"], "tags")))
            _no_repeats("tags", "a tag", [t.name for t in self.tag_specs])
        self.weights_schemes = tuple(_list(doc.get("weights", list(cls.weights_schemes)), "weights"))
        for i, scheme in enumerate(self.weights_schemes):
            _check_scheme(_object(scheme, f"weights[{i}]"))
        _no_repeats("weights", "a weights scheme", list(map(scheme_label, self.weights_schemes)))

        self.n_permutations = doc.get("n_permutations", 999)
        if not _is_int(self.n_permutations) or self.n_permutations < 1:
            raise ConfigError(f"config key 'n_permutations' must be an integer >= 1, got {self.n_permutations!r}")
        self.alpha = _number(doc.get("alpha", 0.05), "alpha", "a number in (0, 1)", lambda v: 0.0 < v < 1.0)
        self.tags_use_raw_length = doc.get("tags_use_raw_length", False)
        if not isinstance(self.tags_use_raw_length, bool):
            raise ConfigError(
                f"config key 'tags_use_raw_length' must be true or false, got {self.tags_use_raw_length!r}"
            )

        grid_doc = _object(doc.get("grid", {}), "grid")
        output_dir = base / _string(doc.get("output_dir", "netqa-out"), "output_dir")
        self.output_dir = Path(out_override) if out_override else output_dir
        self.study_area_path = base / _string(need("study_area"), "study_area")
        self.rules_path = base / _string(need("rules"), "rules")
        self.polygons_path, self.population_path = optional_path("polygons"), optional_path("population")
        self.cell_area_m2 = _number(grid_doc.get("cell_area_m2", DEFAULT_CELL_AREA), "grid.cell_area_m2", *_POSITIVE)
        self.snap_tolerance_m = _number(
            doc.get("snap_tolerance_m", DEFAULT_SNAP_TOLERANCE), "snap_tolerance_m", *_NONNEGATIVE
        )
        self.undershoot_threshold_m = _number(
            doc.get("undershoot_threshold_m", DEFAULT_UNDERSHOOT_THRESHOLD), "undershoot_threshold_m", *_POSITIVE
        )
        return self

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
            "match": {key: getattr(self.match_config, name) for name, key in _MATCH_KEYS.items()},
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


def _no_repeats(key: str, what: str, names: list) -> None:
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(f"config key {key!r} names {what} more than once: {', '.join(repeated)}")


def _length_policy(doc) -> LengthPolicy:
    """Factors keyed ``"mapping_model,directionality"``, each a finite number >= 1."""
    factors = {}
    for key, factor in _object(doc, "length_policy").items():
        parts = tuple(p.strip() for p in key.split(","))
        if len(parts) != 2 or parts[0] not in MAPPING_MODELS or parts[1] not in DIRECTIONALITIES:
            raise ConfigError(
                f"config key 'length_policy' has key {key!r}, not 'mapping_model,directionality' "
                f"with a mapping model of {', '.join(MAPPING_MODELS)} and a directionality of "
                f"{', '.join(DIRECTIONALITIES)}"
            )
        factors[parts] = _number(factor, f"length_policy.{key}", *_AT_LEAST_ONE)
    return LengthPolicy(factors=factors)


def _check_scheme(scheme: dict) -> None:
    kind = scheme.get("scheme")
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


def _tag_spec(entry, key: str) -> TagSpec:
    """A tag entry: a nonempty string ``name`` and a nonempty list of nonempty string ``keys``."""
    entry = _object(entry, key)
    name, keys = entry.get("name"), entry.get("keys")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"config key '{key}.name' must be a nonempty string, got {name!r}")
    if not isinstance(keys, list) or not keys or not all(isinstance(k, str) and k for k in keys):
        raise ConfigError(f"config key '{key}.keys' must be a nonempty list of nonempty strings, got {keys!r}")
    return TagSpec(name=name, keys=tuple(keys))
