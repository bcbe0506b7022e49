"""Run settings that the config reader builds and the stage modules read.

Matching thresholds, tag specs and the graph defaults live here, not in
``matching``, ``tags`` and ``graph``, so that reading a configuration
imports no stage module: ``netqa density`` and ``netqa validate`` load none
of them. Those modules re-export the names defined here.
"""

from __future__ import annotations

import math

from .errors import ConfigError

__all__ = ["MatchConfig", "TagSpec", "DEFAULT_TAG_SPECS", "DEFAULT_SNAP_TOLERANCE", "DEFAULT_UNDERSHOOT_THRESHOLD"]

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
