"""Deterministic writers for the output layers and tables.

Every writer produces byte-identical files for identical inputs: keys are
sorted, floats rounded at fixed precision, newlines fixed to \\n. Nothing
time-dependent belongs in these files; run metadata with timestamps goes
in its own file excluded from golden comparisons.

JSON is written compact (no indentation, ``,`` and ``:`` separators), so
the C encoder of the standard library does the work. A feature collection
is streamed from any iterable of features: the ``{"features":[`` header
line, one feature per line (the line layout of RFC 8142 GeoJSON text
sequences, inside one RFC 7946 ``FeatureCollection``), then the footer
line, so a layer is never held in memory whole. ``write_feature_lines`` is
that one framing loop; it takes features already encoded, one line each,
so a producer that formats its lines itself (the segment layer, from
columns) writes the same bytes as ``encode`` of its features would.

CSV tables go through the ``csv`` module with ``\\n`` line ends and minimal
quoting (RFC 4180): a field holding a comma, a quote or a line break is
quoted, ``None`` is an empty field, and every other field is written as
``str`` of its value.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

__all__ = [
    "round_metric",
    "polyline_coords",
    "line_feature",
    "point_feature",
    "polygon_feature",
    "encode",
    "write_feature_lines",
    "write_feature_collection",
    "write_json",
    "write_csv",
]

COORD_DECIMALS = 6
METRIC_DECIMALS = 9


def round_metric(x, decimals: int = METRIC_DECIMALS):
    if x is None:
        return None
    return round(float(x), decimals)


def polyline_coords(polyline) -> list:
    return [[round(v.x, COORD_DECIMALS), round(v.y, COORD_DECIMALS)] for v in polyline.vertices]


def line_feature(coords, properties, feature_id=None) -> dict:
    feat = {"type": "Feature", "geometry": {"type": "LineString", "coordinates": coords}, "properties": properties}
    if feature_id is not None:
        feat["id"] = feature_id
    return feat


def point_feature(x, y, properties) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [round(x, COORD_DECIMALS), round(y, COORD_DECIMALS)]},
        "properties": properties,
    }


def polygon_feature(rings, properties) -> dict:
    coords = []
    for ring in rings:
        closed = [[round(v.x, COORD_DECIMALS), round(v.y, COORD_DECIMALS)] for v in ring]
        closed.append(closed[0])
        coords.append(closed)
    return {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": coords}, "properties": properties}


# compact separators and no indent: ``encode`` runs the C encoder
encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _open(path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_feature_lines(path, lines) -> None:
    """Stream ``lines`` (encoded features, any iterable, consumed once) as a FeatureCollection."""
    with _open(path) as fh:
        fh.write('{"features":[')
        sep = "\n"
        for line in lines:
            fh.write(sep + line)
            sep = ",\n"
        fh.write('\n],"type":"FeatureCollection"}\n')


def write_feature_collection(path, features) -> None:
    """Stream ``features`` (any iterable, consumed once) as a FeatureCollection."""
    write_feature_lines(path, map(encode, features))


def write_json(path, obj) -> None:
    with _open(path) as fh:
        fh.write(encode(obj) + "\n")


def write_csv(path, header, rows) -> None:
    with _open(path) as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
