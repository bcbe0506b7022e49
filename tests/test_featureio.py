import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from netqa import featureio

HEADER = '{"features":['
FOOTER = '],"type":"FeatureCollection"}'


def sample_features():
    # a point, a line with an id and a polygon, its ring closed by its first vertex
    return [
        {
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [1.234568, -2.0]},
            "properties": {"node_id": 3, "gap_m": 0.5, "note": None},
        },
        {
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": [[0.0, 0.0], [10.0, 0.0]]},
            "properties": {"name": "Straße\n2", "matched": True},
            "id": "e1",
        },
        {
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]]},
            "properties": {"cell_id": "0,-1", "values": [1, 2.5, None]},
        },
    ]


def lines_of(path):
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    return text[:-1].split("\n")


def test_generator_input_writes_every_feature(tmp_path):
    features = sample_features()
    path = tmp_path / "layer.geojson"
    featureio.write_feature_collection(path, (f for f in features))
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc == {"type": "FeatureCollection", "features": features}


def test_empty_collection(tmp_path):
    path = tmp_path / "sub" / "empty.geojson"
    featureio.write_feature_collection(path, iter(()))
    assert json.loads(path.read_text(encoding="utf-8")) == {"type": "FeatureCollection", "features": []}
    assert lines_of(path) == [HEADER, FOOTER]


def test_one_compact_sorted_feature_per_line(tmp_path):
    features = sample_features()
    path = tmp_path / "layer.geojson"
    featureio.write_feature_collection(path, features)
    lines = lines_of(path)
    assert lines[0] == HEADER and lines[-1] == FOOTER
    assert len(lines) == len(features) + 2
    for i, (line, feature) in enumerate(zip(lines[1:-1], features)):
        body = line[:-1] if i < len(features) - 1 else line
        parsed = json.loads(body)
        assert parsed["type"] == "Feature"
        assert parsed == feature
        assert body == json.dumps(feature, sort_keys=True, separators=(",", ":"))


def test_parsed_content_equals_the_indented_encoding(tmp_path):
    features = sample_features()
    obj = {"type": "FeatureCollection", "features": features}
    indented = json.loads(json.dumps(obj, sort_keys=True, indent=1))
    featureio.write_feature_collection(tmp_path / "layer.geojson", iter(features))
    featureio.write_json(tmp_path / "doc.json", obj)
    with open(tmp_path / "layer.geojson", encoding="utf-8") as fh:
        assert json.load(fh) == indented
    with open(tmp_path / "doc.json", encoding="utf-8") as fh:
        assert json.load(fh) == indented
    assert lines_of(tmp_path / "doc.json") == [json.dumps(obj, sort_keys=True, separators=(",", ":"))]


def test_csv_quotes_only_the_fields_that_need_it(tmp_path):
    rows = [['Mitte, "Nord"', 1.0, -0.035448949], ["Ost\nSüd", 2, None], ["west", 0.1234, True]]
    path = tmp_path / "table.csv"
    featureio.write_csv(path, ["name", "a", "b"], rows)
    with open(path, encoding="utf-8", newline="") as fh:
        back = list(csv.reader(fh))
    assert back == [["name", "a", "b"], ['Mitte, "Nord"', "1.0", "-0.035448949"], ["Ost\nSüd", "2", ""], ["west", "0.1234", "True"]]
    text = path.read_text(encoding="utf-8")
    assert "\r" not in text
    assert text.endswith("\nwest,0.1234,True\n")  # plain rows as str() of each value


def spelled(matrix):
    # the rows of a text matrix without their zero bytes
    assert matrix.dtype == np.uint8
    return [row[row != 0].tobytes().decode("ascii") for row in matrix]


def near(v):
    # v and its neighbouring floats, both signs
    out = []
    for x in (v, -v):
        out += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    return out


@st.composite
def columns(draw):
    # a column of floats at 6, 9 or 12 decimals: any float (NaN, infinities,
    # signed zeros, subnormals), the exact ties (k + 0.5) / 10**d, the
    # edges of the plain spelling (1e-4 below, 10**(15 - d) above), and
    # the neighbours of each
    d = draw(st.sampled_from([6, 9, 12]))
    tie = st.integers(0, 10 ** (15 - d + 2)).map(lambda k: (k + 0.5) / 10**d)
    edge = st.sampled_from([1e-4, 5e-5, 10.0 ** (15 - d), 10.0 ** (15 - d) - 0.5 / 10**d, 0.5 / 10**d])
    value = st.floats() | tie | edge | st.floats(0.0, 10.0 ** (16 - d))
    values = [x for v in draw(st.lists(value, max_size=40)) for x in near(v)]
    return d, values


@given(case=columns())
def test_decimal_text_spells_encode_of_round(case):
    d, values = case
    assert spelled(featureio.decimal_text(np.array(values, dtype=float), d)) == [
        featureio.encode(round(v, d)) for v in values
    ]


@pytest.mark.parametrize("d", [0, 1, 6, 9, 12, 15])
def test_decimal_text_on_ties_and_the_edges_of_the_plain_spelling(d):
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.675, 0.0078125, 1e16, 1e15, 1.0e-4]
    values += [(k + 0.5) / 10**d for k in (0, 1, 2, 7812, 10**6)]
    values += [10.0 ** (15 - d), 10.0 ** (d - 4) / 10**d, 123456.7890123456789]
    values = [x for v in values for x in near(v)]
    assert spelled(featureio.decimal_text(values, d)) == [featureio.encode(round(v, d)) for v in values]


def test_decimal_text_of_no_values_and_its_decimals():
    assert featureio.decimal_text(np.zeros(0), 9).shape[0] == 0
    with pytest.raises(ValueError):
        featureio.decimal_text([1.0], 16)


@given(st.lists(st.integers(-(2**63) + 1, 2**63 - 1), max_size=40))
def test_integer_text_spells_encode(values):
    text = featureio.integer_text(np.array(values, dtype=np.int64))
    assert spelled(text) == [featureio.encode(v) for v in values]
