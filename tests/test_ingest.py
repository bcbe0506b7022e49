import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netqa import ingest
from netqa.errors import CrsError, NetqaError, ParseError, UnsupportedGeometryError
from netqa.ingest import (
    ClassificationRule,
    Features,
    classify,
    load_polygon_layer,
    load_population_csv,
    load_rules,
    load_study_area,
    parse_dataset,
)

from conftest import DEMO, line_feature, reference_eval_predicate, reference_parse_dataset


def write_fc(tmp_path, features, name="data.geojson"):
    path = tmp_path / name
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return path


PROJ = [[600000, 6100000], [600100, 6100000]]  # projected-looking meters


def shifted(base, i):
    return [[x + 200 * i, y] for x, y in base]


def test_parse_three_linestrings(tmp_path):
    path = write_fc(tmp_path, [line_feature(shifted(PROJ, i), {}) for i in range(3)])
    features = parse_dataset(path)
    assert len(features.ids) == 3
    assert features.ids == ["feature-0", "feature-1", "feature-2"]


def test_parse_splits_multilinestring(tmp_path):
    feat = {
        "type": "Feature",
        "id": "X",
        "geometry": {
            "type": "MultiLineString",
            "coordinates": [shifted(PROJ, 0), shifted(PROJ, 1)],
        },
        "properties": {},
    }
    features = parse_dataset(write_fc(tmp_path, [feat]))
    assert features.ids == ["X#0", "X#1"]


def test_parse_null_id_counts_as_absent(tmp_path):
    feats = [line_feature(shifted(PROJ, i), {}) for i in range(2)]
    for feat in feats:
        feat["id"] = None
    feats[1]["properties"]["id"] = "p"
    features = parse_dataset(write_fc(tmp_path, feats))
    assert features.ids == ["feature-0", "p"]


def test_parse_rejects_duplicate_ids(tmp_path):
    # graph edges are keyed by id, so a repeated id would silently drop an edge
    path = write_fc(tmp_path, [line_feature(shifted(PROJ, i), {}, feature_id=fid) for i, fid in enumerate("aba")])
    with pytest.raises(ParseError) as err:
        parse_dataset(path)
    assert str(err.value).endswith("duplicate feature id(s): a")


def test_parse_rejects_part_id_colliding_with_feature_id(tmp_path):
    multi = {
        "type": "Feature",
        "id": "x",
        "geometry": {"type": "MultiLineString", "coordinates": [shifted(PROJ, 0), shifted(PROJ, 1)]},
        "properties": {},
    }
    path = write_fc(tmp_path, [line_feature(shifted(PROJ, 2), {}, feature_id="x#0"), multi])
    with pytest.raises(ParseError) as err:
        parse_dataset(path)
    assert str(err.value).endswith("duplicate feature id(s): x#0")


def test_parse_rejects_polygon_feature(tmp_path):
    bad = {
        "type": "Feature",
        "id": "P1",
        "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]},
        "properties": {},
    }
    path = write_fc(tmp_path, [line_feature(PROJ, {}), bad])
    with pytest.raises(UnsupportedGeometryError) as err:
        parse_dataset(path)
    assert "P1" in str(err.value)


def test_parse_rejects_degree_coordinates(tmp_path):
    path = write_fc(tmp_path, [line_feature([[12.5, 55.7], [12.6, 55.8]], {})])
    with pytest.raises(CrsError):
        parse_dataset(path)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.geojson"
    path.write_text('{"type": "FeatureCollection",\n  "features": [}')
    with pytest.raises(ParseError) as err:
        parse_dataset(path)
    assert err.value.line == 2


def test_parse_drops_degenerate_features(tmp_path, caplog):
    degenerate = line_feature([[600000, 6100000], [600000, 6100000]], {})
    path = write_fc(tmp_path, [line_feature(PROJ, {}), degenerate])
    with caplog.at_level("WARNING"):
        features = parse_dataset(path)
    assert len(features.ids) == 1
    assert "degenerate" in caplog.text


@pytest.mark.parametrize(
    ("coordinates", "problem"),
    [
        ([[600000, 6100000], [True, 6100000]], "position 1 must be an array of two or more numbers, not [true, 6100000]"),
        ([["600000.5", 6100000], [600100, 6100000]], 'position 0 must be an array of two or more numbers, not ["600000.5", 6100000]'),
        ([[600000, 6100000], [600100]], "position 1 must be an array of two or more numbers, not [600100]"),
        ([[600000, 6100000], None], "position 1 must be an array of two or more numbers, not null"),
        ("a", 'coordinates must be an array of positions, not "a"'),
        ([[600000, 6100000], [10**400, 6100000]], "non-finite coordinate (inf, inf)"),
    ],
)
def test_parse_rejects_malformed_positions(tmp_path, coordinates, problem):
    # booleans and numeric strings were read as numbers, and a string of
    # coordinates was read character by character
    path = write_fc(tmp_path, [line_feature(PROJ, {}), line_feature(coordinates, {}, feature_id="bad")])
    with pytest.raises(ParseError) as err:
        parse_dataset(path)
    assert str(err.value) == f"{path}: feature bad: {problem}"


def test_parse_rejects_multilinestring_coordinates_that_are_not_lines(tmp_path):
    feat = {"type": "Feature", "id": "m", "geometry": {"type": "MultiLineString", "coordinates": "ab"}, "properties": {}}
    path = write_fc(tmp_path, [feat])
    with pytest.raises(ParseError) as err:
        parse_dataset(path)
    assert str(err.value) == f'{path}: feature m: coordinates must be an array of lines, not "ab"'


def test_parse_coerces_attribute_values(tmp_path):
    path = write_fc(tmp_path, [line_feature(PROJ, {"width": 2.5, "lit": None, "name": "x"})])
    assert parse_dataset(path).attributes == [{"width": "2.5", "name": "x"}]


# Positions from a small pool, so that consecutive duplicates and parts of
# only duplicates are common. Coordinates are projected-looking values,
# any float (NaN and infinities among them) and ints beyond 2**53, or, in
# some collections, degree-sized values only.
COORDINATES = st.one_of(
    st.sampled_from([600000.0, 600000.5, 6100000, 12.5, -0.0, math.nan]),
    st.floats(),
    st.integers(-(2**70), 2**70),
)
DEGREES = st.sampled_from([0.0, -0.0, 12.5, 7, 55])


@st.composite
def line_collections(draw):
    coordinates = draw(st.sampled_from([COORDINATES, COORDINATES, DEGREES]))
    pool = draw(st.lists(st.lists(coordinates, min_size=2, max_size=3), min_size=2, max_size=4))
    part = st.lists(st.sampled_from(pool), max_size=5)
    features = []
    for _ in range(draw(st.integers(1, 6))):
        gtype = draw(st.sampled_from(["LineString"] * 4 + ["MultiLineString"] * 3 + ["Point"]))
        coordinates = draw(st.lists(part, max_size=3) if gtype == "MultiLineString" else part)
        values = st.one_of(st.none(), st.text(max_size=2), st.integers(0, 2))
        props = draw(st.dictionaries(st.sampled_from(["highway", "id", "lit"]), values, max_size=2))
        feat = {"type": "Feature", "geometry": {"type": gtype, "coordinates": coordinates}, "properties": props}
        fid = draw(st.one_of(st.none(), st.sampled_from(["a", "b", "a#0", 3])))
        if fid is not None or draw(st.booleans()):  # null or absent
            feat["id"] = fid
        features.append(feat)
    return {"type": "FeatureCollection", "features": features}


def _outcome(parse, path):
    try:
        return parse(path)
    except NetqaError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(doc=line_collections())
def test_parse_equals_the_reference_reader(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("parse") / "lines.geojson"
    path.write_text(json.dumps(doc))
    expected = _outcome(reference_parse_dataset, path)
    with mock.patch.object(ingest.log, "warning") as warning:
        got = _outcome(parse_dataset, path)
    if isinstance(expected, tuple) and not isinstance(expected[0], list):
        assert got == expected
        return
    features, dropped = expected
    assert warning.call_args_list == ([mock.call(mock.ANY, path, dropped)] if dropped else [])
    assert got.ids == [f.source_id for f in features]
    assert got.attributes == [f.attributes for f in features]
    assert got.count.tolist() == [len(f.geometry.vertices) for f in features]
    assert list(map(float.hex, got.x.tolist())) == [v.x.hex() for f in features for v in f.geometry.vertices]
    assert list(map(float.hex, got.y.tolist())) == [v.y.hex() for f in features for v in f.geometry.vertices]


def test_an_ingested_edge_s_geometry_is_the_reference_reader_s_polyline():
    rules = load_rules(DEMO / "rules.json")
    for role in ("candidate", "reference"):
        ds = classify(parse_dataset(DEMO / f"{role}.geojson"), rules[role], role)
        features, _ = reference_parse_dataset(DEMO / f"{role}.geojson")
        polylines = {f.source_id: f.geometry for f in features}
        assert ds.edges
        for edge in ds.edges:
            assert edge.geometry == polylines[edge.id]
            vertex_bits = [(v.x.hex(), v.y.hex()) for v in edge.geometry.vertices]
            assert vertex_bits == [(v.x.hex(), v.y.hex()) for v in polylines[edge.id].vertices]


# ---------------------------------------------------------------- rules


RULE_PROTECTED = ClassificationRule(
    predicate={"key": "highway", "equals": "cycleway"},
    infra_category="protected",
    mapping_model="separate_geometry",
    directionality="oneway",
)
RULE_LANE = ClassificationRule(
    predicate={"key": "cycleway", "equals": "lane"},
    infra_category="unprotected",
    mapping_model="centerline",
    directionality="bidirectional",
)


def _raw(attrs, source_id="f"):
    return source_id, attrs


def _features(raws):
    """Features of (id, attributes) rows, row i a line from (0, i) to (10, i)."""
    n = len(raws)
    rows = np.repeat(np.arange(n, dtype=float), 2)
    return Features([r[0] for r in raws], [r[1] for r in raws], np.tile([0.0, 10.0], n), rows, np.full(n, 2))


def test_classify_direct_hit():
    ds = classify(_features([_raw({"highway": "cycleway"})]), [RULE_PROTECTED, RULE_LANE], name="t")
    assert len(ds.edges) == 1
    assert ds.edges[0].infra_category == "protected"
    assert ds.edges[0].mapping_model == "separate_geometry"


def test_classify_centerline_lane():
    ds = classify(
        _features([_raw({"highway": "residential", "cycleway": "lane"})]),
        [RULE_PROTECTED, RULE_LANE],
        name="t",
    )
    assert ds.edges[0].infra_category == "unprotected"
    assert ds.edges[0].directionality == "bidirectional"


def test_classify_drops_unmatched():
    ds = classify(_features([_raw({"highway": "residential"})]), [RULE_PROTECTED], name="t")
    assert ds.edges == []


def test_classify_first_match_wins():
    both = _features([_raw({"highway": "cycleway", "cycleway": "lane"})])
    assert classify(both, [RULE_PROTECTED, RULE_LANE], "t").edges[0].infra_category == "protected"
    assert classify(both, [RULE_LANE, RULE_PROTECTED], "t").edges[0].infra_category == "unprotected"


def test_classify_keeps_attributes_and_is_stable():
    feats = [_raw({"highway": "cycleway", "surface": "asphalt"}, source_id=f"f{i}") for i in range(5)]
    ds = classify(_features(feats), [RULE_PROTECTED], name="t")
    assert [e.id for e in ds.edges] == [f"f{i}" for i in range(5)]
    assert ds.edges[0].attributes["surface"] == "asphalt"


def test_classify_permutation_equivariant():
    # no cross-feature state: permuting the input permutes the output
    feats = [
        _raw({"highway": "cycleway"}, "a"),
        _raw({"cycleway": "lane"}, "b"),
        _raw({"highway": "x"}, "c"),
        _raw({"highway": "cycleway"}, "d"),
    ]
    rules = [RULE_PROTECTED, RULE_LANE]
    forward = classify(_features(feats), rules, "t")
    backward = classify(_features(feats[::-1]), rules, "t")
    assert [e.id for e in backward.edges] == [e.id for e in forward.edges][::-1]
    by_id_f = {e.id: e.infra_category for e in forward.edges}
    by_id_b = {e.id: e.infra_category for e in backward.edges}
    assert by_id_f == by_id_b


def test_classify_idempotent():
    feats = [_raw({"highway": "cycleway", "surface": "asphalt"}, "a"), _raw({"cycleway": "lane"}, "b")]
    rules = [RULE_PROTECTED, RULE_LANE]
    once = classify(_features(feats), rules, "t")
    v = once.vertices
    again = Features([e.id for e in once.edges], [e.attributes for e in once.edges], v.x, v.y, v.last - v.first + 1)
    twice = classify(again, rules, "t")
    assert [(e.id, e.infra_category, e.mapping_model, e.directionality) for e in once.edges] == [
        (e.id, e.infra_category, e.mapping_model, e.directionality) for e in twice.edges
    ]


def test_predicate_combinators():
    rule = ClassificationRule(
        predicate={
            "all": [
                {"key": "highway", "in": ["path", "track"]},
                {"not": {"key": "bicycle", "equals": "no"}},
                {"any": [{"key": "surface", "present": True}, {"key": "lit", "present": True}]},
            ]
        },
        infra_category="protected",
        mapping_model="separate_geometry",
        directionality="oneway",
    )
    assert rule.matches({"highway": "path", "surface": "gravel"})
    assert not rule.matches({"highway": "path"})
    assert not rule.matches({"highway": "path", "surface": "gravel", "bicycle": "no"})
    assert not rule.matches({"highway": "road", "surface": "gravel"})


def test_predicate_empty_value_is_absent():
    rule = ClassificationRule(
        predicate={"key": "surface", "present": True},
        infra_category="protected",
        mapping_model="separate_geometry",
        directionality="oneway",
    )
    assert not rule.matches({"surface": ""})


# Values as a rules file or an attribute map may hold them: JSON true, a
# number, their texts, an empty text and null.
PREDICATE_VALUES = st.sampled_from([True, False, 30, 2.5, "30", "True", "true", "2.5", "", "lane", None])
PREDICATE_KEYS = st.sampled_from(["highway", "lit", "maxspeed"])


def predicate_trees():
    leaves = st.one_of(
        st.fixed_dictionaries({"key": PREDICATE_KEYS, "equals": PREDICATE_VALUES}),
        st.fixed_dictionaries({"key": PREDICATE_KEYS, "in": st.lists(PREDICATE_VALUES, max_size=4)}),
        st.fixed_dictionaries({"key": PREDICATE_KEYS, "present": st.booleans()}),
        # equals wins over in, in over present
        st.fixed_dictionaries(
            {"key": PREDICATE_KEYS, "equals": PREDICATE_VALUES, "in": st.lists(PREDICATE_VALUES, max_size=2)}
        ),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.fixed_dictionaries({"all": st.lists(children, min_size=1, max_size=3)}),
            st.fixed_dictionaries({"any": st.lists(children, min_size=1, max_size=3)}),
            st.fixed_dictionaries({"not": children}),
        ),
        max_leaves=8,
    )


@given(
    predicate=predicate_trees(),
    attributes=st.lists(st.dictionaries(PREDICATE_KEYS, PREDICATE_VALUES), min_size=1, max_size=4),
)
def test_compiled_predicates_agree_with_the_reference_evaluator(predicate, attributes):
    rule = ClassificationRule(predicate, "protected", "separate_geometry", "oneway")
    for attrs in attributes:
        assert rule.matches(attrs) == reference_eval_predicate(predicate, attrs)


def test_classify_evaluates_the_rules_once_per_feature():
    # the two parts of a MultiLineString share one attribute map
    shared, other = {"highway": "cycleway"}, {"highway": "cycleway"}
    calls = []
    rule = ClassificationRule({"key": "highway", "equals": "cycleway"}, "protected", "separate_geometry", "oneway")
    with mock.patch.object(rule, "_test", side_effect=lambda attrs: calls.append(attrs) or True):
        ds = classify(_features([("m", shared), ("m", shared), ("n", other)]), [RULE_LANE, rule], name="t")
    assert [e.id for e in ds.edges] == ["m", "m", "n"]
    assert [a is shared for a in calls] == [True, False]


def test_rule_validation():
    with pytest.raises(ValueError):
        ClassificationRule(
            predicate={"bogus": 1},
            infra_category="protected",
            mapping_model="separate_geometry",
            directionality="oneway",
        )
    with pytest.raises(ValueError):
        ClassificationRule(
            predicate={"key": "a", "equals": "b"},
            infra_category="sheltered",
            mapping_model="separate_geometry",
            directionality="oneway",
        )


def test_load_rules_roundtrip(tmp_path):
    doc = {
        "candidate": [
            {
                "match": {"key": "highway", "equals": "cycleway"},
                "assign": {
                    "infra_category": "protected",
                    "mapping_model": "separate_geometry",
                    "directionality": "oneway",
                },
            }
        ]
    }
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(doc))
    rules = load_rules(path)
    assert rules["candidate"][0].matches({"highway": "cycleway"})


def test_load_rules_rejects_bad_entries(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"candidate": [{"match": {"key": "a", "equals": "b"}}]}))
    with pytest.raises(ParseError):
        load_rules(path)


# ------------------------------------------------------- auxiliary files


def test_load_study_area_and_polygons(tmp_path):
    square = {
        "type": "Feature",
        "properties": {"name": "north"},
        "geometry": {
            "type": "Polygon",
            "coordinates": [[[0, 0], [1000, 0], [1000, 1000], [0, 1000], [0, 0]]],
        },
    }
    path = tmp_path / "area.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": [square]}))
    (part,) = load_study_area(path)
    assert part.area == 1000000.0
    (poly,) = load_polygon_layer(path)
    assert poly.name == "north"


def polygon_fc(tmp_path, name, ring):
    feat = {"type": "Feature", "properties": {"name": name}, "geometry": {"type": "Polygon", "coordinates": [ring]}}
    return write_fc(tmp_path, [feat], name="area.geojson")


@pytest.mark.parametrize("load", [load_study_area, load_polygon_layer])
def test_load_polygons_accept_3d_positions(tmp_path, load):
    ring = [[0, 0, 12.5], [1000, 0, 13.0], [1000, 1000, 11.0], [0, 1000, 12.0], [0, 0, 12.5]]
    (part,) = load(polygon_fc(tmp_path, "hilly", ring))
    assert part.area == 1000000.0
    assert len(part.rings[0]) == 4


@pytest.mark.parametrize("load", [load_study_area, load_polygon_layer])
def test_load_polygons_reject_short_ring_naming_file_and_feature(tmp_path, load):
    path = polygon_fc(tmp_path, "sliver", [[0, 0], [1000, 0], [0, 0]])
    with pytest.raises(ParseError) as err:
        load(path)
    assert err.value.path == str(path)
    assert str(err.value).startswith(f"{path}: feature sliver: ")
    assert "fewer than 3 vertices" in str(err.value)


@pytest.mark.parametrize("load", [load_study_area, load_polygon_layer])
@pytest.mark.parametrize(
    ("position", "problem"),
    [
        ([1000, False], "position 1 must be an array of two or more numbers, not [1000, false]"),
        (["1000", 0], 'position 1 must be an array of two or more numbers, not ["1000", 0]'),
        ([1000], "position 1 must be an array of two or more numbers, not [1000]"),
        ([1000, float("nan")], "non-finite coordinate (1000.0, nan)"),
    ],
)
def test_load_polygons_reject_malformed_positions(tmp_path, load, position, problem):
    path = polygon_fc(tmp_path, "odd", [[0, 0], position, [1000, 1000], [0, 1000], [0, 0]])
    with pytest.raises(ParseError) as err:
        load(path)
    assert str(err.value) == f"{path}: feature odd: {problem}"


@pytest.mark.parametrize("load", [load_study_area, load_polygon_layer])
@pytest.mark.parametrize("gtype", ["Polygon", "MultiPolygon"])
def test_load_polygons_reject_missing_coordinates_naming_file_and_feature(tmp_path, load, gtype):
    path = tmp_path / "area.geojson"
    feature = {"type": "Feature", "properties": {"name": "hollow"}, "geometry": {"type": gtype}}
    path.write_text(json.dumps({"type": "FeatureCollection", "features": [feature]}))
    with pytest.raises(ParseError) as err:
        load(path)
    assert err.value.path == str(path)
    assert str(err.value) == f"{path}: feature hollow: {gtype} has no coordinates"


def test_load_population(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("cell_id,population\n\"0,1\",120\n\"2,3\",55\n")
    pop = load_population_csv(path)
    assert pop == {"0,1": 120.0, "2,3": 55.0}


def test_load_population_rejects_duplicate_cell_id(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("cell_id,population\n\"0,1\",120\n\"2,3\",55\n\"0,1\",7\n")
    with pytest.raises(ParseError) as err:
        load_population_csv(path)
    assert err.value.line == 4
    assert "duplicate cell_id '0,1'" in str(err.value)


def test_load_population_requires_header(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("id,people\na,1\n")
    with pytest.raises(ParseError):
        load_population_csv(path)
