import csv
import hashlib
import importlib.util
import json
import logging
import math
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from functools import cache, partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netqa import completeness, featureio, graph, hexgrid, ingest, pipeline, spatial
from netqa.cli import main as cli_main
from netqa.errors import ConfigError, PipelineError
from netqa.geometry import Point2D, Polyline, Segment
from netqa.graph import Undershoot
from netqa.hexgrid import HexCell, HexGrid
from netqa.ingest import Dataset
from netqa.matching import (
    MatchConfig,
    MatchCounts,
    MatchRecord,
    MatchTable,
    SegmentTable,
    match_datasets,
    match_tables,
)
from netqa.pipeline import Pipeline, RunConfig, run_pipeline

from conftest import (
    cell_center,
    cell_polygon,
    line_feature,
    make_dataset,
    make_edge,
    polyline_coords,
    reference_clip_polyline,
    write_ragged_demo,
)

DATA = Path(__file__).parent / "data"
DEMO = DATA / "demo"
PERFBENCH_GENERATE = Path(__file__).parent.parent / "perfbench" / "generate.py"
# SHA-256 of each demo output's parsed content (see parsed_digest), recorded
# from the indented writer that preceded the compact one
DEMO_DIGESTS = Path(__file__).parent / "data" / "demo_parsed_sha256.json"
# SHA-256 of each demo output's bytes; CI holds the installed console script
# to them too
DEMO_RAW_DIGESTS = Path(__file__).parent / "data" / "demo_raw_sha256.json"
# the same for the demo with a distance band added to its weights
DEMO_BAND_RAW_DIGESTS = Path(__file__).parent / "data" / "demo_band_raw_sha256.json"
# the same for the demo at a 5 m snap tolerance
DEMO_SNAP_RAW_DIGESTS = Path(__file__).parent / "data" / "demo_snap_raw_sha256.json"
# the same for the ragged demo (conftest.write_ragged_demo)
DEMO_RAGGED_RAW_DIGESTS = Path(__file__).parent / "data" / "demo_ragged_raw_sha256.json"


def demo_config(tmp_path, out_name="out", **overrides):
    doc = json.loads((DEMO / "config.json").read_text())
    doc["output_dir"] = out_name
    doc.update(overrides)
    for key in ("candidate", "reference"):
        doc[key]["path"] = str(DEMO / doc[key]["path"])
    for key in ("study_area", "polygons", "population", "rules"):
        if key in doc:
            doc[key] = str(DEMO / doc[key])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def feature_lines(blocks) -> list[str]:
    """The encoded features a "lines" producer yields, in blocks of lines joined by ``,\\n``."""
    return [line for block in blocks for line in bytes(block).decode("ascii").split(",\n")]


def read_outputs(out_dir, skip=("run_info.json",)):
    out = {}
    for p in sorted(Path(out_dir).iterdir()):
        if p.name in skip:
            continue
        out[p.name] = p.read_bytes()
    return out


# ------------------------------------------------------------------ config


def test_config_requires_seed(tmp_path):
    doc = json.loads((DEMO / "config.json").read_text())
    del doc["seed"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        RunConfig.from_file(path)


def test_config_defaults_resolved(tmp_path):
    cfg = RunConfig.from_file(demo_config(tmp_path))
    echo = cfg.resolved()
    assert echo["match"]["seg_len_m"] == 10.0
    assert echo["undershoot_threshold_m"] == 3.0
    assert echo["grid"]["orientation"] == "flat-top"
    assert echo["length_policy"]["centerline,bidirectional"] == 2.0


def test_config_defaults_come_from_their_owners(tmp_path):
    path = demo_config(tmp_path)
    doc = json.loads(path.read_text())
    del doc["match"], doc["weights"]
    path.write_text(json.dumps(doc))
    cfg = RunConfig.from_file(path)
    assert cfg.match_config == MatchConfig()
    assert cfg.weights_schemes == RunConfig.weights_schemes == ({"scheme": "knn", "k": 6},)


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"weights": [{"scheme": "knn", "k": 0}]}, "'k'"),
        ({"weights": [{"scheme": "knn", "k": 2.5}]}, "'k'"),
        ({"weights": [{"scheme": "distance_band", "distance_m": -5}]}, "'distance_m'"),
        ({"weights": [{"scheme": "distance_band", "distance_m": 0}]}, "'distance_m'"),
        ({"n_permutations": -5}, "'n_permutations'"),
        ({"n_permutations": 0}, "'n_permutations'"),
        ({"alpha": 2}, "'alpha'"),
        ({"alpha": 0.0}, "'alpha'"),
    ],
    ids=["knn_k0", "knn_k_fraction", "band_negative", "band_zero", "perm_negative", "perm_zero", "alpha2", "alpha0"],
)
def test_config_rejects_bad_autocorrelation_settings(tmp_path, overrides, key):
    # each of these used to run: skipped every metric, crashed in numpy,
    # or flagged every cell significant
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_file(demo_config(tmp_path, **overrides))


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"tags": [{"name": "surface", "keys": []}]}, "'tags[0].keys'"),
        ({"tags": [{"keys": ["surface"]}]}, "'tags[0].name'"),
        ({"tags": [{"name": "surface", "keys": "surface"}]}, "'tags[0].keys'"),
        ({"tags": [{"name": "s", "keys": ["surface"]}, {"name": "s", "keys": ["lit"]}]}, "'tags'"),
        ({"length_policy": {"centerline,bidirectional": "two"}}, "'length_policy.centerline,bidirectional'"),
        ({"match": {"seg_len_m": "ten"}}, "'match.seg_len_m'"),
        ({"match": {"max_dist_m": float("nan")}}, "'match.max_dist_m'"),
        ({"match": {"max_angle_deg": float("inf")}}, "'match.max_angle_deg'"),
        ({"grid": {"cell_area_m2": "large"}}, "'grid.cell_area_m2'"),
        ({"weights": ["knn"]}, "'weights[0]'"),
        ({"seed": "abc"}, "'seed'"),
        ({"snap_tolerance_m": -0.5}, "'snap_tolerance_m'"),
        ({"undershoot_threshold_m": 0.0}, "'undershoot_threshold_m'"),
        ({"undershoot_threshold_m": -3.0}, "'undershoot_threshold_m'"),
    ],
    ids=[
        "tag_keys_empty",
        "tag_without_name",
        "tag_keys_string",
        "tag_name_repeated",
        "policy_factor_text",
        "seg_len_text",
        "max_dist_nan",
        "max_angle_inf",
        "cell_area_text",
        "weights_entry_not_object",
        "seed_text",
        "snap_negative",
        "undershoot_zero",
        "undershoot_negative",
    ],
)
def test_config_errors_fail_at_load_naming_the_key(tmp_path, capsys, overrides, key):
    # each of these used to give a traceback, a silently wrong result, or
    # an error only inside a stage
    assert cli_main(["validate", "--config", str(demo_config(tmp_path, **overrides))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key") and key in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("candidate.path", 5),
        ("reference.path", None),
        ("study_area", 5),
        ("rules", ["rules.json"]),
        ("polygons", None),
        ("population", 5.0),
        ("output_dir", 5),
    ],
)
def test_config_paths_that_are_not_strings_fail_at_load_naming_the_key(tmp_path, capsys, key, value):
    # these used to end in a TypeError from ``Path / value``: a traceback
    # and exit status 1
    path = demo_config(tmp_path)
    doc = json.loads(path.read_text())
    *parent, name = key.split(".")
    (doc[parent[0]] if parent else doc)[name] = value
    path.write_text(json.dumps(doc))
    assert cli_main(["full", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key") and f"{key!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("role", ["candidate", "reference"])
@pytest.mark.parametrize("value", [None, ["x"], 3, ""], ids=["null", "list", "number", "empty"])
def test_dataset_names_that_are_not_nonempty_strings_fail_at_load(tmp_path, capsys, role, value):
    # these used to become dataset names such as 'None' and "['x']"
    path = demo_config(tmp_path)
    doc = json.loads(path.read_text())
    doc[role]["name"] = value
    path.write_text(json.dumps(doc))
    assert cli_main(["full", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key '{role}.name' must be a nonempty string, got {value!r}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["5", "null", "[]", '"x"'])
def test_a_config_that_is_not_an_object_fails_at_load(tmp_path, capsys, text):
    # a number or null used to end in a TypeError, and a list or a string
    # was reported as missing the key 'candidate'
    path = tmp_path / "config.json"
    path.write_text(text)
    assert cli_main(["full", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config {path} must hold a JSON object, got ")


def test_missing_input_reported(tmp_path):
    cfg_path = demo_config(tmp_path, candidate={"name": "x", "path": "nope.geojson"})
    cfg = RunConfig.from_file(cfg_path)
    problems = cfg.missing_inputs()
    assert len(problems) == 1
    assert "nope.geojson" in problems[0]
    report = Pipeline(cfg).validate()
    assert not report["ok"]


# ---------------------------------------------------------------- pipeline


def test_full_pipeline_writes_documented_files(tmp_path, caplog):
    cfg = RunConfig.from_file(demo_config(tmp_path), out_override=tmp_path / "out")
    with caplog.at_level(logging.DEBUG, logger="netqa.pipeline"):
        summary, written = run_pipeline(cfg)
    expected = {
        "grid_metrics.geojson",
        "segments_candidate.geojson",
        "segments_reference.geojson",
        "undershoots_candidate.geojson",
        "undershoots_reference.geojson",
        "components_candidate.geojson",
        "components_reference.geojson",
        "zipf_candidate.csv",
        "zipf_reference.csv",
        "polygons.csv",
        "summary.json",
        "summary.txt",
        "run_info.json",
    }
    assert expected <= set(written)
    assert any(name.startswith("lisa_knn6_") for name in written)
    assert (tmp_path / "out" / "summary.json").exists()
    # config echoed into the report header
    assert summary["configuration"]["seed"] == 42
    # stage timings and peak RSS go to run_info.json and the debug log only
    stages = {"ingest", "grid", "graph", "density", "structure", "match", "tags", "autocorr", "write"}
    run_info = json.loads((tmp_path / "out" / "run_info.json").read_text())
    assert set(run_info["stage_seconds"]) == stages
    assert all(sec >= 0.0 for sec in run_info["stage_seconds"].values())
    assert run_info["peak_rss_mb"] > 0.0
    assert "stage autocorr:" in caplog.text
    assert "stage write:" in caplog.text
    assert f"peak RSS: {run_info['peak_rss_mb']} MB" in caplog.text


def test_stage_seconds_leave_out_the_stages_run_first(tmp_path, monkeypatch):
    # a clock that steps 1 s per reading: ingest and grid read it twice each,
    # inside density's two readings
    ticks = iter(range(100))
    monkeypatch.setattr(pipeline, "time", mock.Mock(perf_counter=lambda: float(next(ticks))))
    pipe = Pipeline(RunConfig.from_file(demo_config(tmp_path)))
    pipe.density()
    assert pipe.stage_seconds == {"ingest": 1.0, "grid": 1.0, "density": 3.0}


def test_pipeline_deterministic_across_runs_and_threads(tmp_path):
    cfg1 = RunConfig.from_file(demo_config(tmp_path), out_override=tmp_path / "a")
    run_pipeline(cfg1)
    cfg2 = RunConfig.from_file(demo_config(tmp_path), out_override=tmp_path / "b")
    run_pipeline(cfg2)
    cfg3 = RunConfig.from_file(demo_config(tmp_path), out_override=tmp_path / "c")
    run_pipeline(cfg3)
    a = read_outputs(tmp_path / "a")
    b = read_outputs(tmp_path / "b")
    c = read_outputs(tmp_path / "c")
    assert a == b
    assert a == c


def test_autocorr_builds_weights_once_per_cell_set(tmp_path, monkeypatch):
    built = []
    real = spatial.build_weights

    def counting(centroids, scheme):
        built.append(tuple(sorted(centroids)))
        return real(centroids, scheme)

    monkeypatch.setattr(spatial, "build_weights", counting)
    pipe = Pipeline(RunConfig.from_file(demo_config(tmp_path)))
    pipe.autocorr()
    tag_cells = {tuple(sorted(pipe.grid_fields[f"tag_{t.name}"])) for t in pipe.cfg.tag_specs}
    assert len(tag_cells) == 1  # the tag metrics share one cell set
    assert len(built) == len(set(built))
    assert tag_cells <= set(built)


def test_summary_cross_checks_hold(tmp_path):
    cfg = RunConfig.from_file(demo_config(tmp_path), out_override=tmp_path / "out")
    summary, _ = run_pipeline(cfg)
    for role in ("candidate", "reference"):
        total = summary["density"]["totals"][role]["total_km"]
        share = summary["structure"][role]["largest_component_share_pct"]
        largest = summary["structure"][role]["largest_component_km"]
        assert share / 100.0 * total == pytest.approx(largest, rel=1e-5)
        match = summary["matching"][role]
        assert match["pct_matched_length"] == pytest.approx(
            100.0 * match["matched_length_km"] / match["total_length_km"], abs=1e-3
        )


def test_identity_run_matches_everything(tmp_path):
    # candidate against a copy of itself: both rule sets read candidate rules
    rules = json.loads((DEMO / "rules.json").read_text())
    rules["reference"] = rules["candidate"]
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps(rules))
    cfg_path = demo_config(
        tmp_path,
        reference={"name": "copy", "path": str(DEMO / "candidate.geojson")},
        rules=str(rules_path),
    )
    cfg = RunConfig.from_file(cfg_path, out_override=tmp_path / "out")
    pipe = Pipeline(cfg)
    pipe.density()
    pipe.matching_results()
    for role in ("candidate", "reference"):
        assert pipe.summary["matching"][role]["pct_matched_segments"] == 100.0
        assert pipe.summary["matching"][role]["pct_matched_length"] == 100.0
    diff = pipe._cache["density"]["difference"]
    assert all(v == 0.0 for v in diff.values())
    polygon_stats = pipe._cache["density"]["polygon_stats"]
    assert all(p.relative_difference == 0.0 for p in polygon_stats)


def test_stage_subsets_write_only_their_outputs(tmp_path):
    cfg = RunConfig.from_file(demo_config(tmp_path), out_override=tmp_path / "st")
    written = Pipeline(cfg).run_stage("structure")
    assert "undershoots_candidate.geojson" in written
    assert "zipf_reference.csv" in written
    assert not any(name.startswith("segments_") for name in written)
    assert not any(name.startswith("lisa_") for name in written)

    cfg2 = RunConfig.from_file(demo_config(tmp_path), out_override=tmp_path / "ac")
    written2 = Pipeline(cfg2).run_stage("autocorr")
    assert any(name.startswith("lisa_knn6_") for name in written2)


def test_unknown_stage_rejected(tmp_path):
    cfg = RunConfig.from_file(demo_config(tmp_path))
    with pytest.raises(ConfigError):
        Pipeline(cfg).run_stage("bogus")


def test_failing_stage_names_itself(tmp_path):
    bad_rules = tmp_path / "rules.json"
    bad_rules.write_text(json.dumps({"candidate": []}))
    cfg_path = demo_config(tmp_path, rules=str(bad_rules))
    cfg = RunConfig.from_file(cfg_path)
    with pytest.raises(PipelineError) as err:
        Pipeline(cfg).run_stage("density")
    assert err.value.stage == "ingest"


def test_failed_write_keeps_previous_outputs(tmp_path, monkeypatch):
    run_pipeline(RunConfig.from_file(demo_config(tmp_path), out_override=tmp_path / "out"))
    before = read_outputs(tmp_path / "out", skip=())
    real = featureio.write_json

    def failing(path, obj):
        if Path(path).name == "run_info.json":  # the last file written
            raise OSError("disk full")
        real(path, obj)

    monkeypatch.setattr(featureio, "write_json", failing)
    # a different seed changes the LISA outputs and the summary
    cfg = RunConfig.from_file(demo_config(tmp_path, seed=7), out_override=tmp_path / "out")
    with pytest.raises(OSError, match="disk full"):
        run_pipeline(cfg)
    assert read_outputs(tmp_path / "out", skip=()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]


def test_failing_producer_names_the_write_stage_and_keeps_previous_outputs(tmp_path, monkeypatch):
    run_pipeline(RunConfig.from_file(demo_config(tmp_path), out_override=tmp_path / "out"))
    before = read_outputs(tmp_path / "out", skip=())
    pipe = Pipeline(RunConfig.from_file(demo_config(tmp_path, seed=7), out_override=tmp_path / "out"))
    pipe.structure()
    pipe.matching_results()
    kind, produce = pipe.outputs["segments_candidate.geojson"]
    monkeypatch.setattr(pipeline, "_LINE_BLOCK", 2)  # a block per line

    def failing():
        for i, block in enumerate(produce()):
            if i == 5:  # partway through the layer
                raise ValueError("bad feature")
            yield block

    pipe.outputs["segments_candidate.geojson"] = (kind, failing)
    with pytest.raises(PipelineError) as err:
        pipe.write_outputs()
    assert err.value.stage == "write"
    assert "segments_candidate.geojson" in str(err.value)
    assert "bad feature" in str(err.value)
    assert read_outputs(tmp_path / "out", skip=()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]


def test_outputs_hold_producers_bound_to_their_role(tmp_path):
    pipe = Pipeline(RunConfig.from_file(demo_config(tmp_path)))
    for stage in (pipe.density, pipe.structure, pipe.matching_results, pipe.tag_shares, pipe.autocorr):
        stage()
        for name, (kind, payload) in pipe.outputs.items():
            if name.endswith(".geojson"):
                # every layer is produced as encoded lines
                assert kind == "lines", name
                assert callable(payload) and not isinstance(payload, list), name
            else:
                assert kind == "csv", name
    graphs = pipe.graphs()
    for role in Pipeline.ROLES:
        edge_ids = {e.id for e in graphs[role].edges}
        segments = feature_lines(pipe.outputs[f"segments_{role}.geojson"][1]())
        assert segments == feature_lines(pipe.outputs[f"segments_{role}.geojson"][1]())  # a fresh iterable per call
        assert {json.loads(line)["properties"]["edge_id"] for line in segments} == edge_ids
        components = feature_lines(pipe.outputs[f"components_{role}.geojson"][1]())
        assert components == feature_lines(pipe.outputs[f"components_{role}.geojson"][1]())
        assert [json.loads(line)["id"] for line in components] == [e.id for e in graphs[role].edges]
        undershoots = feature_lines(pipe.outputs[f"undershoots_{role}.geojson"][1]())
        assert undershoots == feature_lines(pipe.outputs[f"undershoots_{role}.geojson"][1]())
        for line in undershoots:
            assert json.loads(line)["properties"]["nearest_edge_id"] in edge_ids


def test_structure_finds_components_once_per_role(tmp_path, monkeypatch):
    calls = []
    real = graph.connected_components

    def counting(g, policy=None):
        calls.append(g)
        return real(g, policy)

    monkeypatch.setattr(graph, "connected_components", counting)
    pipe = Pipeline(RunConfig.from_file(demo_config(tmp_path)))
    pipe.structure()
    graphs = pipe.graphs()
    assert len(calls) == 2
    assert calls[0] is graphs["candidate"] and calls[1] is graphs["reference"]


def parsed_digest(path: Path) -> str:
    """SHA-256 of a JSON file's parsed content, or of any other file's bytes."""
    if path.suffix in (".json", ".geojson"):
        data = json.dumps(json.loads(path.read_text(encoding="utf-8")), sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def run_demo_from_copy(tmp_path, monkeypatch, extra_weights=(), **overrides) -> Path:
    """Run ``netqa full`` on a copy of the demo; returns the output directory.

    The copy is run with a relative config path, so the input paths echoed
    into summary.json do not depend on where the repository lives.
    ``extra_weights`` are appended to the config's weights schemes, and
    ``overrides`` replace config keys.
    """
    work = tmp_path / "demo"
    work.mkdir()
    for p in DEMO.iterdir():
        if p.is_file():
            shutil.copy(p, work / p.name)
    if extra_weights or overrides:
        doc = json.loads((work / "config.json").read_text(encoding="utf-8"))
        doc["weights"] += list(extra_weights)
        doc.update(overrides)
        (work / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(work)
    assert cli_main(["full", "--config", "config.json", "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out"


def test_demo_outputs_reproduce_the_recorded_parsed_content(tmp_path, monkeypatch):
    # the two roles and every LISA metric hold different data, so a layer
    # bound to the wrong loop value changes a digest
    out = run_demo_from_copy(tmp_path, monkeypatch)
    got = {p.name: parsed_digest(p) for p in sorted(out.iterdir()) if p.name != "run_info.json"}
    assert got == json.loads(DEMO_DIGESTS.read_text(encoding="utf-8"))


def test_demo_outputs_reproduce_the_recorded_bytes(tmp_path, monkeypatch):
    # the parsed digests miss a change of spelling (a float's digits, key
    # order, whitespace, CSV quoting); these hold every byte
    out = run_demo_from_copy(tmp_path, monkeypatch)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.name != "run_info.json"}
    assert got == json.loads(DEMO_RAW_DIGESTS.read_text(encoding="utf-8"))


def test_demo_band_outputs_reproduce_the_recorded_bytes(tmp_path, monkeypatch):
    # at 280 m a cell has up to 12 neighbours (the first two hexagon rings)
    out = run_demo_from_copy(tmp_path, monkeypatch, [{"scheme": "distance_band", "distance_m": 280.0}])
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.name != "run_info.json"}
    assert got == json.loads(DEMO_BAND_RAW_DIGESTS.read_text(encoding="utf-8"))


def test_demo_snap_outputs_reproduce_the_recorded_bytes(tmp_path, monkeypatch):
    # at 5 m some endpoints snap onto a node opened by a nearby coordinate,
    # so the first-come snapping rule decides nodes, undershoots and components
    out = run_demo_from_copy(tmp_path, monkeypatch, snap_tolerance_m=5.0)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.name != "run_info.json"}
    assert got == json.loads(DEMO_SNAP_RAW_DIGESTS.read_text(encoding="utf-8"))


def test_demo_ragged_outputs_reproduce_the_recorded_bytes(tmp_path, monkeypatch):
    # a wobbly study outline that some lines leave, a district with a hole
    # along a street and a two-part district: the polygon clip's hard cases
    monkeypatch.chdir(write_ragged_demo(tmp_path / "demo"))
    assert cli_main(["full", "--config", "config.json", "--out", str(tmp_path / "out")]) == 0
    out = tmp_path / "out"
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.name != "run_info.json"}
    assert got == json.loads(DEMO_RAGGED_RAW_DIGESTS.read_text(encoding="utf-8"))


def _perfbench_generate():
    # the benchmark's input generator, loaded from its file: perfbench is
    # not a package
    spec = importlib.util.spec_from_file_location("perfbench_generate", PERFBENCH_GENERATE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload, digests",
    [
        # segment layers (about 21k rows) and component layers (about 2k edges)
        ("match-dense", ["match_dense_seed1_segments_sha256.json", "match_dense_seed1_components_sha256.json"]),
        # grid, LISA and undershoot layers (209 cells)
        ("city-full", ["city_full_seed1_polygon_layers_sha256.json"]),
    ],
    ids=["match-dense", "city-full"],
)
def test_benchmark_seed1_layers_reproduce_the_recorded_bytes(tmp_path, workload, digests):
    generate = _perfbench_generate()
    generate.generate(generate.WORKLOADS[workload], 1, tmp_path / "in")
    assert cli_main(["full", "--config", str(tmp_path / "in" / "config.json"), "--out", str(tmp_path / "out")]) == 0
    recorded = {k: v for name in digests for k, v in json.loads((DATA / name).read_text(encoding="utf-8")).items()}
    got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in recorded}
    assert got == recorded


def test_full_run_builds_no_per_segment_objects(tmp_path, monkeypatch):
    built = Counter()

    def count(cls):
        real = cls.__init__

        def init(self, *args, **kwargs):
            built[cls.__name__] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    for cls in (Segment, MatchRecord, Point2D):
        count(cls)
    pipe = Pipeline(RunConfig.from_file(demo_config(tmp_path), out_override=tmp_path / "out"))
    pipe.datasets()
    pipe.grid()
    built.clear()  # vertices and cell centers are Point2Ds
    pipe.matching_results()
    for role in Pipeline.ROLES:
        assert sum(1 for _ in pipe.outputs[f"segments_{role}.geojson"][1]()) > 0
    assert built == Counter()
    pipe.run_stage("full")
    assert built["Segment"] == built["MatchRecord"] == 0
    # the counters see the record views
    match_datasets(pipe.datasets()["candidate"], pipe.datasets()["reference"], pipe.cfg.match_config)
    assert built["Segment"] > 0 and built["MatchRecord"] > 0 and built["Point2D"] > 0


def test_a_full_run_calls_factor_for_once_per_edge(tmp_path, monkeypatch):
    calls = Counter()
    real = completeness.LengthPolicy.factor_for

    def counting(self, edge):
        calls[id(edge)] += 1
        return real(self, edge)

    monkeypatch.setattr(completeness.LengthPolicy, "factor_for", counting)
    pipe = Pipeline(RunConfig.from_file(demo_config(tmp_path), out_override=tmp_path / "out"))
    pipe.run_stage("full")
    edges = [e for ds in pipe.datasets().values() for e in ds.edges]
    assert sorted(calls) == sorted(map(id, edges))
    assert set(calls.values()) == {1}


def _reference_segment_features(records):
    # the layer as built from MatchRecord attributes
    for r in records:
        s, m = r.segment, r.matched
        yield line_feature(
            [[round(s.start.x, 6), round(s.start.y, 6)], [round(s.end.x, 6), round(s.end.y, 6)]],
            {
                "edge_id": s.parent_edge_id,
                "segment_index": s.index,
                "length_m": featureio.round_metric(s.arc_length),
                "matched": m is not None,
                "matched_edge_id": m.parent_edge_id if m else None,
                "matched_segment_index": m.index if m else None,
                "midpoint_dist_m": featureio.round_metric(r.midpoint_dist),
                "hausdorff_m": featureio.round_metric(r.hausdorff),
                "angle_deg": featureio.round_metric(r.angle),
            },
        )


def test_segment_layer_from_columns_equals_the_layer_from_records():
    # streets and slanted, shifted partners, so distances, Hausdorff
    # distances and angles all differ; some segments stay unmatched
    specs_a = [(f"a{i}", [(0, 40 * i), (150, 40 * i + 3), (300, 40 * i)]) for i in range(6)]
    specs_b = [(f"b{i}", [(2.5 + 3 * j, 40 * i - 1.5 + j) for j in (0, 40)]) for i in range(6)]
    tables = match_tables(make_dataset("a", specs_a), make_dataset("b", specs_b), MatchConfig())
    for table in tables:
        records = table.records()
        assert 0 < sum(r.matched is not None for r in records) < len(records)
        assert any(r.matched and r.midpoint_dist != r.hausdorff for r in records)
        encoded = [featureio.encode(f) for f in _reference_segment_features(records)]
        assert feature_lines(pipeline._segment_lines(table)) == encoded


def _column_segment_features(table):
    # the layer as feature dicts built from the columns, one per row
    segs, targets = table.segments, table.targets
    for k, (x1, y1, x2, y2) in enumerate(segs.ends.tolist()):
        j = int(table.target[k])
        matched = j >= 0
        yield line_feature(
            [[round(x1, 6), round(y1, 6)], [round(x2, 6), round(y2, 6)]],
            {
                "edge_id": segs.edge_ids[segs.edge[k]],
                "segment_index": int(segs.index[k]),
                "length_m": featureio.round_metric(segs.length[k]),
                "matched": matched,
                "matched_edge_id": targets.edge_ids[targets.edge[j]] if matched else None,
                "matched_segment_index": int(targets.index[j]) if matched else None,
                "midpoint_dist_m": featureio.round_metric(table.midpoint_dist[k]) if matched else None,
                "hausdorff_m": featureio.round_metric(table.hausdorff[k]) if matched else None,
                "angle_deg": featureio.round_metric(table.angle[k]) if matched else None,
            },
        )


# edge ids the encoder must escape: quotes, backslashes, line breaks,
# control and non-ASCII characters
EDGE_ID = st.text(alphabet='ab"\\\n\x01\u00e9\u8857\u2028', min_size=1, max_size=4)


@st.composite
def jittered_networks(draw):
    # polylines running east, and a copy with every vertex moved by up to
    # 2 m, where some polylines are missing (their partners stay unmatched)
    x0, y0 = draw(st.sampled_from([(0.0, 0.0), (400000.0, 5800000.0), (-12.5, 3.75)]))
    step = st.tuples(st.floats(5.0, 40.0), st.floats(-40.0, 40.0))
    lines = draw(st.lists(st.lists(step, min_size=1, max_size=4), min_size=1, max_size=5))
    ids = draw(st.lists(EDGE_ID, min_size=2 * len(lines), max_size=2 * len(lines), unique=True))
    jitter = st.floats(-2.0, 2.0)
    specs_a, specs_b = [], []
    for i, steps in enumerate(lines):
        x, y = x0, y0 + 30.0 * i
        coords = [(x, y)]
        for dx, dy in steps:
            x, y = x + dx, y + dy
            coords.append((x, y))
        specs_a.append((ids[i], coords))
        if draw(st.booleans()):
            specs_b.append((ids[len(lines) + i], [(x + draw(jitter), y + draw(jitter)) for x, y in coords]))
    seg_len = draw(st.sampled_from([2.5, 7.3, 10.0]))
    return make_dataset("a", specs_a), make_dataset("b", specs_b), MatchConfig(seg_len=seg_len)


def segment_lines_by_blocks(table):
    # the layer with the default block of rows, and with blocks of 2 rows,
    # so the reuse of strings crosses block boundaries
    lines = "\n".join(feature_lines(pipeline._segment_lines(table)))
    with mock.patch.object(pipeline, "_LINE_BLOCK", 2):
        assert "\n".join(feature_lines(pipeline._segment_lines(table))) == lines
    return lines


@given(case=jittered_networks())
@settings(deadline=None)
def test_segment_lines_equal_the_encoded_features_of_matched_networks(case):
    for table in match_tables(*case):
        encoded = [featureio.encode(f) for f in _reference_segment_features(table.records())]
        assert segment_lines_by_blocks(table) == "\n".join(encoded)


# floats whose spelling is easy to get wrong: signed zeros, exponent reprs
# below 1e-4, half-way cases at 6 and 9 decimals, values at and above 1e16
# (where round returns its argument), and the non-finite values
AWKWARD = st.sampled_from(
    [
        0.0, -0.0, 5e-05, -3.4e-05, 5e-07, -5e-07, 1.5e-06, 2.5e-07, 5e-10, 1.5e-09, -2.5e-09,
        0.1234565, 1.0000005, 2.0000000005, 12.3456785, 400000.1234565, 1e16, -1e16, 2.5e17,
        1.2345678901234567e20, math.nan, math.inf, -math.inf,
    ]
) | st.floats()


@st.composite
def awkward_tables(draw):
    # a few values per table, both zeros among them, so rows repeat a value
    # or switch the sign of a zero; a start is drawn, or the previous end,
    # or that end with the signs of its zeros switched
    value = st.sampled_from(draw(st.lists(AWKWARD, max_size=3)) + [0.0, -0.0])
    ids = draw(st.lists(EDGE_ID, min_size=1, max_size=3))
    n = draw(st.integers(1, 12))
    ends, columns = [], []
    for k in range(n):
        start = draw(st.sampled_from(["drawn", "shared", "zeros switched"])) if k else "drawn"
        if start == "drawn":
            x1, y1 = draw(value), draw(value)
        else:
            x1, y1 = (-v if v == 0.0 and start == "zeros switched" else v for v in ends[-1][2:])
        ends.append((x1, y1, draw(value), draw(value)))
        columns.append(
            (
                draw(st.integers(0, len(ids) - 1)),
                draw(st.integers(0, 10**6)),
                draw(st.integers(-1, n - 1)),
                *(draw(value) for _ in range(4)),
            )
        )
    edge, index, target, length, md, h, ang = (np.array(c) for c in zip(*columns))
    segs = SegmentTable(ids, edge, index, np.array(ends, dtype=float), np.zeros(n), length.astype(float))
    counts = MatchCounts(n, 0, 0, 0, 0, int((target >= 0).sum()))
    return MatchTable(segs, segs, target, md.astype(float), h.astype(float), ang.astype(float), counts)


@given(table=awkward_tables())
def test_segment_lines_equal_the_encoder_on_awkward_floats(table):
    encoded = [featureio.encode(f) for f in _column_segment_features(table)]
    assert segment_lines_by_blocks(table) == "\n".join(encoded)


def _reference_component_features(g):
    # the component layer as feature dicts, one per edge of the graph
    for e, cid in zip(g.edges, g.component.tolist()):
        yield line_feature(
            polyline_coords(e.geometry),
            {"edge_id": e.id, "component_id": cid, "infra_category": e.infra_category},
            feature_id=e.id,
        )


# coordinates whose spelling is easy to get wrong (signed zeros, exponent
# reprs at 6 decimals, half-way cases), and any others in a city's range
COORD = st.sampled_from([0.0, -0.0, 5e-07, -3.4e-05, 1.5e-06, 0.1234565, 1.0000005, 12.3456785]) | st.floats(-1e4, 1e4)


@st.composite
def component_graphs(draw):
    # chains of 2-4 vertices around an origin; an edge may start within the
    # snap tolerance of an earlier edge's end, so that its endpoint snaps
    # onto that node and the two edges share a component
    x0, y0 = draw(st.sampled_from([(0.0, 0.0), (400000.0, 5800000.0), (-12.5, 3.75)]))
    tolerance = draw(st.sampled_from([0.0, 0.001, 5.0]))
    ids = draw(st.lists(EDGE_ID, min_size=1, max_size=6, unique=True))
    edges, ends = [], []
    for eid in ids:
        if ends and draw(st.booleans()):
            x, y = draw(st.sampled_from(ends))
            near = st.floats(-tolerance / 2, tolerance / 2)
            coords = [(x + draw(near), y + draw(near))]
        else:
            coords = [(x0 + draw(COORD), y0 + draw(COORD))]
        for _ in range(draw(st.integers(1, 3))):
            xy = (x0 + draw(COORD), y0 + draw(COORD))
            if xy != coords[-1]:
                coords.append(xy)
        if len(coords) < 2:
            coords.append((coords[0][0] + 1.0, coords[0][1]))
        category = draw(st.sampled_from(["protected", "unprotected", 'a "quoted" one', "stra\u00dfe"]))
        edges.append(make_edge(eid, coords, infra=category))
        ends.append(coords[-1])
    return graph.build_graph(Dataset("d", edges), tolerance)


@given(g=component_graphs())
@settings(deadline=None)
def test_component_lines_equal_the_encoded_features_of_the_graph(g):
    encoded = [featureio.encode(f) for f in _reference_component_features(g)]
    assert feature_lines(pipeline._component_lines(g)) == encoded
    # blocks of 2 bytes: one edge a block
    with mock.patch.object(pipeline, "_LINE_BLOCK", 2):
        assert list(map(bytes, pipeline._component_lines(g))) == [line.encode() for line in encoded]


def _reference_point_feature(x, y, properties):
    # the Point feature dict the undershoot layer once built
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [round(x, 6), round(y, 6)]},
        "properties": properties,
    }


def _reference_polygon_feature(ring, properties):
    # the Polygon feature dict the grid and LISA layers once built, its one
    # ring closed by its first vertex
    closed = [[round(v.x, 6), round(v.y, 6)] for v in ring]
    closed.append(closed[0])
    return {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [closed]}, "properties": properties}


def _reference_undershoot_features(g, undershoots):
    for u in undershoots:
        x, y = g.nodes[u.node_id].tolist()
        properties = {"node_id": u.node_id, "nearest_edge_id": u.nearest_edge_id}
        properties["gap_m"] = featureio.round_metric(u.gap_distance)
        yield _reference_point_feature(x, y, properties)


def _reference_lisa_features(grid, lisa):
    for cell in lisa.local_i:
        yield _reference_polygon_feature(
            grid.cells[cell].polygon,
            {
                "cell_id": f"{cell[0]},{cell[1]}",
                "local_i": featureio.round_metric(lisa.local_i[cell], 12),
                "quadrant": lisa.quadrant[cell],
                "pseudo_p": featureio.round_metric(lisa.pseudo_p[cell], 6),
                "significant": lisa.significant[cell],
            },
        )


def _reference_grid_features(grid, grid_fields):
    names = sorted(grid_fields)
    for cell_id in sorted(grid.cells):
        props = {"cell_id": f"{cell_id[0]},{cell_id[1]}", "q": cell_id[0], "r": cell_id[1]}
        for name in names:
            value = grid_fields[name].get(cell_id)
            props[name] = featureio.round_metric(value, 9) if value is not None else None
        yield _reference_polygon_feature(grid.cells[cell_id].polygon, props)


def lines_by_blocks(layer):
    # a layer's lines in the default blocks, and with one line a block
    lines = feature_lines(layer())
    with mock.patch.object(pipeline, "_LINE_BLOCK", 2):
        assert [bytes(block).decode("ascii") for block in layer()] == lines
    return lines


@st.composite
def cell_layers(draw):
    # a grid of drawn cells, negative q and r among them, around an origin;
    # grid fields holding None, NaN, ints and awkward floats for some cells,
    # named to sort before or after cell_id, q and r, to need escaping, or
    # as q itself; and a LISA result over some of the cells in any order
    x0, y0 = draw(st.sampled_from([(0.0, 0.0), (400000.0, 5800000.0), (-12.5, 3.75)]))
    proto = HexGrid(Point2D(x0, y0), draw(st.sampled_from([740000.0, 10000.0, 2.5])), cells={})
    ids = draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=10, unique=True))
    cells = {c: HexCell(center=cell_center(proto, *c), polygon=cell_polygon(proto, *c)) for c in ids}
    grid = HexGrid(proto.origin, proto.cell_area, cells)
    value = AWKWARD | st.none() | st.integers(-(2**70), 2**70)
    names = ["a", "density_difference", "q", 'tag_"x"', "tag_stra\u00dfe", "zz"]
    names = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
    fields = {name: {c: draw(value) for c in ids if draw(st.booleans())} for name in names}
    order = draw(st.permutations(ids))[: draw(st.integers(0, len(ids)))]
    quadrant = st.sampled_from(["HH", "HL", "LH", "LL", 'a "q"', "stra\u00dfe"])
    lisa = spatial.LisaResult(
        local_i={c: draw(AWKWARD) for c in order},
        quadrant={c: draw(quadrant) for c in order},
        pseudo_p={c: draw(AWKWARD) for c in order},
        significant={c: draw(st.booleans()) for c in order},
        alpha=0.05,
        n_permutations=9,
        seed=0,
        scheme="knn6",
    )
    return grid, fields, lisa


@given(case=cell_layers())
@settings(deadline=None)
def test_grid_and_lisa_lines_equal_the_encoded_features(case):
    grid, fields, lisa = case
    cell_text = cache(partial(pipeline._cell_text, grid))
    grid_lines = lines_by_blocks(partial(pipeline._grid_lines, cell_text, fields))
    assert grid_lines == [featureio.encode(f) for f in _reference_grid_features(grid, fields)]
    lisa_lines = lines_by_blocks(partial(pipeline._lisa_lines, cell_text, lisa))
    assert lisa_lines == [featureio.encode(f) for f in _reference_lisa_features(grid, lisa)]


@st.composite
def undershoot_layers(draw):
    # none or a few undershoots at the nodes of a stand-in graph, with
    # quoted and non-ASCII nearest edge ids and awkward gaps and coordinates
    x0, y0 = draw(st.sampled_from([(0.0, 0.0), (400000.0, 5800000.0), (-12.5, 3.75)]))
    node_ids = draw(st.lists(st.integers(0, 10**12), max_size=6, unique=True))
    at = {i: (x0 + draw(COORD), y0 + draw(COORD)) for i in node_ids}
    undershoots = [Undershoot(i, draw(EDGE_ID), draw(AWKWARD)) for i in node_ids]
    return SimpleNamespace(nodes=_NodeTable(at)), undershoots


class _NodeTable:
    """Node locations indexed by id as ``Graph.nodes`` is, for ids too
    large to index an array."""

    def __init__(self, at):
        self.at = at

    def __getitem__(self, ids):
        return np.array([self.at[i] for i in np.ravel(ids).tolist()], dtype=float).reshape(np.shape(ids) + (2,))


@given(case=undershoot_layers())
def test_undershoot_lines_equal_the_encoded_features(case):
    g, undershoots = case
    lines = lines_by_blocks(partial(pipeline._undershoot_lines, g, undershoots))
    assert lines == [featureio.encode(f) for f in _reference_undershoot_features(g, undershoots)]


def test_a_layer_without_features_yields_no_block():
    # as write_feature_collection of no features, the file is header and footer
    grid = hexgrid.build_grid(ingest.load_study_area(DEMO / "study_area.geojson"), 740000.0)
    lisa = spatial.LisaResult({}, {}, {}, {}, 0.05, 9, 0, "knn6")
    assert list(pipeline._lisa_lines(cache(partial(pipeline._cell_text, grid)), lisa)) == []
    assert list(pipeline._undershoot_lines(SimpleNamespace(nodes=np.empty((0, 2))), [])) == []


def test_a_full_run_spells_the_grid_rings_once(tmp_path, monkeypatch):
    calls = []
    real = pipeline._cell_text

    def counting(grid):
        calls.append(grid)
        return real(grid)

    monkeypatch.setattr(pipeline, "_cell_text", counting)
    pipe = Pipeline(RunConfig.from_file(demo_config(tmp_path)))
    written = pipe.run_stage("full")
    assert sum(name.startswith("lisa_") for name in written) > 1 and "grid_metrics.geojson" in written
    assert calls == [pipe.grid()]


def test_match_run_builds_no_segment_feature_dicts(tmp_path, monkeypatch):
    calls = Counter()
    real = featureio.encode

    def counting(value):
        if isinstance(value, dict) and value.get("type") == "Feature":
            calls["feature"] += 1
        return real(value)

    monkeypatch.setattr(featureio, "encode", counting)
    config = str(demo_config(tmp_path))
    assert cli_main(["match", "--config", config, "--out", str(tmp_path / "match")]) == 0
    assert (tmp_path / "match" / "segments_candidate.geojson").stat().st_size > 10**5
    assert calls["feature"] == 0
    # nor does a structure run encode component feature dicts
    assert cli_main(["structure", "--config", config, "--out", str(tmp_path / "structure")]) == 0
    assert (tmp_path / "structure" / "components_candidate.geojson").stat().st_size > 10**3
    assert calls["feature"] == 0
    # the counter sees a feature encoded through featureio, as the layers
    # once encoded theirs: one call per edge of the reference component features
    g = Pipeline(RunConfig.from_file(config)).graphs()["candidate"]
    encoded = [featureio.encode(f) for f in _reference_component_features(g)]
    assert len(encoded) == calls["feature"] == len(g.edges) > 0


@pytest.mark.parametrize("tiny", [1e-15, -1e-15, 4e-10])
def test_a_difference_that_rounds_to_zero_counts_on_neither_side(tmp_path, monkeypatch, tiny):
    def counts(value):
        real = completeness.density_difference

        def set_first_cell(a, b):
            diff = real(a, b)
            diff[next(iter(diff))] = value
            return diff

        with monkeypatch.context() as m:
            m.setattr(completeness, "density_difference", set_first_cell)
            pipe = Pipeline(RunConfig.from_file(demo_config(tmp_path), out_override=tmp_path / "out"))
            pipe.run_stage("density")
        summary = pipe.summary["density"]
        written = [
            f["properties"]["density_difference"]
            for f in json.loads((tmp_path / "out" / "grid_metrics.geojson").read_text())["features"]
        ]
        assert summary["cells_more_candidate"] == sum(1 for v in written if v is not None and v < 0)
        assert summary["cells_more_reference"] == sum(1 for v in written if v is not None and v > 0)
        return summary["cells_more_candidate"], summary["cells_more_reference"]

    assert counts(tiny) == counts(0.0)
    more_candidate, more_reference = counts(0.0)
    assert counts(1.0) == (more_candidate, more_reference + 1)


def test_polygon_names_with_commas_quotes_and_line_breaks_round_trip(tmp_path):
    doc = json.loads((DEMO / "districts.geojson").read_text())
    names = ['Mitte, "Nord"', "Ost\nSüd"]
    for feature, name in zip(doc["features"], names):
        feature["properties"]["name"] = name
    districts = tmp_path / "districts.geojson"
    districts.write_text(json.dumps(doc))
    cfg = RunConfig.from_file(demo_config(tmp_path, polygons=str(districts)), out_override=tmp_path / "out")
    Pipeline(cfg).run_stage("density")
    with open(tmp_path / "out" / "polygons.csv", encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(header) == 7 and all(len(row) == 7 for row in rows)
    assert sorted(row[0] for row in rows) == sorted(names)


def test_run_info_records_each_weights_build(tmp_path, caplog):
    base = ["--config", str(DEMO / "config.json"), "--out"]
    with caplog.at_level(logging.DEBUG, logger="netqa.pipeline"):
        assert cli_main(["-v", "full"] + base + [str(tmp_path / "full")]) == 0
    assert not any(b'"nnz"' in data for data in read_outputs(tmp_path / "full").values())
    work = json.loads((tmp_path / "full" / "run_info.json").read_text())["work"]
    assert f"work: {json.dumps(work, sort_keys=True)}" in caplog.text
    pipe = Pipeline(RunConfig.from_file(DEMO / "config.json"))
    builds = {}  # weights objects in build order
    for result in pipe.autocorr().values():
        w = result["weights"]
        builds.setdefault(id(w), {"cells": w.n, "nnz": sum(len(row) for row in w.neighbors)})
    assert work["weights"] == {"knn6": list(builds.values())}
    assert all(b["nnz"] >= 6 * b["cells"] for b in builds.values())
    assert cli_main(["structure"] + base + [str(tmp_path / "s")]) == 0
    assert "weights" not in json.loads((tmp_path / "s" / "run_info.json").read_text())["work"]


def test_run_info_records_the_metrics_of_each_weights_build(tmp_path, monkeypatch, caplog):
    with caplog.at_level(logging.DEBUG, logger="netqa.pipeline"):
        out = run_demo_from_copy(tmp_path, monkeypatch, [{"scheme": "distance_band", "distance_m": 280.0}])
    work = json.loads((out / "run_info.json").read_text())["work"]
    assert f"work: {json.dumps(work, sort_keys=True)}" in caplog.text
    pipe = Pipeline(RunConfig.from_file(tmp_path / "demo" / "config.json"))
    groups = {}  # scheme -> weights object -> metrics, in build order
    for (label, metric), result in pipe.autocorr().items():
        groups.setdefault(label, {}).setdefault(id(result["weights"]), []).append(metric)
    assert work["autocorr"] == {label: list(builds.values()) for label, builds in groups.items()}
    # one list per weights build, in the order of work.weights
    assert {label: len(lists) for label, lists in work["autocorr"].items()} == {
        label: len(builds) for label, builds in work["weights"].items()
    }
    assert any(len(metrics) > 1 for lists in work["autocorr"].values() for metrics in lists)
    assert cli_main(["structure", "--config", str(DEMO / "config.json"), "--out", str(tmp_path / "s")]) == 0
    assert "autocorr" not in json.loads((tmp_path / "s" / "run_info.json").read_text())["work"]


def _shifted(doc, dx, dy):
    def shift(c):
        return [c[0] + dx, c[1] + dy] if isinstance(c[0], (int, float)) else [shift(part) for part in c]

    for feature in doc["features"]:
        feature["geometry"]["coordinates"] = shift(feature["geometry"]["coordinates"])
    return doc


def _metrics(work: Path, dx: float, dy: float):
    """Density, structure, matching and tag results of the demo with every
    input, the study area included, translated by (dx, dy)."""
    work.mkdir()
    for name in ("candidate.geojson", "reference.geojson", "study_area.geojson", "districts.geojson"):
        doc = _shifted(json.loads((DEMO / name).read_text()), dx, dy)
        (work / name).write_text(json.dumps(doc))
    shutil.copy(DEMO / "rules.json", work / "rules.json")
    doc = json.loads((DEMO / "config.json").read_text())
    del doc["population"]  # keyed by cell id, which translation keeps
    (work / "config.json").write_text(json.dumps(doc))
    pipe = Pipeline(RunConfig.from_file(work / "config.json"))
    pipe.density()
    pipe.structure()
    pipe.matching_results()
    pipe.tag_shares()
    summaries = {key: pipe.summary[key] for key in ("density", "structure", "matching", "tags")}
    return summaries, pipe.grid_fields, pipe.grid()


def _assert_close(a, b, path=""):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_close(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, float) or isinstance(b, float):
        # summaries round to 6 decimals, so a value may move by one unit there
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=2e-6), (path, a, b)
    else:
        assert a == b, (path, a, b)


@pytest.fixture(scope="module")
def untranslated_metrics(tmp_path_factory):
    return _metrics(tmp_path_factory.mktemp("demo") / "in", 0.0, 0.0)


def _outside_study_area(cell, dx, dy, tol=1e-6):
    # the demo's study area is the rectangle (0, 0)-(2000, 1000)
    xs = [v.x - dx for v in cell.polygon]
    ys = [v.y - dy for v in cell.polygon]
    return max(ys) <= tol or min(ys) >= 1000.0 - tol or max(xs) <= tol or min(xs) >= 2000.0 - tol


@settings(max_examples=30, deadline=None)
@given(dx=st.floats(-1e6, 1e6), dy=st.floats(-1e6, 1e6))
@example(dx=0.0, dy=1.563990435803101e-91)  # drops the row of cells touching the bottom side
def test_translating_every_input_keeps_the_metrics(untranslated_metrics, dx, dy):
    base, base_fields, base_grid = untranslated_metrics
    with tempfile.TemporaryDirectory() as tmp:
        got, fields, grid = _metrics(Path(tmp) / "in", dx, dy)
    # Three counts follow rounding, not the data. The lattice is anchored at
    # the study area's corner, so a row of hexagons touches its bottom side
    # exactly, and whether such a cell counts as intersecting depends on the
    # last bit: these cells may come and go, and only they.
    for q_r in set(base_grid.cells) ^ set(grid.cells):
        cell = base_grid.cells[q_r] if q_r in base_grid.cells else grid.cells[q_r]
        assert _outside_study_area(cell, *((0.0, 0.0) if q_r in base_grid.cells else (dx, dy))), q_r
    assert abs(got["density"].pop("grid_cells_total") - base["density"]["grid_cells_total"]) <= len(
        set(base_grid.cells) ^ set(grid.cells)
    )
    # A cell whose two densities agree up to rounding has a difference of
    # either sign, or none, so it may move between these two counts.
    ties = sum(
        1
        for cell, v in base_fields["density_difference"].items()
        if abs(v) <= 1e-9 or abs(fields["density_difference"].get(cell, 0.0)) <= 1e-9
    )
    for key in ("cells_more_candidate", "cells_more_reference"):
        assert abs(got["density"].pop(key) - base["density"][key]) <= ties, key
    _assert_close({**base, "density": {k: v for k, v in base["density"].items() if k in got["density"]}}, got)
    _assert_close(base_fields, fields)


def test_full_run_clips_each_geometry_once(tmp_path, monkeypatch):
    # every (piece, candidate cell) row the clip kernel evaluates, as
    # (piece start, piece end, cell center)
    calls = []
    real = hexgrid.HexGrid._clip_rows

    def counting(self, v, k, cell):
        ends = (v.x[k], v.y[k], v.x[k + 1], v.y[k + 1], self._center_x[cell], self._center_y[cell])
        calls.extend(zip(*(a.tolist() for a in ends)))
        return real(self, v, k, cell)

    monkeypatch.setattr(hexgrid.HexGrid, "_clip_rows", counting)
    pipe = Pipeline(RunConfig.from_file(demo_config(tmp_path), out_override=tmp_path / "out"))
    pipe.run_stage("full")
    in_run = sorted(calls)
    calls.clear()
    grid = pipe.grid()
    fresh = hexgrid.HexGrid(grid.origin, grid.cell_area, grid.cells)
    for geometry in {edge.geometry for dataset in pipe.datasets().values() for edge in dataset.edges}:
        fresh.clip_polyline(geometry)
    assert calls
    assert in_run == sorted(calls)


# --------------------------------------------------------------------- CLI


def test_cli_validate_ok(capsys):
    assert cli_main(["validate", "--config", str(DEMO / "config.json")]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_missing_file(tmp_path, capsys):
    cfg_path = demo_config(tmp_path, candidate={"name": "x", "path": "gone.geojson"})
    assert cli_main(["validate", "--config", str(cfg_path)]) == 2
    assert "gone.geojson" in capsys.readouterr().err


def test_cli_validate_reports_a_missing_rules_role_once(tmp_path, capsys):
    rules = json.loads((DEMO / "rules.json").read_text())
    del rules["reference"]
    (tmp_path / "rules.json").write_text(json.dumps(rules))
    cfg_path = demo_config(tmp_path)
    doc = json.loads(cfg_path.read_text())
    doc["rules"] = str(tmp_path / "rules.json")
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["validate", "--config", str(cfg_path)]) == 2
    problems = capsys.readouterr().err.splitlines()
    assert problems == ["problem: stage 'ingest' failed: rules file has no entry for role 'reference'"]


def test_cli_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        cli_main(["frobnicate", "--config", "x"])
    assert exc.value.code == 2


def test_cli_full_run_and_out_override(tmp_path, capsys):
    code = cli_main(
        ["full", "--config", str(DEMO / "config.json"), "--out", str(tmp_path / "cli-out")]
    )
    assert code == 0
    assert (tmp_path / "cli-out" / "summary.json").exists()
    assert "summary.json" in capsys.readouterr().out


def test_cli_structure_only(tmp_path):
    code = cli_main(
        ["structure", "--config", str(DEMO / "config.json"), "--out", str(tmp_path / "s-out")]
    )
    assert code == 0
    names = {p.name for p in (tmp_path / "s-out").iterdir()}
    assert "undershoots_candidate.geojson" in names
    assert "segments_candidate.geojson" not in names


def test_cli_accepts_and_ignores_threads(tmp_path):
    # benchmark and older command lines still pass --threads
    base = ["full", "--config", str(DEMO / "config.json"), "--out"]
    assert cli_main(base + [str(tmp_path / "a"), "--threads", "2"]) == 0
    assert cli_main(base + [str(tmp_path / "b")]) == 0
    assert read_outputs(tmp_path / "a") == read_outputs(tmp_path / "b")
    assert "threads" not in json.loads((tmp_path / "a" / "run_info.json").read_text())
    # a config file that still sets the old key loads
    RunConfig.from_file(demo_config(tmp_path, threads=4))


def test_run_info_records_matching_counts_outside_compared_outputs(tmp_path, caplog):
    base = ["full", "--config", str(DEMO / "config.json"), "--out"]
    assert cli_main(base + [str(tmp_path / "quiet")]) == 0
    with caplog.at_level(logging.DEBUG, logger="netqa.pipeline"):
        assert cli_main(["-v"] + base + [str(tmp_path / "verbose")]) == 0
    outputs = read_outputs(tmp_path / "quiet")
    assert outputs == read_outputs(tmp_path / "verbose")
    assert not any(b"pairs_within_max_dist" in data for data in outputs.values())
    summary = json.loads(outputs["summary.json"])
    run_info = json.loads((tmp_path / "quiet" / "run_info.json").read_text())
    assert set(run_info["matching"]) == {"candidate", "reference"}
    for role, c in run_info["matching"].items():
        assert c["pairs_within_max_dist"] == c["rejected_hausdorff"] + c["rejected_angle"] + c["accepted_pairs"]
        assert 0 < c["matched_segments"] <= min(c["accepted_pairs"], c["segments"])
        assert c["segments"] == summary["matching"][role]["segments"]
        assert c["matched_segments"] == summary["matching"][role]["matched_segments"]
        assert f"match {role}: {c['segments']} segments, {c['pairs_within_max_dist']} pairs" in caplog.text
    # a run that does not match records no matching counts
    assert cli_main(["structure", "--config", str(DEMO / "config.json"), "--out", str(tmp_path / "s")]) == 0
    assert "matching" not in json.loads((tmp_path / "s" / "run_info.json").read_text())


def test_run_info_records_work_and_a_tags_run_clips_only_the_candidate(tmp_path, caplog):
    base = ["--config", str(DEMO / "config.json"), "--out"]
    with caplog.at_level(logging.DEBUG, logger="netqa.pipeline"):
        assert cli_main(["-v", "full"] + base + [str(tmp_path / "full")]) == 0
    outputs = read_outputs(tmp_path / "full")
    assert not any(b'"clips"' in data or b'"work"' in data for data in outputs.values())
    summary = json.loads(outputs["summary.json"])
    work = json.loads((tmp_path / "full" / "run_info.json").read_text())["work"]
    assert f"work: {json.dumps(work, sort_keys=True)}" in caplog.text
    pipe = Pipeline(RunConfig.from_file(DEMO / "config.json"))
    grid = pipe.grid()
    assert work["grid_cells"] == summary["density"]["grid_cells_total"] == len(grid.cells)
    for role, ds in pipe.datasets().items():
        assert work[role] == {
            "edges": summary["density"]["totals"][role]["edge_count"],
            "clips": sum(len(reference_clip_polyline(grid, e.geometry)) for e in ds.edges),
            "segments": summary["matching"][role]["segments"],
        }
    assert cli_main(["tags"] + base + [str(tmp_path / "tags")]) == 0
    work = json.loads((tmp_path / "tags" / "run_info.json").read_text())["work"]
    assert "clips" in work["candidate"] and "clips" not in work["reference"]
    assert "segments" not in work["candidate"]


def test_run_info_records_each_files_bytes_and_write_seconds(tmp_path, caplog):
    with caplog.at_level(logging.DEBUG, logger="netqa.pipeline"):
        assert cli_main(["-v", "full", "--config", str(DEMO / "config.json"), "--out", str(tmp_path / "out")]) == 0
    out = tmp_path / "out"
    run_info = json.loads((out / "run_info.json").read_text())
    sizes = {p.name: p.stat().st_size for p in out.iterdir() if p.name != "run_info.json"}
    assert run_info["work"]["file_bytes"] == sizes
    seconds = run_info["write_seconds"]
    assert set(seconds) == set(sizes) and all(sec >= 0.0 for sec in seconds.values())
    assert sum(seconds.values()) <= run_info["stage_seconds"]["write"] + 1e-4  # each rounded to 1e-6
    for name, size in sizes.items():
        assert f"write {name}: {size} bytes, " in caplog.text


STAGE_MODULES = {"netqa.graph", "netqa.matching", "netqa.spatial", "netqa.tags", "netqa.spindex"}


def launch(*args) -> tuple[dict, str]:
    """``cli.main(args)`` in a fresh interpreter: its status, the netqa
    modules it imported and the dataclasses they define, and its standard error."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(pipeline.__file__).parents[1])!r})\n"
        "from netqa import cli\n"
        f"status = cli.main({list(args)!r})\n"
        "modules = {k: m for k, m in sys.modules.items() if k.startswith('netqa.')}\n"
        "made = [f'{k}.{n}' for k, m in modules.items() for n, v in vars(m).items()\n"
        "        if isinstance(v, type) and v.__module__ == k and '__dataclass_fields__' in vars(v)]\n"
        "print(json.dumps({'status': status, 'modules': sorted(modules), 'dataclasses': sorted(made)}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_a_launch_imports_only_the_stage_modules_of_its_subcommand(tmp_path):
    config = ["--config", str(DEMO / "config.json")]
    for stage in ("density", "validate"):
        got, _ = launch(stage, *config, "--out", str(tmp_path / stage))
        assert got["status"] == 0 and "netqa.pipeline" in got["modules"]
        assert not set(got["modules"]) & STAGE_MODULES, stage
        # no dataclass is generated on the way: the types these stages build are plain classes
        assert got["dataclasses"] == [], stage
    got, _ = launch("full", *config, "--out", str(tmp_path / "full"))
    assert got["status"] == 0 and STAGE_MODULES <= set(got["modules"])
    assert "netqa.matching.MatchCounts" in got["dataclasses"]  # read by asdict


def test_importtime_lists_the_stage_module_a_subcommand_loads(tmp_path):
    # CI reads -X importtime's log to see that density loads no stage
    # module; a stage module that structure loads must show in that log
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(pipeline.__file__).parents[1])!r})\n"
        "from netqa import cli\n"
        f"sys.exit(cli.main(['structure', '--config', {str(DEMO / 'config.json')!r}, '--out', {str(tmp_path)!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], capture_output=True, text=True, check=True)
    assert re.search(r"\| +netqa\.graph$", proc.stderr, re.MULTILINE)


def test_peak_rss_is_the_run_s_own_not_its_launcher_s(tmp_path):
    # a launcher holding 100 MB of written pages: ru_maxrss would carry
    # them across the exec into the run's figure
    held = bytes(range(256)) * (100 * 10**6 // 256)
    got, _ = launch("density", "--config", str(DEMO / "config.json"), "--out", str(tmp_path / "out"))
    del held
    run_info = json.loads((tmp_path / "out" / "run_info.json").read_text())
    assert got["status"] == 0 and 0.0 < run_info["peak_rss_mb"] < 100.0


def test_run_info_records_the_memory_after_each_stage_that_ran(tmp_path, caplog):
    with caplog.at_level(logging.DEBUG, logger="netqa.pipeline"):
        assert cli_main(["density", "--config", str(DEMO / "config.json"), "--out", str(tmp_path / "out")]) == 0
    run_info = json.loads((tmp_path / "out" / "run_info.json").read_text())
    memory = run_info["stage_rss_mb"]
    assert set(memory) == set(run_info["stage_seconds"]) == {"ingest", "grid", "density", "write"}
    for stage, m in memory.items():
        assert set(m) == {"rss", "hwm"} and m["hwm"] >= m["rss"] > 0.0, stage
        assert m == {key: round(value, 1) for key, value in m.items()}
        assert f"stage {stage}: " in caplog.text and f"s, RSS {m['rss']} MB, peak {m['hwm']} MB" in caplog.text
    assert run_info["peak_rss_mb"] == memory["write"]["hwm"]


def test_memory_figures_leave_every_other_output_unchanged(tmp_path, monkeypatch):
    written = {}
    for figure in (1.0, 2000.0):
        monkeypatch.setattr(pipeline, "_memory_mb", lambda: {"rss": figure, "hwm": figure})
        out = tmp_path / str(figure)
        assert cli_main(["full", "--config", str(DEMO / "config.json"), "--out", str(out)]) == 0
        written[figure] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_info.json"}
        run_info = json.loads((out / "run_info.json").read_text())
        assert run_info["stage_rss_mb"] == dict.fromkeys(run_info["stage_seconds"], {"rss": figure, "hwm": figure})
    assert written[1.0] == written[2000.0]


def test_a_run_builds_no_polyline(tmp_path, monkeypatch):
    # an ingested edge is a row of its dataset's vertex arrays; only the
    # record views that tests import build its Polyline
    built = []
    init = Polyline.__init__
    monkeypatch.setattr(Polyline, "__init__", lambda self, vertices: built.append(init(self, vertices)))
    assert cli_main(["full", "--config", str(DEMO / "config.json"), "--out", str(tmp_path / "full")]) == 0
    ragged = write_ragged_demo(tmp_path / "ragged")
    assert cli_main(["density", "--config", str(ragged / "config.json"), "--out", str(tmp_path / "density")]) == 0
    assert built == []


def test_run_info_records_the_start_up_before_the_first_stage(tmp_path):
    out = tmp_path / "out"
    start = time.perf_counter()
    got, err = launch("-v", "density", "--config", str(DEMO / "config.json"), "--out", str(out))
    wall = time.perf_counter() - start
    run_info = json.loads((out / "run_info.json").read_text())
    assert got["status"] == 0 and 0.0 < run_info["import_seconds"] < wall
    assert re.search(r"^DEBUG netqa\.pipeline: import: \d+\.\d{3} s$", err, re.MULTILINE)


def test_cli_structure_rejects_duplicate_feature_ids(tmp_path, capsys):
    doc = json.loads((DEMO / "candidate.geojson").read_text())
    doc["features"][1]["id"] = doc["features"][0]["id"]
    dup_path = tmp_path / "candidate.geojson"
    dup_path.write_text(json.dumps(doc))
    cfg_path = demo_config(tmp_path, candidate={"name": "crowd", "path": str(dup_path)})
    assert cli_main(["structure", "--config", str(cfg_path)]) == 1
    assert f"duplicate feature id(s): {doc['features'][0]['id']}" in capsys.readouterr().err


def test_cli_nonexistent_config(capsys):
    assert cli_main(["full", "--config", "/nonexistent/config.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_full_with_missing_input_names_path(tmp_path, capsys):
    cfg_path = demo_config(tmp_path, candidate={"name": "x", "path": "absent.geojson"})
    assert cli_main(["full", "--config", str(cfg_path)]) != 0
    err = capsys.readouterr().err
    assert "absent.geojson" in err
    # aborted run leaves no outputs behind
    assert not (tmp_path / "out").exists()
