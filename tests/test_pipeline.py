import json
import logging
from pathlib import Path

import pytest

from netqa import featureio, hexgrid, spatial
from netqa.cli import main as cli_main
from netqa.errors import ConfigError, PipelineError
from netqa.pipeline import Pipeline, RunConfig, run_pipeline

DEMO = Path(__file__).parent / "data" / "demo"


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
    # stage timings go to run_info.json and the debug log only
    stages = {"ingest", "grid", "graph", "density", "structure", "match", "tags", "autocorr"}
    run_info = json.loads((tmp_path / "out" / "run_info.json").read_text())
    assert set(run_info["stage_seconds"]) == stages
    assert all(sec >= 0.0 for sec in run_info["stage_seconds"].values())
    assert "stage autocorr:" in caplog.text


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


def test_full_run_clips_each_geometry_once(tmp_path, monkeypatch):
    calls = []
    real = hexgrid._clip_piece_to_hex

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hexgrid, "_clip_piece_to_hex", counting)
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
            "clips": sum(len(grid.clip_polyline(e.geometry)) for e in ds.edges),
            "segments": summary["matching"][role]["segments"],
        }
    assert cli_main(["tags"] + base + [str(tmp_path / "tags")]) == 0
    work = json.loads((tmp_path / "tags" / "run_info.json").read_text())["work"]
    assert "clips" in work["candidate"] and "clips" not in work["reference"]
    assert "segments" not in work["candidate"]


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
