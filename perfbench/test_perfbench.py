"""Self-tests of the benchmark: generator, self-time arithmetic, output check.

    python3 -m pytest perfbench -q

Run from the repository root; the output-check test runs netqa from src/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
from check import check_outputs, digest
from generate import Workload, generate
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
TINY = Workload("tiny", "full", 1, 600.0, 20000.0, 19, 0, 4, 4)
TINY_RAGGED = Workload("tiny-ragged", "density", 1, 600.0, 20000.0, 19, 200, 3, 50)


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("w", [TINY, TINY_RAGGED])
def test_generator_is_deterministic_per_seed(tmp_path, w):
    generate(w, 5, tmp_path / "a")
    generate(w, 5, tmp_path / "b")
    generate(w, 6, tmp_path / "c")
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a == b
    assert a["candidate.geojson"] != c["candidate.geojson"]
    assert a["reference.geojson"] != c["reference.geojson"]


def test_generated_ids_are_unique(tmp_path):
    generate(TINY, 5, tmp_path)
    for name in ("candidate.geojson", "reference.geojson"):
        ids = [f["id"] for f in json.loads((tmp_path / name).read_text())["features"]]
        assert len(ids) == len(set(ids))


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a, as on a parallel thread
        ["leaf", 2.0, 3.0, 1],
        ["a", 7.0, 8.0, 0],
        ["other", 20.0, 21.0, -1],
    ]
    selfs = self_times(spans)
    assert selfs["root"] == (10.0 - 5.0 - 1.0, 1)  # children cover [1, 6] and [7, 8]
    assert selfs["a"] == (2.0 + 1.0, 2)
    assert selfs["b"] == (3.0, 1)
    assert selfs["leaf"] == (1.0, 1)
    assert selfs["other"] == (1.0, 1)


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1, after=lambda t, res, args: t.count("seen", res))
    outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 5
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counters["seen"] == 5
    assert self_times(tracer.spans)["outer"] == (5.0 - 2.0, 1)


def test_counter_failure_does_not_break_the_call():
    tracer = Tracer()

    def broken(t, res, args):
        raise AttributeError("no such field")

    assert tracer.wrap("f", lambda: 7, after=broken)() == 7
    assert tracer.observe("g", lambda: 8, broken)() == 8
    assert set(tracer.errors) == {"f", "g"}


def test_install_reports_only_absent_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setitem(layers.SPANS, "tags", ("tag_share", "no_such_function"))
    assert layers.install(Tracer()) == ["tags.no_such_function"]


def _netqa(w: Workload, in_dir: Path, out_dir: Path) -> None:
    cmd = [sys.executable, "-m", "netqa.cli", w.stage, "--config", str(in_dir / "config.json"), "--out", str(out_dir)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(cmd, check=True, cwd=ROOT, env=env, capture_output=True)


def _rewrite_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _scale_first_density(doc):
    for feat in doc["features"]:
        if feat["properties"]["density_candidate"]:
            feat["properties"]["density_candidate"] *= 1.01
            return


def _pct_above_100(doc):
    doc["features"][0]["properties"]["tag_lit"] = 100.5


def _total_km(doc):
    doc["density"]["totals"]["reference"]["total_km"] += 0.01


def _drop_lisa(out: Path):
    (out / "lisa_knn6_tag_lit.geojson").unlink()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda out: _rewrite_json(out / "grid_metrics.geojson", _scale_first_density),
        lambda out: _rewrite_json(out / "grid_metrics.geojson", _pct_above_100),
        lambda out: _rewrite_json(out / "summary.json", _total_km),
        _drop_lisa,
    ],
    ids=["conservation", "percent-range", "generated-total", "file-set"],
)
def test_output_check_rejects_corrupted_copy(tmp_path, corrupt):
    expected = generate(TINY, 3, tmp_path / "in")
    _netqa(TINY, tmp_path / "in", tmp_path / "out")
    assert check_outputs(TINY, tmp_path / "out", expected) == []

    shutil.copytree(tmp_path / "out", tmp_path / "bad")
    corrupt(tmp_path / "bad")
    assert check_outputs(TINY, tmp_path / "bad", expected) != []
    assert digest(tmp_path / "bad") != digest(tmp_path / "out")


def test_digest_ignores_run_info(tmp_path):
    generate(TINY_RAGGED, 3, tmp_path / "in")
    _netqa(TINY_RAGGED, tmp_path / "in", tmp_path / "out")
    before = digest(tmp_path / "out")
    (tmp_path / "out" / "run_info.json").write_text("{}")
    assert digest(tmp_path / "out") == before


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = list(layers.metrics([], {}, 1.0)) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
