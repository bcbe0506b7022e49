"""Pipeline orchestration: one config file in, all tables and layers out.

Stages run in dependency order (ingest, graph, grid, density, structure,
matching, tags, autocorrelation); each subcommand executes only its stage
plus prerequisites. A stage registers each output layer as a producer: a
zero-argument callable returning an iterable of blocks of encoded feature
lines, spelled from columns of the stage's results by a speller in the
module that computed them (``featureio`` holds the block helpers they
share). All files are written together at the end (the ``write`` stage),
each layer streamed from its producer while its file is written, so no
layer is held in memory whole. They go into a temporary directory beside
the output directory and are moved into place only once all of them are
written, so neither a failing stage nor a failed write leaves partial
files behind or destroys a previous run's results. Output files carry no
timestamps; run metadata (stage timings including ``write``, peak RSS,
work sizes) lives in ``run_info.json``, excluded from golden comparisons.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import sys
import tempfile
import time
from functools import cache, partial
from pathlib import Path

from . import _import_start, completeness, featureio, hexgrid, ingest
from .config import RunConfig
from .errors import ConfigError, NetqaError, PipelineError, WeightsError, ZeroVarianceError
from .featureio import round_metric as _r
from .geometry import _sum_in_order

try:
    import resource
except ImportError:  # no getrusage on Windows; run_info.json then records null
    resource = None

__all__ = ["RunConfig", "Pipeline", "run_pipeline", "STAGES"]

log = logging.getLogger(__name__)

STAGES = ("validate", "density", "structure", "match", "tags", "autocorr", "full")

# The stage modules each subcommand runs, beyond those every run needs.
# run_stage imports them before the first stage, so that their import
# time counts in import_seconds, not in the first stage that calls them.
_STAGE_MODULES = {
    "structure": ("graph",),
    "match": ("matching",),
    "tags": ("tags",),
    "autocorr": ("matching", "tags", "spatial"),
    "full": ("graph", "matching", "tags", "spatial"),
}


def _parse_cell_key(text: str):
    q, r = text.split(",")
    return (int(q), int(r))


def _write_file(path, kind: str, payload) -> None:
    if kind == "lines":
        featureio.write_feature_lines(path, payload())
    elif kind == "csv":
        featureio.write_csv(path, *payload)
    elif kind == "json":
        featureio.write_json(path, payload)
    else:  # "text": a callable returning the file's text
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload())


def _memory_mb() -> dict:
    """This process's resident set size now (``rss``) and its peak so far
    (``hwm``), in MB (10**6 bytes) to 0.1 MB; only read, never reset.

    /proc's ``VmHWM`` is the peak of this program alone. Where there is no
    /proc, ``rss`` is None and ``hwm`` is ``ru_maxrss``, which also keeps the
    peak of the process image an exec replaced, such as a launcher's fork.
    """
    found = {"rss": None, "hwm": None}
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith((b"VmRSS:", b"VmHWM:")):
                    found[line[2:5].decode().lower()] = round(int(line.split()[1]) * 1024 / 1e6, 1)  # kB
    except OSError:
        pass
    if found["hwm"] is None and resource is not None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
        found["hwm"] = round(peak * (1 if sys.platform == "darwin" else 1024) / 1e6, 1)
    return found


class Pipeline:
    """Caches stage results so subcommands share prerequisites."""

    ROLES = ("candidate", "reference")

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._cache = {}
        self.grid_fields: dict[str, dict] = {}  # field name -> {cell_id: value}
        self.summary: dict = {"configuration": cfg.resolved()}
        # file name -> ("lines", encoded-line producer) or ("csv", (header, rows))
        self.outputs: dict[str, tuple] = {}
        self.cell_text = cache(lambda: hexgrid._cell_text(self.grid()))  # spelled on first use
        # wall seconds of each stage's first computation, less those of the
        # stages it computed first; recorded in run_info.json
        self.stage_seconds: dict[str, float] = {}
        # stage -> this process's memory (_memory_mb) as the stage ended; run_info.json
        self.stage_rss_mb: dict[str, dict] = {}
        # seconds from netqa's first import to the start of the first stage; run_info.json
        self.import_seconds: float | None = None
        # per-direction matching work (role -> the fields of its MatchCounts); run_info.json
        self.match_counts: dict[str, dict] = {}
        # scheme -> [{"cells", "nnz"} of each weights build]; run_info.json
        self.weights_builds: dict[str, list[dict]] = {}
        # scheme -> [the metrics evaluated on each weights build]; run_info.json
        self.autocorr_groups: dict[str, list[list[str]]] = {}

    def _run(self, stage, fn):
        if stage not in self._cache:
            before = sum(self.stage_seconds.values())  # the stages run inside this one add to the sum
            start = time.perf_counter()
            if self.import_seconds is None:
                self.import_seconds = start - _import_start
                log.debug("import: %.3f s", self.import_seconds)
            try:
                self._cache[stage] = fn()
            except PipelineError:
                raise
            except NetqaError as exc:
                raise PipelineError(stage, exc) from exc
            except Exception as exc:  # defensive: name the failing stage
                raise PipelineError(stage, repr(exc)) from exc
            self.stage_seconds[stage] = time.perf_counter() - start - (sum(self.stage_seconds.values()) - before)
            self._end_stage(stage)
        return self._cache[stage]

    def _end_stage(self, stage: str) -> None:
        memory = self.stage_rss_mb[stage] = _memory_mb()
        log.debug("stage %s: %.3f s, RSS %s MB, peak %s MB", stage, self.stage_seconds[stage], *memory.values())

    def _add_grid_field(self, name: str, values: dict):
        self.grid_fields[name] = dict(values)

    # ---------------- prerequisites ----------------

    def datasets(self):
        def build():
            missing = self.cfg.missing_inputs()
            if missing:
                raise ConfigError("missing input file(s): " + "; ".join(missing))
            rules = ingest.load_rules(self.cfg.rules_path)
            out = {}
            for role, name, path in (
                ("candidate", self.cfg.candidate_name, self.cfg.candidate_path),
                ("reference", self.cfg.reference_name, self.cfg.reference_path),
            ):
                if role not in rules:
                    raise ConfigError(f"rules file has no entry for role {role!r}")
                features = ingest.parse_dataset(path)
                out[role] = ingest.classify(features, rules[role], name=name)
            return out

        return self._run("ingest", build)

    def grid(self):
        def build():
            parts = ingest.load_study_area(self.cfg.study_area_path)
            return hexgrid.build_grid(parts, self.cfg.cell_area_m2)

        return self._run("grid", build)

    def edge_cells(self, role: str) -> hexgrid.EdgeCells:
        """One role's edges clipped once; graph edges are the same objects in order."""
        if ("clip", role) not in self._cache:
            self._cache[("clip", role)] = self.grid().clip_edges(self.datasets()[role].vertices)
        return self._cache[("clip", role)]

    def graphs(self):
        def build():
            from . import graph

            return {
                role: graph.build_graph(ds, self.cfg.snap_tolerance_m)
                for role, ds in self.datasets().items()
            }

        return self._run("graph", build)

    # ---------------- stages ----------------

    def density(self):
        def build():
            cfg = self.cfg
            datasets = self.datasets()
            surfaces = {
                role: completeness.build_density_surface(ds, self.edge_cells(role), cfg.length_policy)
                for role, ds in datasets.items()
            }
            diff = completeness.density_difference(surfaces["candidate"], surfaces["reference"])
            totals = {
                role: completeness.dataset_length_totals(ds, cfg.length_policy)
                for role, ds in datasets.items()
            }
            cells_cand = set(surfaces["candidate"].values)
            cells_ref = set(surfaces["reference"].values)
            # signs of the differences as grid_metrics.geojson writes them,
            # so a difference that rounds to zero counts on neither side
            written_diff = [_r(v, 9) for v in diff.values()]
            summary = {
                "totals": {
                    role: {
                        "total_km": _r(t["total_m"] / 1000.0),
                        "protected_km": _r(t["protected_m"] / 1000.0),
                        "unprotected_km": _r(t["unprotected_m"] / 1000.0),
                        "edge_count": len(datasets[role].edges),
                    }
                    for role, t in totals.items()
                },
                "grid_cells_total": len(self.grid().cells),
                "cells_with_data": {
                    "candidate": len(cells_cand),
                    "reference": len(cells_ref),
                    "either": len(cells_cand | cells_ref),
                },
                "cells_more_candidate": sum(1 for v in written_diff if v < 0),
                "cells_more_reference": sum(1 for v in written_diff if v > 0),
                "outside_grid_m": {
                    role: _r(surfaces[role].outside_m) for role in self.ROLES
                },
            }
            polygon_stats = None
            if cfg.polygons_path is not None:
                polys = ingest.load_polygon_layer(cfg.polygons_path)
                polygon_stats = completeness.polygon_compare(
                    datasets["candidate"], datasets["reference"], polys, cfg.length_policy
                )
                summary["polygons"] = {
                    "count": len({p.name for p in polygon_stats}),
                    "more_candidate": sum(1 for p in polygon_stats if p.relative_difference < 0),
                    "more_reference": sum(1 for p in polygon_stats if p.relative_difference > 0),
                }

            self._add_grid_field("density_candidate", surfaces["candidate"].values)
            self._add_grid_field("density_reference", surfaces["reference"].values)
            self._add_grid_field("density_difference", diff)
            self.summary["density"] = summary
            if polygon_stats is not None:
                self.outputs["polygons.csv"] = (
                    "csv",
                    (
                        [
                            "name",
                            "area_km2",
                            "length_candidate_km",
                            "length_reference_km",
                            "density_candidate_km_per_km2",
                            "density_reference_km_per_km2",
                            "relative_difference",
                        ],
                        [
                            [
                                p.name,
                                _r(p.area_m2 / 1e6),
                                _r(p.length_a_m / 1000.0),
                                _r(p.length_b_m / 1000.0),
                                _r(p.density_a),
                                _r(p.density_b),
                                _r(p.relative_difference),
                            ]
                            for p in polygon_stats
                        ],
                    ),
                )
            return {"surfaces": surfaces, "difference": diff, "polygon_stats": polygon_stats}

        return self._run("density", build)

    def structure(self):
        def build():
            from . import graph

            cfg = self.cfg
            graphs = self.graphs()
            result = {}
            for role in self.ROLES:
                g = graphs[role]
                comps = graph.connected_components(g, cfg.length_policy)
                dangling = graph.dangling_nodes(g)
                undershoots = graph.detect_undershoots(g, cfg.undershoot_threshold_m)
                zipf = graph.component_zipf(comps)
                counts = graph.local_component_count(g, self.edge_cells(role))
                total_m = _sum_in_order([c.length_m for c in comps])
                largest_m = comps[0].length_m if comps else 0.0
                result[role] = {
                    "components": comps,
                    "dangling": dangling,
                    "undershoots": undershoots,
                    "zipf": zipf,
                    "local_component_count": counts,
                }
                self.summary.setdefault("structure", {})[role] = {
                    "nodes": len(g.nodes),
                    "dangling_nodes": len(dangling),
                    "undershoots": len(undershoots),
                    "components": len(comps),
                    "largest_component_km": _r(largest_m / 1000.0),
                    "largest_component_share_pct": _r(100.0 * largest_m / total_m if total_m else 0.0, 6),
                }
                self._add_grid_field(f"component_count_{role}", counts)
                undershoot_layer = partial(graph._undershoot_lines, g, undershoots)
                self.outputs[f"undershoots_{role}.geojson"] = ("lines", undershoot_layer)
                self.outputs[f"components_{role}.geojson"] = ("lines", partial(graph._component_lines, g))
                self.outputs[f"zipf_{role}.csv"] = (
                    "csv",
                    (
                        ["rank", "component_length_km"],
                        [[rank, _r(length / 1000.0)] for rank, length in zipf],
                    ),
                )
            return result

        return self._run("structure", build)

    def matching_results(self):
        def build():
            from dataclasses import asdict

            from . import matching

            datasets = self.datasets()
            grid = self.grid()
            tables = matching.match_tables(datasets["candidate"], datasets["reference"], self.cfg.match_config)
            result = {}
            for role, table in zip(self.ROLES, tables):
                self.match_counts[role] = asdict(table.counts)
                log.debug(
                    "match %s: %d segments, %d pairs within max_dist, %d rejected by Hausdorff, "
                    "%d rejected by angle, %d accepted, %d matched",
                    role, *self.match_counts[role].values(),
                )
                summ = matching.summarize(table, grid)
                result[role] = {"table": table, "summary": summ}
                self.summary.setdefault("matching", {})[role] = {
                    "segments": summ.total_segments,
                    "matched_segments": summ.matched_segments,
                    "matched_length_km": _r(summ.matched_length_m / 1000.0),
                    "total_length_km": _r(summ.total_length_m / 1000.0),
                    "pct_matched_segments": _r(summ.pct_matched_count, 6),
                    "pct_matched_length": _r(summ.pct_matched_length, 6),
                    "local_min_pct": _r(summ.local_min_pct, 6),
                    "local_max_pct": _r(summ.local_max_pct, 6),
                    "local_avg_pct": _r(summ.local_avg_pct, 6),
                }
                self._add_grid_field(f"pct_matched_{role}", summ.per_cell_pct)
                self.outputs[f"segments_{role}.geojson"] = ("lines", partial(matching._segment_lines, table))
            return result

        return self._run("match", build)

    def tag_shares(self):
        def build():
            from . import tags

            cfg = self.cfg
            edges = self.datasets()["candidate"].edges
            policy = None if cfg.tags_use_raw_length else cfg.length_policy
            shares = {}
            for spec in cfg.tag_specs:
                share = tags.tag_share(edges, spec, self.edge_cells("candidate"), policy)
                shares[spec.name] = share
                self.summary.setdefault("tags", {})[spec.name] = {
                    "keys": list(spec.keys),
                    "global_pct": _r(share.global_pct, 6),
                }
                self._add_grid_field(f"tag_{spec.name}", share.per_cell_pct)
            return shares

        return self._run("tags", build)

    def autocorr(self):
        def build():
            from . import spatial

            cfg = self.cfg
            # prerequisites computed transparently
            self.density()
            self.matching_results()
            self.tag_shares()
            grid = self.grid()
            metrics = ["density_difference", "pct_matched_candidate", "pct_matched_reference"]
            metrics += [f"tag_{spec.name}" for spec in cfg.tag_specs]

            results = {}
            for scheme in cfg.weights_schemes:
                label = spatial.scheme_label(scheme)
                entries = self.summary.setdefault("spatial_autocorrelation", {}).setdefault(label, {})
                # metrics over the same cells share one weights build and one
                # set of permutation draws; builds follow first appearance
                groups: dict[tuple, list[str]] = {}
                for metric in metrics:
                    groups.setdefault(tuple(sorted(self.grid_fields.get(metric, {}))), []).append(metric)
                outcome = {}  # metric -> (weights, MoranResult, LisaResult) or why it was skipped
                for cells, group in groups.items():
                    try:
                        w = spatial.build_weights({cell: grid.cells[cell].center for cell in cells}, scheme)
                    except WeightsError as exc:
                        outcome.update(dict.fromkeys(group, exc))
                        continue
                    self.weights_builds.setdefault(label, []).append({"cells": w.n, "nnz": len(w.col)})
                    batch = spatial.moran_batch(
                        [self.grid_fields.get(metric, {}) for metric in group],
                        w,
                        cfg.n_permutations,
                        cfg.seed,
                        cfg.alpha,
                    )
                    for metric, res in zip(group, batch):
                        outcome[metric] = res if isinstance(res, Exception) else (w, *res)
                    self.autocorr_groups.setdefault(label, []).append(
                        [metric for metric, res in zip(group, batch) if not isinstance(res, Exception)]
                    )
                for metric in metrics:
                    if isinstance(outcome[metric], Exception):
                        entries[metric] = {"skipped": str(outcome[metric])}
                        continue
                    w, moran, lisa = outcome[metric]
                    results[(label, metric)] = {"weights": w, "global": moran, "lisa": lisa}
                    entries[metric] = {
                        "moran_i": _r(moran.i, 12),
                        "expected_i": _r(moran.expected_i, 12),
                        "pseudo_p": _r(moran.pseudo_p, 6),
                        "n_cells": moran.n,
                        "n_permutations": moran.n_permutations,
                        "significant_cells": sum(1 for v in lisa.significant.values() if v),
                    }
                    layer = partial(spatial._lisa_lines, self.cell_text, lisa)
                    self.outputs[f"lisa_{label}_{metric}.geojson"] = ("lines", layer)
            if cfg.population_path is not None:
                self._population_correlations()
            return results

        return self._run("autocorr", build)

    def _population_correlations(self):
        population_raw = ingest.load_population_csv(self.cfg.population_path)
        population = {}
        for key, value in population_raw.items():
            try:
                population[_parse_cell_key(key)] = value
            except (ValueError, IndexError):
                raise ConfigError(
                    f"population cell_id {key!r} is not a 'q,r' axial id"
                ) from None
        out = {}
        for metric in ["density_difference"] + [f"tag_{t.name}" for t in self.cfg.tag_specs]:
            values = self.grid_fields.get(metric)
            if not values:
                continue
            entry = {}
            for method in ("pearson", "spearman"):
                try:
                    entry[method] = _r(completeness.correlate(values, population, method), 9)
                except (ConfigError, ZeroVarianceError) as exc:
                    entry[method] = None
                    entry[f"{method}_skipped"] = str(exc)
            out[metric] = entry
        self.summary["population_correlation"] = out

    # ---------------- assembly ----------------

    def run_stage(self, stage: str):
        if stage == "validate":
            return self.validate()
        for name in _STAGE_MODULES.get(stage, ()):
            # the import statement's route, which -X importtime reports
            __import__(f"{__package__}.{name}")
        if stage == "density":
            self.density()
        elif stage == "structure":
            self.structure()
        elif stage == "match":
            self.matching_results()
        elif stage == "tags":
            self.tag_shares()
        elif stage == "autocorr":
            self.autocorr()
        elif stage == "full":
            self.density()
            self.structure()
            self.matching_results()
            self.tag_shares()
            self.autocorr()
        else:
            raise ConfigError(f"unknown stage {stage!r}")
        return self.write_outputs()

    def validate(self) -> dict:
        """Check inputs without writing anything."""
        problems = self.cfg.missing_inputs()
        report = {"ok": False, "problems": problems}
        if problems:
            return report
        try:
            self.datasets()
            self.grid()
        except NetqaError as exc:
            problems.append(str(exc))
        report["ok"] = not problems
        return report

    def write_outputs(self) -> list[str]:
        """Build and write every file, then run_info.json; returns the names written.

        Building and writing the files before run_info.json is the ``write``
        stage: a failure there raises ``PipelineError("write", ...)`` naming
        the file, and the previous run's outputs stay in place.
        """
        out_dir = Path(self.cfg.output_dir)
        summary_json = dict(self.summary)
        self._cross_check(summary_json)
        files = []
        if self.grid_fields:
            grid_layer = partial(hexgrid._grid_lines, self.cell_text, self.grid_fields)
            files.append(("grid_metrics.geojson", "lines", grid_layer))
        files += [(name, *self.outputs[name]) for name in sorted(self.outputs)]
        files.append(("summary.json", "json", summary_json))
        files.append(("summary.txt", "text", partial(render_text_summary, summary_json)))

        out_dir.mkdir(parents=True, exist_ok=True)
        tmp_dir = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=out_dir.parent))
        written: list[str] = []
        file_seconds: dict[str, float] = {}
        file_bytes: dict[str, int] = {}
        try:
            start = time.perf_counter()
            for name, kind, payload in files:
                begin = time.perf_counter()
                try:
                    _write_file(tmp_dir / name, kind, payload)
                except Exception as exc:
                    raise PipelineError("write", f"{name}: {exc!r}") from exc
                file_seconds[name] = time.perf_counter() - begin
                file_bytes[name] = (tmp_dir / name).stat().st_size
                log.debug("write %s: %d bytes, %.3f s", name, file_bytes[name], file_seconds[name])
                written.append(name)
            self.stage_seconds["write"] = time.perf_counter() - start
            self._end_stage("write")
            peak_rss_mb = self.stage_rss_mb["write"]["hwm"]
            log.debug("peak RSS: %s MB", peak_rss_mb)
            run_info = {
                "finished_unix": int(time.time()),
                "tool": "netqa",
                "version": "0.1.0",
                "output_dir": str(out_dir),
                "import_seconds": None if self.import_seconds is None else round(self.import_seconds, 6),
                "stage_seconds": {stage: round(sec, 6) for stage, sec in self.stage_seconds.items()},
                "stage_rss_mb": self.stage_rss_mb,
                "write_seconds": {name: round(sec, 6) for name, sec in file_seconds.items()},
                "peak_rss_mb": peak_rss_mb,
            }
            if self.match_counts:
                run_info["matching"] = self.match_counts
            run_info["work"] = self._work(file_bytes)
            featureio.write_json(tmp_dir / "run_info.json", run_info)
            written.append("run_info.json")
            for name in written:
                os.replace(tmp_dir / name, out_dir / name)
        finally:
            shutil.rmtree(tmp_dir, ignore_errors=True)
        return written

    def _work(self, file_bytes: dict) -> dict:
        """Sizes of what the run computed: grid cells; per role, edges, clip
        index rows and, when matching ran, segments; when the autocorr
        stage ran, the cells and neighbour count (nnz) of each weights build
        and the metrics evaluated on its one set of permutation draws; and
        the bytes of each file written before run_info.json."""
        work = {"grid_cells": len(self.grid().cells), "file_bytes": file_bytes}
        for role, ds in self.datasets().items():
            work[role] = {"edges": len(ds.edges)}
            if ("clip", role) in self._cache:
                work[role]["clips"] = len(self._cache[("clip", role)].edge)
            if role in self.match_counts:
                work[role]["segments"] = self.match_counts[role]["segments"]
        if self.weights_builds:
            work["weights"] = self.weights_builds
            work["autocorr"] = self.autocorr_groups
        log.debug("work: %s", json.dumps(work, sort_keys=True))
        return work

    def _cross_check(self, summary: dict) -> None:
        structure = summary.get("structure")
        density = summary.get("density")
        if not structure or not density:
            return
        for role in self.ROLES:
            total_km = density["totals"][role]["total_km"]
            share = structure[role]["largest_component_share_pct"]
            largest = structure[role]["largest_component_km"]
            if total_km > 0 and abs(share / 100.0 * total_km - largest) > max(1e-6 * total_km, 1e-9):
                raise PipelineError(
                    "report", f"inconsistent component share for {role}: {share}% of {total_km} != {largest}"
                )


def render_text_summary(summary: dict) -> str:
    lines = ["netqa summary", "============="]

    def section(title):
        lines.append("")
        lines.append(title)
        lines.append("-" * len(title))

    density = summary.get("density")
    if density:
        section("extrinsic comparison")
        rows = [
            ("total infrastructure (km)", "total_km"),
            ("protected (km)", "protected_km"),
            ("unprotected (km)", "unprotected_km"),
            ("edges", "edge_count"),
        ]
        lines.append(f"{'metric':38} {'candidate':>16} {'reference':>16}")
        for label, key in rows:
            c = density["totals"]["candidate"][key]
            r = density["totals"]["reference"][key]
            lines.append(f"{label:38} {c:>16} {r:>16}")
        structure = summary.get("structure")
        if structure:
            for label, key in (
                ("nodes", "nodes"),
                ("dangling nodes", "dangling_nodes"),
                ("undershoots", "undershoots"),
                ("components", "components"),
                ("largest component (km)", "largest_component_km"),
                ("largest component share (%)", "largest_component_share_pct"),
            ):
                c = structure["candidate"][key]
                r = structure["reference"][key]
                lines.append(f"{label:38} {c:>16} {r:>16}")
        cells = density["cells_with_data"]
        lines.append("")
        lines.append(
            f"grid cells with data: candidate {cells['candidate']}, reference {cells['reference']}, "
            f"either {cells['either']} of {density['grid_cells_total']}"
        )
        lines.append(
            f"cells with more candidate data: {density['cells_more_candidate']}; "
            f"more reference data: {density['cells_more_reference']}"
        )

    match = summary.get("matching")
    if match:
        section("feature matching")
        lines.append(f"{'metric':38} {'candidate':>16} {'reference':>16}")
        for label, key in (
            ("segments", "segments"),
            ("matched segments", "matched_segments"),
            ("matched length (km)", "matched_length_km"),
            ("% matched segments", "pct_matched_segments"),
            ("% matched length", "pct_matched_length"),
            ("local min %", "local_min_pct"),
            ("local max %", "local_max_pct"),
            ("local avg %", "local_avg_pct"),
        ):
            c = match["candidate"][key]
            r = match["reference"][key]
            lines.append(f"{label:38} {c!s:>16} {r!s:>16}")

    tag_section = summary.get("tags")
    if tag_section:
        section("tag coverage (candidate)")
        for name in sorted(tag_section):
            lines.append(f"{name:38} {tag_section[name]['global_pct']!s:>16} %")

    autocorr = summary.get("spatial_autocorrelation")
    if autocorr:
        section("spatial autocorrelation")
        for scheme in sorted(autocorr):
            for metric in sorted(autocorr[scheme]):
                entry = autocorr[scheme][metric]
                if "skipped" in entry:
                    lines.append(f"{scheme} {metric}: skipped ({entry['skipped']})")
                else:
                    lines.append(
                        f"{scheme} {metric}: I={entry['moran_i']} p={entry['pseudo_p']} "
                        f"significant cells={entry['significant_cells']}"
                    )

    pop = summary.get("population_correlation")
    if pop:
        section("correlation with population")
        for metric in sorted(pop):
            entry = pop[metric]
            lines.append(f"{metric}: pearson={entry.get('pearson')} spearman={entry.get('spearman')}")

    lines.append("")
    return "\n".join(lines)


def run_pipeline(cfg: RunConfig) -> tuple[dict, list[str]]:
    """Execute every stage and write all outputs.

    Returns the summary dict and the list of files written.
    """
    pipe = Pipeline(cfg)
    written = pipe.run_stage("full")
    return pipe.summary, written
