"""Which netqa calls a traced run wraps, and the per-layer metrics they give.

Spans wrap the public functions of each ``src/netqa`` module that run once
per dataset, stage or file, plus ``HexGrid.clip_polyline`` (once per edge
and caller), whose call count is the metric of interest. Functions called
once per segment, vertex or feature (geometry primitives, feature
builders, ``tag_presence``, ``GridIndex.query``) get no span, because a
span per call would swamp the run; ``GridIndex.query`` is counted instead.
``polygon_aggregate`` has no span so that ``polygon_compare`` keeps its
time. Every time metric is a self time: the span's duration minus the
time its wrapped callees cover.
"""

from __future__ import annotations

import importlib
import os

from tracer import Tracer, self_times

# Pipeline methods give one span per stage: method -> stage.
STAGES = {
    "datasets": "ingest",
    "grid": "grid",
    "graphs": "graph",
    "density": "density",
    "structure": "structure",
    "matching_results": "match",
    "tag_shares": "tags",
    "autocorr": "autocorr",
    "write_outputs": "write",
}

SPANS = {
    "ingest": ("parse_dataset", "classify", "load_rules", "load_study_area", "load_polygon_layer"),
    "hexgrid": ("build_grid", "assign_lengths", "HexGrid.clip_polyline"),
    "completeness": ("build_density_surface", "dataset_length_totals", "density_difference", "polygon_compare"),
    "graph": (
        "build_graph",
        "connected_components",
        "dangling_nodes",
        "detect_undershoots",
        "component_zipf",
        "local_component_count",
    ),
    "matching": ("segmentize_dataset", "match_datasets", "match_summary"),
    "tags": ("tag_share",),
    "spatial": ("build_weights", "global_moran", "local_moran"),
    "featureio": ("write_feature_collection", "write_json", "write_csv"),
}

MATCH_SPAN = "matching.match_datasets"


def _written_bytes(tracer, result, args):
    tracer.count("featureio.bytes", os.path.getsize(args[0]))


def _candidate_pairs(tracer, ids, args):
    if tracer.is_open(MATCH_SPAN):
        tracer.count("matching.candidate_pairs", len(ids))


# Counters taken from a wrapped call's result or arguments.
AFTER = {
    "ingest.classify": lambda t, res, args: t.count("ingest.edges", len(res.edges)),
    "hexgrid.build_grid": lambda t, res, args: t.count("hexgrid.cells", len(res.cells)),
    "graph.build_graph": lambda t, res, args: t.count("graph.nodes", len(res.nodes)),
    "graph.detect_undershoots": lambda t, res, args: t.count("graph.undershoots", len(res)),
    "matching.segmentize_dataset": lambda t, res, args: t.count("matching.segments", len(res)),
    "matching.match_summary": lambda t, res, args: t.count("matching.matched", res.matched_segments),
    "spatial.build_weights": lambda t, res, args: t.count(
        "spatial.weights_nnz", sum(len(row) for row in res.neighbors)
    ),
    "featureio.write_feature_collection": lambda t, res, args: t.count("featureio.features", len(args[1])),
    "featureio.write_json": _written_bytes,
    "featureio.write_csv": _written_bytes,
}


def _replace(modules, owner, attr, wrapper, original):
    """Point every netqa module name bound to ``original`` at ``wrapper``.

    Modules import each other's functions by name (``from .hexgrid import
    assign_lengths``), so patching the defining module alone would miss
    those callers.
    """
    setattr(owner, attr, wrapper)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def install(tracer: Tracer) -> list[str]:
    """Wrap netqa's layer boundaries; call before the pipeline runs.

    Returns the targets netqa no longer has. They stay untraced and their
    metrics read 0, so a refactor of netqa does not break a traced run.
    """
    names = ("pipeline", "spindex", *SPANS)
    modules = {n: importlib.import_module(f"netqa.{n}") for n in names}
    missing = []

    def patch(layer, qualname, make):
        owner = modules[layer]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{layer}.{qualname}")
        else:
            _replace(modules.values(), owner, attr, make(original), original)

    for method, stage in STAGES.items():
        patch("pipeline", f"Pipeline.{method}", lambda fn, span=f"pipeline.{stage}": tracer.wrap(span, fn))
    for layer, funcs in SPANS.items():
        for qualname in funcs:
            span = f"{layer}.{qualname.split('.')[-1]}"
            patch(layer, qualname, lambda fn, span=span: tracer.wrap(span, fn, AFTER.get(span)))
    patch("spindex", "GridIndex.query", lambda fn: tracer.observe("spindex.query", fn, _candidate_pairs))
    return missing


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(spans, counters, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced netqa run of wall time ``run_s``."""
    selfs = self_times(spans)

    def s(name):
        return selfs.get(name, (0.0, 0))[0]

    def calls(name):
        return selfs.get(name, (0.0, 0))[1]

    out = {f"pipeline.{stage}_s": s(f"pipeline.{stage}") for stage in STAGES.values()}
    for layer in ("pipeline", *SPANS):
        total = sum(t for name, (t, _) in selfs.items() if name.split(".")[0] == layer)
        out["featureio.write_s" if layer == "featureio" else f"{layer}.self_s"] = total
    edges = counters.get("ingest.edges", 0)
    segments = counters.get("matching.segments", 0)
    pairs = counters.get("matching.candidate_pairs", 0)
    out.update(
        {
            "ingest.parse_dataset_s": s("ingest.parse_dataset"),
            "ingest.classify_s": s("ingest.classify"),
            "ingest.edges": edges,
            "hexgrid.build_grid_s": s("hexgrid.build_grid"),
            "hexgrid.cells": counters.get("hexgrid.cells", 0),
            "hexgrid.assign_lengths_s": s("hexgrid.assign_lengths"),
            "hexgrid.clip_polyline_calls": calls("hexgrid.clip_polyline"),
            "hexgrid.clip_polyline_s": s("hexgrid.clip_polyline"),
            "hexgrid.clip_calls_per_edge": _ratio(calls("hexgrid.clip_polyline"), edges),
            "completeness.density_surface_s": s("completeness.build_density_surface"),
            "completeness.polygon_compare_s": s("completeness.polygon_compare"),
            "graph.build_graph_s": s("graph.build_graph"),
            "graph.detect_undershoots_s": s("graph.detect_undershoots"),
            "graph.local_component_count_s": s("graph.local_component_count"),
            "graph.nodes": counters.get("graph.nodes", 0),
            "graph.undershoots": counters.get("graph.undershoots", 0),
            "matching.segmentize_s": s("matching.segmentize_dataset"),
            "matching.match_datasets_s": s("matching.match_datasets"),
            "matching.match_summary_s": s("matching.match_summary"),
            "matching.segments": segments,
            "matching.candidate_pairs": pairs,
            "matching.pairs_per_segment": _ratio(pairs, segments),
            "matching.matched_share": _ratio(counters.get("matching.matched", 0), segments),
            "tags.tag_share_s": s("tags.tag_share"),
            "tags.tag_share_calls": calls("tags.tag_share"),
            "spatial.build_weights_s": s("spatial.build_weights"),
            "spatial.build_weights_calls": calls("spatial.build_weights"),
            "spatial.weights_nnz": counters.get("spatial.weights_nnz", 0),
            "spatial.global_moran_s": s("spatial.global_moran"),
            "spatial.local_moran_s": s("spatial.local_moran"),
            "featureio.bytes": counters.get("featureio.bytes", 0),
            "featureio.features": counters.get("featureio.features", 0),
        }
    )
    # share of the run's wall time inside a top-level (stage) span
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    out["trace.covered_share"] = _ratio(top, run_s)
    return out
