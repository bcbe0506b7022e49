"""Command line interface.

    netqa <subcommand> --config <path> [--out DIR]

Subcommands run one analysis stage (plus its prerequisites) and write only
that stage's outputs; ``full`` runs everything. ``validate`` checks the
configuration and inputs and writes nothing. ``--threads`` is accepted, so
older command lines keep working, and ignored: netqa runs single-threaded.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import ConfigError, NetqaError
from .pipeline import STAGES, Pipeline, RunConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netqa",
        description="Spatial data quality assessment for two line-network datasets",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at debug level")
    sub = parser.add_subparsers(dest="stage", required=True, metavar="|".join(STAGES))
    help_by_stage = {
        "validate": "check config, input files, rules, and coordinate sanity",
        "density": "infrastructure length, densities, and density differences",
        "structure": "components, dangling nodes, undershoots, size ranking",
        "match": "segment-level feature matching between the datasets",
        "tags": "attribute-key coverage along the candidate network",
        "autocorr": "global and local spatial autocorrelation of all metrics",
        "full": "run every stage",
    }
    for stage in STAGES:
        p = sub.add_parser(stage, help=help_by_stage[stage])
        p.add_argument("--config", required=True, help="path to the run configuration JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--threads", type=int, default=None, help="accepted and ignored; netqa runs single-threaded")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = RunConfig.from_file(args.config, out_override=args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    pipe = Pipeline(cfg)
    try:
        if args.stage == "validate":
            report = pipe.validate()
            if report["ok"]:
                print("ok: configuration and inputs are valid")
                return 0
            for problem in report["problems"]:
                print(f"problem: {problem}", file=sys.stderr)
            return 2
        written = pipe.run_stage(args.stage)
    except NetqaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in written:
        print(f"wrote {cfg.output_dir}/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
