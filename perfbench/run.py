"""End-to-end benchmark of the netqa command line.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. For each workload it generates the inputs
from the seed (perfbench/generate.py), then launches ``netqa`` as a fresh
process again and again, one at a time (a closed loop with one client),
until the next launch would end after S seconds, and at least three
times. Every launch is checked (perfbench/check.py), and a launch that
fails counts into ``failed``.

With ``--trace 0`` netqa runs untraced and the end-to-end metrics are
reported as medians over the launches. With ``--trace 1`` traced and
untraced launches alternate; the per-layer metrics are medians over the
traced launches, and ``trace.overhead_s`` is the traced minus the untraced
median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from check import check_outputs, digest
from generate import WORKLOADS, Workload, generate

HERE = Path(__file__).resolve().parent
MB = 1e6
MIN_LAUNCHES = 3
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "km_per_s": "km/s", "output_mb": "MB"}


def _now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so the child's set-up
    # mark can be compared with the launch time taken here
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(w: Workload, src: Path, work: Path, trace: bool) -> dict:
    """Run netqa once on the workload's inputs; time and measure it."""
    out_dir, report, log = work / "out", work / "report.json", work / "stderr.txt"
    shutil.rmtree(out_dir, ignore_errors=True)
    report.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(src), str(report), "1" if trace else "0"]
    cmd += [w.stage, "--config", str(work / "in" / "config.json"), "--out", str(out_dir), "--threads", str(w.threads)]
    with open(log, "wb") as err:
        start = _now()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        # per-child rusage: the peak RSS of this netqa process alone
        _, status, usage = os.wait4(proc.pid, 0)
        end = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    doc = json.loads(report.read_text(encoding="utf-8")) if report.is_file() else {}
    files = list(out_dir.iterdir()) if out_dir.is_dir() else []
    return {
        "trace": trace,
        "status": proc.returncode,
        "run_s": end - start,
        "setup_s": doc["setup_end"] - start if doc.get("setup_end") else None,
        "peak_rss_mb": usage.ru_maxrss * 1024 / MB,
        "output_mb": sum(p.stat().st_size for p in files) / MB,
        "doc": doc,
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, src: Path) -> dict:
    work = HERE / "work" / f"{w.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        expected = generate(w, seed, work / "in")
        # compile and cache netqa's bytecode before anything is timed
        warm = f"import sys; sys.path.insert(0, {str(src)!r}); import netqa.cli"
        subprocess.run([sys.executable, "-c", warm], check=True)
        launches = []
        first_digest = None
        t0 = _now()
        while True:
            r = launch(w, src, work, trace and len(launches) % 2 == 1)
            if r["status"] != 0:
                tail = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-500:]
                r["problems"] = [f"exit status {r['status']}: {tail}"]
            else:
                r["problems"] = check_outputs(w, work / "out", expected)
            if not r["problems"]:
                d = digest(work / "out")
                first_digest = first_digest or d
                if d != first_digest:
                    r["problems"].append("outputs differ from the first launch of this workload")
                summary = json.loads((work / "out" / "summary.json").read_text(encoding="utf-8"))
                r["km"] = sum(t["total_km"] for t in summary["density"]["totals"].values())
            launches.append(r)
            elapsed = _now() - t0
            typical = statistics.median(x["run_s"] for x in launches)
            if len(launches) >= MIN_LAUNCHES + trace and elapsed + typical > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"launches": launches, "metrics": _per_layer(launches) if trace else _end_to_end(launches)}


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _good(launches, traced: bool) -> list[dict]:
    return [r for r in launches if r["trace"] == traced and not r["problems"]]


def _end_to_end(launches) -> dict:
    ok = _good(launches, False)
    run_s = _median(r["run_s"] for r in ok)
    values = {
        "run_s": run_s,
        "setup_s": _median(r["setup_s"] for r in ok),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in ok),
        "km_per_s": ok[0]["km"] / run_s if ok else 0.0,
        "output_mb": _median(r["output_mb"] for r in ok),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_per_edge", "_per_segment")):
        return "ratio"
    return "B" if name == "featureio.bytes" else "count"


def _per_layer(launches) -> dict:
    traced = _good(launches, True)
    per_launch = [layers.metrics(r["doc"]["spans"], r["doc"]["counters"], r["run_s"]) for r in traced]
    names = list(per_launch[0]) if per_launch else []
    values = {name: _median(m[name] for m in per_launch) for name in names}
    values["trace.overhead_s"] = _median(r["run_s"] for r in traced) - _median(
        r["run_s"] for r in _good(launches, False)
    )
    return {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}


def _print_workload(name: str, result: dict) -> None:
    launches = result["launches"]
    failed = sum(1 for r in launches if r["problems"])
    for r in launches:
        for problem in r["problems"]:
            print(f"{name}: FAILED CHECK: {problem}")
    untraced = sorted({u for r in launches for u in r["doc"].get("untraced", ())})
    if untraced:
        print(f"{name}: not traced, metrics read 0: {'; '.join(untraced)}")
    for metric, m in result["metrics"].items():
        print(f"{name:16} {metric:34} {m['value']:>14.6f} {m['unit']}")
    print(f"{name:16} {'fail_ratio':34} {failed / len(launches):>14.6f} ratio ({failed} of {len(launches)} launches)")
    print(f"{name:16} {'launches':34} {len(launches):>14d} (timings are medians over the untraced ones)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "netqa" / "cli.py").is_file():
        print(f"error: no netqa sources at {src}; run from the repository root", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), src) for name in names}
    for name, result in results.items():
        _print_workload(name, result)

    launches = [r for result in results.values() for r in result["launches"]]
    failed = sum(1 for r in launches if r["problems"])
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{name}/{m}": v for name, result in results.items() for m, v in result["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(launches), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
