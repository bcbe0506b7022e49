"""One netqa invocation as the benchmark launches it.

    python3 perfbench/child.py SRC REPORT TRACE <netqa arguments...>

Imports netqa from SRC, runs its command line with the given arguments and
exits with its status. Before that it writes REPORT, a JSON object with
``setup_end``: the CLOCK_MONOTONIC time at which the inputs were parsed
and classified (the first ``Pipeline.datasets`` call returned). With TRACE
set to 1 the report also holds the spans and counters of a Tracer wrapped
around netqa's layers, and ``untraced``: wrap targets netqa no longer has
and counters that failed. With 0 nothing but that one hook is added.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    src, report, trace, netqa_args = Path(argv[0]).resolve(), argv[1], argv[2] == "1", argv[3:]
    sys.path.insert(0, str(src))
    from netqa import cli, pipeline

    if not Path(pipeline.__file__).resolve().is_relative_to(src):
        print(f"netqa imported from {pipeline.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        untraced = layers.install(tracer)

    marks = {}
    datasets = pipeline.Pipeline.datasets

    def timed_datasets(self):
        result = datasets(self)
        marks.setdefault("setup_end", time.clock_gettime(time.CLOCK_MONOTONIC))
        return result

    pipeline.Pipeline.datasets = timed_datasets
    status = cli.main(netqa_args)
    doc = {"setup_end": marks.get("setup_end")}
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["counters"] = dict(tracer.counters)
        doc["untraced"] = untraced + [f"{name} (counter: {err})" for name, err in tracer.errors.items()]
    Path(report).write_text(json.dumps(doc), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
