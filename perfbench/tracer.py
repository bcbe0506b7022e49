"""In-memory span and counter recorder for traced benchmark runs.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one started, or -1. Spans opened on a worker
thread with nothing open on that thread take the main thread's innermost
open span as their parent, since that is the call that handed them the
work. Nothing is written until the traced process ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counters: Counter = Counter()
        self._stacks: dict[int, list[int]] = {}
        self._open: Counter = Counter()
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self.errors: dict[str, str] = {}  # name -> first exception of its after-hook

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span; ``after(tracer, result, args)`` may count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else -1
            record = [name, 0.0, 0.0, parent]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
                self._open[name] += 1
            stack.append(index)
            record[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                stack.pop()
                with self._lock:
                    self._open[name] -= 1
            self._after(name, after, result, args)
            return result

        return traced

    def observe(self, name: str, fn, after):
        """``fn`` with ``after(tracer, result, args)`` run on each call, no span."""

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._after(name, after, result, args)
            return result

        return observed

    def _after(self, name, after, result, args) -> None:
        if after is None:
            return
        try:
            after(self, result, args)
        except Exception as exc:  # a counter must never break the traced program
            self.errors.setdefault(name, repr(exc))

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counters[name] += n

    def is_open(self, name: str) -> bool:
        """True while any thread is inside a span called ``name``."""
        return self._open[name] > 0


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: (total self time, number of spans).

    A span's self time is its duration minus the part of its interval
    covered by its children. Children on parallel threads may overlap, so
    the covered part is the length of the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, tuple[float, int]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - covered, calls + 1)
    return out
