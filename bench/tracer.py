"""Spans around the calls the benchmark makes into the package.

``T(name, fn, *args)`` calls ``fn`` and, when tracing is on, records a span
(name, start, end, parent span, op id). Names are ``<module>.<function>``;
the module part is the layer. Untraced, the same call path runs without
recording anything, so the difference between the two runs is the cost of
recording. Nothing inside the package is instrumented.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, on: bool):
        self.on = on
        self.op = 0
        self.spans = []  # [name, start, end, parent, op, child_time]
        self.counts = Counter()
        self.samples = defaultdict(list)
        self._stack = []

    def __call__(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self.op, 0.0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            rec[1], rec[2] = t0, t1
            if parent is not None:
                self.spans[parent][5] += t1 - t0

    def count(self, name: str, n: int = 1) -> None:
        if self.on:
            self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        if self.on:
            self.samples[name].append(value)

    def layer_totals(self) -> dict:
        """{span name: {"calls": n, "self_s": seconds}} over every span."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, t0, t1, _, _, child in self.spans:
            out[name]["calls"] += 1
            out[name]["self_s"] += (t1 - t0) - child
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
