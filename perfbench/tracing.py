"""Spans and counters recorded around the benchmark's calls into the toolkit.

A span is (name, start, end, parent span, instance id).  Spans live in
flat arrays while the benchmark runs and are written out once at the
end.  The untraced run uses `NullTracer`, whose `wrap` hands back the
function itself, so untraced timings carry no tracing code at all.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

INSTANCE_SPAN = "bench.instance"


class NullTracer:
    """Tracing off: layer functions are called directly, counters dropped."""

    def wrap(self, name, fn):
        return fn

    def add(self, counter: str, value=1) -> None:
        pass


class Tracer:
    """Tracing on: every wrapped call records one span."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.instance_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._instance = -1

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance_id.append(self._instance)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def add(self, counter: str, value=1) -> None:
        self.counters[counter] += value

    @contextmanager
    def instance(self, instance_id: int):
        """Root span of one instance; the layer spans inside it are its children."""
        self._instance = instance_id
        idx = self._open(self._id(INSTANCE_SPAN))
        try:
            yield
        finally:
            self._close(idx)
            self._instance = -1

    def summary(self, scale=None) -> tuple[dict, dict, dict]:
        """Per span name: busy seconds, self seconds, and number of spans.

        Self time is a span's duration minus the time its direct children
        cover; the benchmark is single-threaded, so children never overlap.
        `scale` maps an instance id to the factor its spans' durations are
        multiplied by (default 1).
        """
        scale = scale or {}
        n = len(self.name_id)
        dur = [(self.end[i] - self.start[i]) * scale.get(self.instance_id[i], 1.0)
               for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        busy: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            busy[name] += dur[i]
            own[name] += dur[i] - covered[i]
            calls[name] += 1
        return busy, own, calls

    def write(self, path: Path) -> None:
        """One tab-separated line per span, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="ascii") as f:
            f.write("span\tname\tparent\tinstance\tstart_s\tend_s\n")
            for i in range(len(self.name_id)):
                f.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}\t"
                        f"{self.instance_id[i]}\t{self.start[i] - t0:.9f}\t"
                        f"{self.end[i] - t0:.9f}\n")
