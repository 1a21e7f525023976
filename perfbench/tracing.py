"""Spans around the benchmark's calls into each layer of the program.

A span records its name, start, end, parent span and op id, plus how many
units of work (queries, tables, pairs) it covered. Spans stay in memory
and are written out when the run ends. With tracing off, ``span`` returns
one shared no-op context, so the untraced run pays nothing measurable.
"""
from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    units: float
    stage: str


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, list[tuple[str, float]]] = {}
        self.op: int | None = None
        #: which part of the run is being traced: setup, op, check or sweep
        self.stage = "setup"
        self._stack: list[int] = []

    def span(self, name: str, units: float = 1.0):
        if not self.enabled:
            return _NULL
        return self._span(name, units)

    @contextlib.contextmanager
    def _span(self, name: str, units: float):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), float("nan"), parent, self.op, float(units), self.stage)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.setdefault(name, []).append((self.stage, float(value)))

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(s)}) + "\n")


_NULL = contextlib.nullcontext()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def layer_seconds(spans: list[Span]) -> dict[tuple[str, str], tuple[float, float, int]]:
    """Per (span name, stage): (summed self time, summed units, number of spans)."""
    out: dict[tuple[str, str], tuple[float, float, int]] = {}
    for s, st in zip(spans, self_times(spans)):
        key = (s.name, s.stage)
        t, u, n = out.get(key, (0.0, 0.0, 0))
        out[key] = (t + st, u + s.units, n + 1)
    return out
