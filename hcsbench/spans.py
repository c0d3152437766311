"""Spans around calls into hcskit's layers, kept in memory until the run ends.

The tracer wraps public functions of the program's modules from outside: a
wrapped call records one span (name, start, end, parent span, unit of work)
and nothing else.  The unit is the setup repetition or the op the call
happened in, so per-layer figures can be reduced per op like the end-to-end
ones.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int | None, str, float, float]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.unit = "setup"
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            parent = self._stack[-1] if self._stack else None
            self.spans.append((sid, name, parent, self.unit, start, end))

    def count(self, name: str, value: float) -> None:
        self.counts[self.unit][name] += value

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        ``count(tracer, args, kwargs, result)`` may add counts at the same
        boundary.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction ------------------------------------------------------------

    def per_unit_ms(self, name: str) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for _, span_name, _, unit, start, end in self.spans:
            if span_name == name:
                totals[unit] += (end - start) * 1e3
        return totals

    def median_ms(self, name: str, ops: list[str]) -> float:
        """Median per-op time in ``name``, over the ops that call it.

        A layer that no op calls is taken per setup repetition or per unit
        run after an op, whichever calls it; one never called reads 0.
        """
        totals = self.per_unit_ms(name)
        units = [u for u in ops if u in totals] or [u for u in totals if "warmup" not in u]
        return statistics.median(totals[u] for u in units) if units else 0.0

    def total_ms(self, name: str, ops: list[str]) -> float:
        totals = self.per_unit_ms(name)
        return sum(totals.get(u, 0.0) for u in ops)

    def median_count(self, name: str, ops: list[str]) -> float:
        return statistics.median(self.counts[u].get(name, 0.0) for u in ops)

    def total_count(self, name: str, ops: list[str]) -> float:
        return sum(self.counts[u].get(name, 0.0) for u in ops)

    def write(self, path: Path) -> None:
        """Spans and counts as JSON, with each span's self time."""
        child_ms: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ms[parent] += (end - start) * 1e3
        doc = {
            "spans": [
                {
                    "id": sid,
                    "name": name,
                    "parent": parent,
                    "unit": unit,
                    "start_s": start,
                    "end_s": end,
                    "self_ms": (end - start) * 1e3 - child_ms[sid],
                }
                for sid, name, parent, unit, start, end in self.spans
            ],
            "counts": {unit: dict(values) for unit, values in self.counts.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")

