"""In-memory spans for the traced run.

A span is ``(id, parent, name, start, end)`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans recorded by child
processes share one time base with the parent). Spans are kept in memory and
written once, when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records spans when enabled; when disabled, ``span`` costs one branch."""

    def __init__(self, enabled: bool, run_id: str, prefix: str = ""):
        self.enabled = enabled
        self.run_id = run_id
        self.prefix = prefix  # keeps span ids unique across processes
        self.spans: list[dict] = []
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = f"{self.prefix}{len(self.spans)}"
        record = {"id": span_id, "parent": self._stack[-1] if self._stack else None,
                  "name": name, "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, minus the time covered by each span's direct
    children (children of one span never overlap: calls are sequential)."""
    child_time: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals
