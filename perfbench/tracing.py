"""In-memory spans recorded around calls into the program's layers.

The benchmark traces from the outside: every span wraps one call into a
public function of ``repro`` and is named by the per-layer metric prefix
it feeds (``dataset``, ``ml``, ``core``, ``workloads``, ``sched``,
``serve``).  Nothing inside ``src/`` is instrumented.  Spans stay in
memory and are written once, when the run ends.

The program runs the same code traced and untraced; what tracing adds
is the tracer's own bookkeeping, which it times and sums in
``overhead_s``.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path


class Tracer:
    """Collects spans when *enabled*; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        #: Seconds spent recording spans: the cost of tracing.
        self.overhead_s = 0.0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block as a child of the enclosing span."""
        if not self.enabled:
            yield None
            return
        t0 = time.perf_counter()
        record = self._open(name, t0,
                            self._stack[-1] if self._stack else None, attrs)
        self._stack.append(record["id"])
        self.overhead_s += time.perf_counter() - t0
        try:
            yield record
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            record["end"] = t1
            self.overhead_s += time.perf_counter() - t1

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, **attrs) -> int | None:
        """Record an already-timed interval (spans of concurrent requests,
        which do not nest on one call stack)."""
        if not self.enabled:
            return None
        t0 = time.perf_counter()
        record = self._open(name, start, parent, attrs)
        record["end"] = end
        self.overhead_s += time.perf_counter() - t0
        return record["id"]

    def _open(self, name, start, parent, attrs) -> dict:
        record = {"id": len(self.spans) + 1, "name": name, "parent": parent,
                  "start": start, "end": None, "attrs": attrs}
        self.spans.append(record)
        return record

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called *name* (seconds)."""
        return sum(s["end"] - s["start"] for s in self.named(name))

    def children(self, span_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id]

    def self_time(self, span: dict, children: list[dict] | None = None
                  ) -> float:
        """Duration minus the part of it that child spans cover."""
        if children is None:
            children = self.children(span["id"])
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children, key=lambda s: s["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (end - start) - covered

    def write(self, path: Path) -> None:
        """Write every span, with its self time, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s["start"] for s in self.spans), default=0.0)
        by_parent: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                by_parent.setdefault(s["parent"], []).append(s)
        rows = [
            {
                "id": s["id"],
                "name": s["name"],
                "parent": s["parent"],
                "start_s": s["start"] - origin,
                "dur_s": s["end"] - s["start"],
                "self_s": self.self_time(s, by_parent.get(s["id"], [])),
                **({"attrs": s["attrs"]} if s["attrs"] else {}),
            }
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}, indent=1) + "\n")
