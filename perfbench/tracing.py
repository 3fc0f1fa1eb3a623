"""In-memory spans around the benchmark's calls into engine layers.

A span records its name, start, end, parent span and pass id. Spans stay in
memory for the whole run and are written out once, at the end. A disabled
tracer records nothing, so traced and untraced passes run the same code.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = False
        self.pass_id: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name, "pass": self.pass_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, pass_id: int) -> dict[str, float]:
        """name -> summed self time (span minus its children) in one pass."""
        spans = [s for s in self.spans if s["pass"] == pass_id]
        child = {s["id"]: 0.0 for s in spans}
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in spans:
            own = (s["end"] - s["start"]) - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)
