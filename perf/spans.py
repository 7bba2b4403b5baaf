"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``{workload, request, name, layer, start, end, parent}``; spans of
one request share its ``request`` id and ``parent`` is the index of the span
that caused this one (``None`` for a request's root).  Spans live in a list
until the traced round ends and are then written out as JSON lines.  A
layer's self time is its spans' duration minus what their child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

__all__ = ["Recorder"]


class Recorder:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[dict] = []
        self._open: List[int] = []
        self._request = -1

    def begin_request(self) -> int:
        self._request += 1
        return self._request

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[dict]:
        record = self.add(name, layer, time.perf_counter(), None, self._open[-1] if self._open else None)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(
        self, name: str, layer: str, start: float, end: Optional[float], parent: Optional[int]
    ) -> dict:
        record = {
            "workload": self.workload, "request": self._request, "name": name,
            "layer": layer, "start": start, "end": end, "parent": parent,
        }
        self.spans.append(record)
        return record

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer: each span's duration minus the part of it that
        its child spans cover (children may overlap: concurrent site rounds)."""
        children: Dict[int, List[tuple]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            covered, reached = 0.0, span["start"]
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, reached), min(end, span["end"])
                if end > start:
                    covered += end - start
                    reached = end
            own = span["end"] - span["start"] - covered
            totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
