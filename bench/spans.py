"""Timing and span recording around calls into rolemine.

Every call the benchmark makes into the program goes through
`Recorder.call`, which times it with `time.perf_counter`.  With tracing on,
the recorder also keeps one span per call: name, the public function called,
start, end, the enclosing span, the operation id shared by all spans of one
operation, and the garbage-collector pause inside the span.  Spans stay in
memory until the run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    def __init__(self, tracing: bool) -> None:
        self.tracing = tracing
        self.op: str | None = None
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._origin = time.perf_counter()
        self._gc_s = 0.0
        self._gc_start = 0.0
        if tracing:
            gc.callbacks.append(self._on_gc)

    @property
    def gc_seconds(self) -> float:
        """Garbage-collector pause so far (tracing only)."""
        return self._gc_s

    def close(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
        else:
            self._gc_s += now - self._gc_start

    @contextmanager
    def span(self, name: str, call: str = ""):
        """Time the block; yields a dict whose "seconds" is set on exit."""
        timing = {"seconds": 0.0, "gc_s": 0.0}
        record = None
        if self.tracing:
            record = {
                "id": len(self.spans),
                "op": self.op,
                "parent": self._open[-1] if self._open else None,
                "name": name,
                "call": call,
            }
            self.spans.append(record)
            self._open.append(record["id"])
        gc_before = self._gc_s
        start = time.perf_counter()
        try:
            yield timing
        finally:
            end = time.perf_counter()
            timing["seconds"] = end - start
            timing["gc_s"] = self._gc_s - gc_before
            if record is not None:
                self._open.pop()
                record["start"] = start - self._origin
                record["end"] = end - self._origin
                record["gc_s"] = timing["gc_s"]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span; returns (result, seconds)."""
        with self.span(name, f"{fn.__module__}.{fn.__qualname__}") as timing:
            result = fn(*args, **kwargs)
        return result, timing["seconds"]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
