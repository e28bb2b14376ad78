"""In-memory spans recorded by the benchmark around its calls into latcoset.

Each span has a name, start and end (``perf_counter`` seconds), the index
of its parent span, the op it belongs to and free-form counts (trials,
points, ...).  Spans are only appended to a list while the run goes on and
written out once, at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from stats import self_time


class Tracer:
    def __init__(self):
        self.spans = []   # dicts: name, start, end, parent, op, counts
        self._stack = []  # indices of the open spans

    @contextmanager
    def span(self, name: str, op=None, **counts):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "op": op, "counts": counts}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def with_self_times(self) -> list[dict]:
        """Copies of the spans with ``dur`` and ``self`` (duration minus child cover)."""
        children = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for i, s in enumerate(self.spans):
            rec = dict(s, dur=s["end"] - s["start"],
                       self=self_time(s["start"], s["end"], children.get(i, ())))
            out.append(rec)
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.with_self_times()) + "\n")
