"""In-memory spans for the benchmark's traced pass.

A span records a name, a start and an end (``time.perf_counter`` seconds)
and the index of the span that was open when it began.  Spans stay in memory
until ``write`` puts them out as JSON lines at the end of the pass.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": 0.0, "end": 0.0}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def totals(self, since: int = 0) -> dict[str, float]:
        """Summed duration per span name, over the spans from index ``since``."""
        out: dict[str, float] = {}
        for record in self.spans[since:]:
            out[record["name"]] = out.get(record["name"], 0.0) + record["end"] - record["start"]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
