"""In-memory spans for the traced run.

A span has a name, a start, an end and the span that was open when it began.
Spans are recorded only around calls the benchmark itself makes into dfanet;
no module of the program is edited or patched.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total_seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def mean_ms(self, name: str) -> float:
        count = len(self.named(name))
        if not count:
            raise KeyError(f"no span named {name!r}")
        return 1000.0 * self.total_seconds(name) / count

    def covered_seconds(self, span: dict) -> float:
        """Time covered by the span's children (spans of one thread never overlap)."""
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] == span["id"])

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def maybe_span(tracer: Tracer | None, name: str):
    """A span when tracing, otherwise a context that records nothing."""
    return tracer.span(name) if tracer is not None else nullcontext()
