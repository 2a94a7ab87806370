"""In-memory spans around the benchmark's calls into each layer.

A span has a name, a start, an end and the span that was open when it
began.  Spans stay in memory until the run ends and are then written out in
one file.  A span's self time is its duration minus the time its child spans
cover; the benchmark's spans only wrap calls into the package, so a layer
span's self time is the time spent in that call.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def self_times(self) -> dict[str, list[float]]:
        """Self time of every span, grouped by name."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name].append(end - start - child_time[index])
        return out

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]


class NullTracer:
    """Stands in for Tracer when tracing is off; records nothing."""

    def span(self, name: str):
        return nullcontext()
