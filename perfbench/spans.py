"""In-memory span recording for the traced benchmark run.

A span is recorded around every call the benchmark makes into a public
function of ``lct_numra``.  Spans stay in memory and are written out once,
when the run ends.  The untraced run uses ``NullTracer``, whose ``call`` is
a plain function call, so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One timed call: name, start/end (perf_counter s), parent index, job id."""

    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Value:
    """A measured quantity recorded at a layer boundary (error, count, bytes)."""

    name: str
    value: float
    job: str | None
    attrs: dict = field(default_factory=dict)


class NullTracer:
    """Tracer that records nothing; used for the end-to-end (untraced) run."""

    enabled = False
    job: str | None = None

    def call(self, name, fn, *args, _attrs=None, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, **attrs):
        yield

    def value(self, name, value, **attrs) -> None:
        pass


class Tracer(NullTracer):
    """Records spans and values in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.values: list[Value] = []
        self._stack: list[int] = []
        self.job = None

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.job, attrs)

    def call(self, name, fn, *args, _attrs=None, **kwargs):
        with self.span(name, **(_attrs or {})):
            return fn(*args, **kwargs)

    def value(self, name, value, **attrs) -> None:
        self.values.append(Value(name, float(value), self.job, attrs))

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.seconds
        return [s.seconds - c for s, c in zip(self.spans, child_time)]

    def summary(self) -> dict:
        """Per span name: call count, total and self seconds."""
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_seconds()):
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.seconds
            row["self_s"] += own
        return out

    def write(self, path, header: dict) -> None:
        payload = {
            **header,
            "summary": self.summary(),
            "spans": [asdict(s) for s in self.spans],
            "values": [asdict(v) for v in self.values],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
