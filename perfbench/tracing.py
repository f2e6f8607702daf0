"""Span recording for the traced benchmark run.

Two sources feed one :class:`SpanRecorder`:

* the benchmark's own spans around the public calls it makes
  (``bench.round``, ``serve.run``, ``backend.run``, ``simulation.query``);
* the program's existing ``repro.obs.profile.PROFILER`` sites. Each
  ``PROFILER.start()`` token is the start time of its interval, so every
  ``PROFILER.stop(name, token)`` call already describes one complete span.
  :func:`recording_profiler` swaps the profiler's class for a subclass
  whose ``stop`` hands that interval to the recorder. No site is added to
  the program, and the swap is undone when the traced phase ends.

Everything is single-threaded, so spans nest strictly. Parents, query
identifiers and self times (duration minus the part covered by child
spans) are reconstructed from the intervals after the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Iterator, Optional

from repro.obs.profile import PROFILER, Profiler


class Span:
    __slots__ = ("name", "start", "end", "query", "id", "parent", "child_time")

    def __init__(self, name: str, start: float, end: float, query: Optional[int]):
        self.name = name
        self.start = start
        self.end = end
        self.query = query
        self.id = -1
        self.parent = -1
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class SpanRecorder:
    """In-memory span store; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def add(self, name: str, start: float, end: float, query: Optional[int] = None) -> None:
        self.spans.append(Span(name, start, end, query))

    @contextlib.contextmanager
    def span(self, name: str, query: Optional[int] = None) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), query)

    def link(self) -> list[Span]:
        """Assign ids, parents, child time and query ids; return spans in
        start order.

        A ``serve.dispatch`` span takes the query id of the
        ``backend.run`` span it encloses; every other span without its
        own id inherits its parent's.
        """
        ordered = sorted(self.spans, key=lambda s: (s.start, -s.end))
        stack: list[Span] = []
        for i, span in enumerate(ordered):
            span.id = i
            while stack and stack[-1].end <= span.start:
                stack.pop()
            if stack:
                parent = stack[-1]
                span.parent = parent.id
                parent.child_time += span.duration
                if span.query is None:
                    span.query = parent.query
                elif parent.query is None and parent.name == "serve.dispatch":
                    parent.query = span.query
            stack.append(span)
        return ordered

    def write_jsonl(self, path: str, ordered: list[Span]) -> None:
        origin = ordered[0].start if ordered else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for span in ordered:
                out.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "parent": span.parent,
                            "name": span.name,
                            "query": span.query,
                            "start_us": round((span.start - origin) * 1e6, 3),
                            "dur_us": round(span.duration * 1e6, 3),
                            "self_us": round(span.self_time * 1e6, 3),
                        },
                        separators=(",", ":"),
                    )
                )
                out.write("\n")


class _RecordingProfiler(Profiler):
    """``Profiler`` whose ``stop`` records the interval as a span.

    Same (empty) slot layout as :class:`Profiler`, which is what lets
    :func:`recording_profiler` assign it to the live ``PROFILER``.
    """

    __slots__ = ()
    sink: Optional[SpanRecorder] = None

    def stop(self, name: str, token: Optional[float]) -> None:
        if token is None:
            return
        end = time.perf_counter()
        sink = _RecordingProfiler.sink
        if sink is not None:
            sink.spans.append(Span(name, token, end, None))


@contextlib.contextmanager
def recording_profiler(recorder: SpanRecorder) -> Iterator[None]:
    """Route every ``PROFILER`` site into ``recorder`` while active."""
    was_enabled = PROFILER.enabled
    original = type(PROFILER)
    _RecordingProfiler.sink = recorder
    PROFILER.__class__ = _RecordingProfiler
    PROFILER.enable()
    try:
        yield
    finally:
        PROFILER.__class__ = original
        _RecordingProfiler.sink = None
        if not was_enabled:
            PROFILER.disable()
