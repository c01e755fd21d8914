"""In-memory spans around calls into the system's public functions.

The benchmark times every layer from outside: :meth:`SpanRecorder.patch`
replaces a public function or method with a wrapper that records one
span per call and restores the original on :meth:`SpanRecorder.restore`.
Nothing under ``src/`` is edited. Spans stay in memory for the whole run
and are written once, at exit, as Perfetto trace-event JSON through the
system's own exporter (:func:`repro.observe.tracing.trace_events`), so
the file passes :func:`repro.observe.export.validate_trace_events`.

A layer's self time is its spans' duration minus the part covered by
their child spans; the self times of one span tree add up to its root's
duration, which is what lets ``residual_share`` say how much of the
timed region no layer accounts for.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One finished interval, in ``time.perf_counter_ns`` units."""

    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    thread: int
    tags: dict = field(default_factory=dict)


class SpanRecorder:
    """Collects spans from any thread; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._threads.setdefault(ident, len(self._threads) + 1)

    @contextmanager
    def span(self, name: str, **tags):
        """Record the enclosed block as a child of this thread's open span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end,
                                   self._thread(), tags))

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: int | None = None, **tags) -> int:
        """Record an interval whose ends were stamped elsewhere (the
        client-side phases of a service request)."""
        span_id = next(self._ids)
        self.spans.append(Span(span_id, parent, name, start_ns, end_ns,
                               self._thread(), tags))
        return span_id

    # ------------------------------------------------------------------

    def wrap(self, name: str, function):
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with recorder.span(name):
                return function(*args, **kwargs)
        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        self._patches.append((owner, attribute,
                              vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Layer name -> summed self time, in seconds."""
        covered: dict[int, int] = defaultdict(int)
        for item in self.spans:
            if item.parent is not None:
                covered[item.parent] += item.end_ns - item.start_ns
        totals: dict[str, float] = defaultdict(float)
        for item in self.spans:
            own = item.end_ns - item.start_ns - covered[item.id]
            totals[item.name] += own / 1e9
        return dict(totals)

    def counts(self) -> dict[str, int]:
        """Layer name -> number of spans (calls into it)."""
        totals: dict[str, int] = defaultdict(int)
        for item in self.spans:
            totals[item.name] += 1
        return dict(totals)

    def write_perfetto(self, path) -> dict:
        """Write every span as one Perfetto JSON file; returns the payload.

        Spans of one tree share a trace id (their root's); each client or
        worker thread gets its own track.
        """
        from repro.observe.tracing import Span as TraceSpan, trace_events

        parents = {item.id: item.parent for item in self.spans}

        def root(span_id: int) -> int:
            while parents.get(span_id) is not None:
                span_id = parents[span_id]
            return span_id

        pid = os.getpid()
        converted = [
            TraceSpan(trace=f"t{root(item.id)}", span=str(item.id),
                      parent=None if item.parent is None
                      else str(item.parent),
                      name=item.name, start_ns=item.start_ns,
                      end_ns=item.end_ns,
                      tags={**item.tags, "thread": item.thread},
                      host="e2e", pid=pid)
            for item in sorted(self.spans, key=lambda s: s.start_ns)]
        payload = trace_events(converted)
        for event in payload["traceEvents"]:
            if event["ph"] == "X":
                event["tid"] = event["args"]["thread"]
        with open(path, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")
        return payload


_ABSENT = object()
