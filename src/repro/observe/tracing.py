"""Distributed tracing: one correlated timeline across processes.

The observability built so far answers "why was this simulation slow"
(probe bus, profiler, critical path) and "what did this run produce"
(telemetry RunRecords) — but the system is distributed now: a service
request fans into a batcher, a pool worker, a scheduler attempt, maybe
a remote worker under a lease, and no single artifact shows where the
wall-clock went *across* those processes. This module is that artifact:

- a **span** is ``(trace_id, span_id, parent_id, name, tags,
  start/end in wall-clock ns)``; spans form a tree rooted at the sweep
  or service request that started the trace;
- an ambient :class:`Tracer` (same stack discipline as
  :class:`~repro.observe.telemetry.TelemetrySession`) makes
  :func:`span` a one-``if`` no-op when tracing is off — instrumented
  code tags unconditionally and pays nothing unless someone is tracing;
- every process appends its spans to its **own JSONL shard**
  (``shard-<host>-<pid>.jsonl`` under the trace directory), written
  through :class:`~repro.orchestrate.journal.Journal` so a process
  SIGKILLed mid-write leaves a torn tail that heals on load exactly
  like a sweep journal shard;
- the ambient context crosses process boundaries as a plain dict
  (:func:`propagation_context` on the sending side,
  :func:`adopt_context` in the worker), so a remote worker's job span
  parents under the coordinator's sweep span with no protocol changes;
- :func:`read_trace` merges the shards on demand (read-only, torn
  tails healed) and :func:`trace_events` renders the span tree as
  Chrome/Perfetto trace-event JSON that passes
  :func:`~repro.observe.export.validate_trace_events` — one process
  per track, µs timestamps relative to the trace start.

Timestamps are ``time.time_ns()`` (wall clock), not monotonic ns:
monotonic clocks are incomparable across processes, and a distributed
timeline is exactly the cross-process case. Same-host skew is sub-µs;
cross-host skew is whatever NTP leaves (the tags carry ``host`` so a
skewed remote track is at least attributable).

CLI (``repro trace ...``)::

    repro trace list
    repro trace show fig19            # span tree, by sweep/tag/id prefix
    repro trace export fig19 --out fig19.json   # Perfetto JSON
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.observe.export import (
    process_name_event,
    trace_envelope,
    write_trace_json,
)

#: Trace shards land here unless a Tracer names its own directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"
DEFAULT_TRACE_DIR = ".repro/traces"

#: Journal entry statuses for spans: ``span-open`` is written when a
#: span starts (so a SIGKILLed process leaves evidence of in-flight
#: work), ``span`` supersedes it (same key) when the span finishes.
SPAN_OPEN = "span-open"
SPAN_DONE = "span"

# Innermost-active-tracer stack (per process), mirroring telemetry's
# _ACTIVE; the (trace_id, span_id) cursor is a ContextVar so concurrent
# asyncio tasks / threads each see their own current span.
_TRACERS: list["Tracer"] = []
_CONTEXT: ContextVar[tuple[str, str] | None] = ContextVar(
    "repro_trace_context", default=None)

# Tracers materialized by adopt_context, cached per (dir, pid) so a
# worker looping over jobs reuses one shard journal.
_ADOPTED: dict[tuple[str, int], "Tracer"] = {}


def current_tracer() -> "Tracer | None":
    """The innermost active tracer, or None (tracing inert)."""
    return _TRACERS[-1] if _TRACERS else None


def current_trace_id() -> str | None:
    """The ambient trace id, or None outside any span / without a
    tracer — how RunRecords and trace spans share an identity."""
    if not _TRACERS:
        return None
    current = _CONTEXT.get()
    return current[0] if current else None


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One timed, tagged interval in one process."""

    trace: str
    span: str
    parent: str | None
    name: str
    start_ns: int
    end_ns: int | None = None
    tags: dict = field(default_factory=dict)
    host: str = ""
    pid: int = 0
    ok: bool = True
    error: str | None = None

    @property
    def duration_ns(self) -> int:
        return 0 if self.end_ns is None else self.end_ns - self.start_ns

    @property
    def open(self) -> bool:
        """True for a span whose process died before finishing it."""
        return self.end_ns is None

    def to_entry(self, status: str) -> dict:
        """The journal-shard line for this span (``key``/``status`` are
        the Journal contract; ``ts`` is the merge tiebreaker, so the
        finished entry always supersedes the open one)."""
        entry = {"key": self.span, "status": status, "name": self.name,
                 "trace": self.trace, "parent": self.parent,
                 "start_ns": self.start_ns, "end_ns": self.end_ns,
                 "tags": dict(self.tags), "host": self.host,
                 "pid": self.pid, "ok": self.ok,
                 "ts": round(time.time(), 6)}
        if self.error is not None:
            entry["error"] = self.error
        return entry

    @classmethod
    def from_entry(cls, entry: dict) -> "Span":
        return cls(trace=entry.get("trace", ""), span=entry["key"],
                   parent=entry.get("parent"),
                   name=entry.get("name", entry["key"]),
                   start_ns=int(entry.get("start_ns", 0)),
                   end_ns=entry.get("end_ns"),
                   tags=dict(entry.get("tags") or {}),
                   host=entry.get("host", ""),
                   pid=int(entry.get("pid", 0)),
                   ok=bool(entry.get("ok", True)),
                   error=entry.get("error"))


class Tracer:
    """Appends finished spans to this process's shard file.

    A context manager: entering pushes it onto the ambient stack (so
    :func:`span` starts recording), exiting pops it. The shard path is
    keyed by host and pid and re-derived on every write, so a forked
    child that inherits the parent's tracer object transparently gets
    its own shard instead of interleaving appends into the parent's.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        root = root or os.environ.get(TRACE_DIR_ENV) or DEFAULT_TRACE_DIR
        self.root = Path(root).resolve()
        self.host = socket.gethostname()
        #: Trace ids of root spans started under this tracer, in order
        #: (how ``sweep run --trace`` finds what to export).
        self.traces: list[str] = []
        self._journal = None
        self._journal_pid: int | None = None

    # ------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        _TRACERS.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TRACERS.remove(self)

    # ------------------------------------------------------------------

    def _shard(self):
        """This process's shard journal (re-targeted after a fork)."""
        from repro.orchestrate.journal import Journal, shard_path
        pid = os.getpid()
        if self._journal is None or self._journal_pid != pid:
            self.root.mkdir(parents=True, exist_ok=True)
            self._journal = Journal(shard_path(self.root,
                                               f"{self.host}-{pid}"))
            self._journal_pid = pid
        return self._journal

    def write(self, span: Span, status: str = SPAN_DONE) -> None:
        span.host = span.host or self.host
        span.pid = span.pid or os.getpid()
        self._shard().absorb(span.to_entry(status))


# ----------------------------------------------------------------------
# The ambient span API — what instrumented code calls.


@contextmanager
def span(name: str, **tags):
    """Record one span around the block; a no-op yielding None when no
    tracer is active (the zero-cost guard every call site relies on).

    Without an enclosing span a fresh ``trace_id`` is minted and this
    span becomes a root; otherwise it parents under the ambient span.
    ``None``-valued tags are dropped so call sites can pass optional
    identity fields unconditionally.
    """
    tracer = current_tracer()
    if tracer is None:
        yield None
        return
    parent = _CONTEXT.get()
    trace_id = parent[0] if parent else _new_id()
    current = Span(
        trace=trace_id, span=_new_id(),
        parent=parent[1] if parent else None, name=name,
        start_ns=time.time_ns(),
        tags={key: value for key, value in tags.items()
              if value is not None})
    if parent is None:
        tracer.traces.append(trace_id)
    token = _CONTEXT.set((current.trace, current.span))
    tracer.write(current, SPAN_OPEN)
    try:
        yield current
    except BaseException as error:
        current.ok = False
        current.error = f"{type(error).__name__}: {error}"
        raise
    finally:
        current.end_ns = time.time_ns()
        tracer.write(current, SPAN_DONE)
        _CONTEXT.reset(token)


def propagation_context() -> dict | None:
    """The ambient trace position as a picklable dict, or None.

    Ship this across a process boundary and hand it to
    :func:`adopt_context` on the far side; spans opened there parent
    under the sending side's current span and append to the *worker's
    own* shard in the same trace directory.
    """
    tracer = current_tracer()
    if tracer is None:
        return None
    current = _CONTEXT.get()
    return {"dir": str(tracer.root),
            "trace": current[0] if current else None,
            "span": current[1] if current else None}


@contextmanager
def adopt_context(ctx: dict | None):
    """Continue a propagated trace in this process.

    No-op for ``ctx=None`` (the caller was not tracing). Otherwise
    ensures a tracer writing to this process's shard under
    ``ctx["dir"]`` is active (reusing a cached one across jobs —
    shards are append-only, so one Journal per (dir, pid) is enough)
    and positions the ambient cursor at the propagated span.
    """
    if not ctx or not ctx.get("dir"):
        yield
        return
    pushed = None
    if current_tracer() is None:
        key = (str(ctx["dir"]), os.getpid())
        pushed = _ADOPTED.get(key)
        if pushed is None:
            pushed = Tracer(ctx["dir"])
            _ADOPTED[key] = pushed
        _TRACERS.append(pushed)
    position = None
    if ctx.get("trace") and ctx.get("span"):
        position = (ctx["trace"], ctx["span"])
    token = _CONTEXT.set(position)
    try:
        yield
    finally:
        _CONTEXT.reset(token)
        if pushed is not None:
            _TRACERS.remove(pushed)


# ----------------------------------------------------------------------
# Merging and rendering — the coordinator/CLI side.


def read_trace(root: str | os.PathLike | None = None,
               trace_id: str | None = None) -> list[Span]:
    """Merged spans from every shard under ``root`` (torn tails healed
    by the Journal loader), optionally filtered to one trace, sorted by
    start time. Spans whose process died mid-flight come back with
    ``end_ns=None`` (``span.open``)."""
    from repro.orchestrate.journal import read_shards
    root = Path(root or os.environ.get(TRACE_DIR_ENV) or DEFAULT_TRACE_DIR)
    spans = [Span.from_entry(entry)
             for entry in read_shards(root).values()
             if entry.get("status") in (SPAN_OPEN, SPAN_DONE)]
    if trace_id is not None:
        spans = [s for s in spans if s.trace == trace_id]
    return sorted(spans, key=lambda s: (s.start_ns, s.span))


def list_traces(root: str | os.PathLike | None = None) -> list[dict]:
    """One summary per trace id found under ``root``, oldest first."""
    by_trace: dict[str, list[Span]] = {}
    for item in read_trace(root):
        by_trace.setdefault(item.trace, []).append(item)
    summaries = []
    for trace_id, spans in by_trace.items():
        roots = [s for s in spans if s.parent is None]
        root_span = roots[0] if roots else spans[0]
        ends = [s.end_ns for s in spans if s.end_ns is not None]
        summaries.append({
            "trace": trace_id,
            "root": root_span.name,
            "tags": dict(root_span.tags),
            "spans": len(spans),
            "open": sum(1 for s in spans if s.open),
            "hosts": sorted({f"{s.host}-{s.pid}" for s in spans}),
            "start_ns": min(s.start_ns for s in spans),
            "duration_ns": (max(ends) - min(s.start_ns for s in spans)
                            if ends else 0),
        })
    return sorted(summaries, key=lambda s: s["start_ns"])


def find_trace_id(root: str | os.PathLike | None, needle: str) -> str:
    """Resolve a CLI operand to one trace id.

    Matches, in order: a trace-id prefix, a root span name (with or
    without its ``sweep:``/``request:`` prefix), any root-span tag
    value (dag, session, request, ...). Ambiguity and absence raise.
    """
    summaries = list_traces(root)
    if not summaries:
        raise ReproError(f"no traces under "
                         f"{root or os.environ.get(TRACE_DIR_ENV) or DEFAULT_TRACE_DIR}")
    matches = [s for s in summaries if s["trace"].startswith(needle)]
    if not matches:
        matches = [s for s in summaries
                   if s["root"] == needle
                   or s["root"].split(":", 1)[-1] == needle
                   or needle in {str(v) for v in s["tags"].values()}]
    if not matches:
        names = ", ".join(sorted({s["root"] for s in summaries}))
        raise ReproError(f"no trace matches {needle!r} (have: {names})")
    if len(matches) > 1:
        # Prefer the newest when a sweep name matches several runs.
        matches = [max(matches, key=lambda s: s["start_ns"])]
    return matches[0]["trace"]


def span_children(spans: list[Span]) -> dict[str | None, list[Span]]:
    """parent span id -> children, each list in start order. Children
    whose parent span is absent (a dead coordinator, a pruned shard)
    are grafted under ``None`` alongside the true roots — the tree
    renders and exports even from partial evidence."""
    present = {item.span for item in spans}
    children: dict[str | None, list[Span]] = {}
    for item in spans:
        parent = item.parent if item.parent in present else None
        children.setdefault(parent, []).append(item)
    return children


def render_tree(spans: list[Span]) -> str:
    """The span tree as indented text (``repro trace show``)."""
    if not spans:
        return "(no spans)"
    children = span_children(spans)
    lines: list[str] = []

    def visit(item: Span, depth: int) -> None:
        duration = (f"{item.duration_ns / 1e6:.2f} ms"
                    if not item.open else "OPEN (never finished)")
        status = "" if item.ok else "  FAILED"
        where = f"{item.host}-{item.pid}"
        tags = " ".join(f"{k}={v}" for k, v in sorted(item.tags.items()))
        lines.append(f"{'  ' * depth}{item.name}  [{duration}]  "
                     f"({where}){status}" + (f"  {tags}" if tags else ""))
        for child in children.get(item.span, []):
            visit(child, depth + 1)

    for root in children.get(None, []):
        visit(root, 0)
    return "\n".join(lines)


def trace_events(spans: list[Span]) -> dict:
    """A distributed trace as Chrome/Perfetto trace-event JSON.

    One pid per (host, pid) process, named by an ``M`` metadata event;
    one complete ``X`` event per span, timestamps in µs relative to the
    earliest span start (the validator requires ``ts >= 0``). Spans
    that never finished get ``dur=0`` and ``args.open=true`` so a
    crashed worker's in-flight work is still visible on the timeline.
    """
    events: list[dict] = []
    processes: dict[tuple[str, int], int] = {}
    base_ns = min((s.start_ns for s in spans), default=0)
    for item in spans:
        process = (item.host, item.pid)
        if process not in processes:
            processes[process] = len(processes) + 1
            events.append(process_name_event(processes[process], 1,
                                             f"{item.host}-{item.pid}"))
        args = {"trace": item.trace, "span": item.span, **item.tags}
        if item.open:
            args["open"] = True
        if item.error:
            args["error"] = item.error
        events.append({
            "ph": "X", "pid": processes[process], "tid": 1,
            "name": item.name, "cat": "ok" if item.ok else "error",
            "ts": (item.start_ns - base_ns) / 1e3,
            "dur": max(item.duration_ns, 0) / 1e3,
            "args": args,
        })
    return trace_envelope(events, spans=len(spans),
                          processes=len(processes),
                          traces=sorted({s.trace for s in spans}))


def export_trace(root: str | os.PathLike | None, needle: str,
                 path: str | os.PathLike) -> tuple[str, dict]:
    """Merge the shards, pick the trace ``needle`` names, write one
    Perfetto JSON file; returns ``(trace_id, payload)``."""
    trace_id = find_trace_id(root, needle)
    payload = write_trace_json(trace_events(read_trace(root, trace_id)),
                               path)
    return trace_id, payload


# ----------------------------------------------------------------------
# CLI: repro trace list/show/export


def build_trace_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Inspect and export distributed traces.")
    parser.add_argument("--dir", default=None, metavar="DIR",
                        help=f"trace directory (default: "
                             f"${TRACE_DIR_ENV} or {DEFAULT_TRACE_DIR})")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="the traces found in the shards")
    show_cmd = commands.add_parser(
        "show", help="span tree of one trace (by sweep/dag name, tag, "
                     "or trace-id prefix)")
    show_cmd.add_argument("needle")
    export_cmd = commands.add_parser(
        "export", help="write one merged Perfetto trace-event JSON file")
    export_cmd.add_argument("needle")
    export_cmd.add_argument("--out", required=True, metavar="FILE")
    return parser


def trace_main(argv: list[str] | None = None) -> int:
    import sys
    options = build_trace_parser().parse_args(argv)
    try:
        return _trace_command(options)
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _trace_command(options) -> int:
    if options.command == "list":
        summaries = list_traces(options.dir)
        if not summaries:
            print("no traces found")
            return 0
        for s in summaries:
            tags = " ".join(f"{k}={v}" for k, v in sorted(s["tags"].items()))
            note = f"  {s['open']} open" if s["open"] else ""
            print(f"{s['trace']}  {s['root']:24s} "
                  f"{s['spans']:4d} spans  "
                  f"{s['duration_ns'] / 1e6:9.1f} ms  "
                  f"{len(s['hosts'])} process(es){note}"
                  + (f"  {tags}" if tags else ""))
        return 0
    if options.command == "show":
        trace_id = find_trace_id(options.dir, options.needle)
        spans = read_trace(options.dir, trace_id)
        print(f"trace {trace_id}: {len(spans)} spans, "
              f"{len({(s.host, s.pid) for s in spans})} process(es)")
        print(render_tree(spans))
        return 0
    if options.command == "export":
        trace_id, payload = export_trace(options.dir, options.needle,
                                         options.out)
        from repro.observe.export import validate_trace_events
        problems = validate_trace_events(payload)
        events = len(payload["traceEvents"])
        print(f"trace {trace_id}: {events} events -> {options.out} "
              f"(open at https://ui.perfetto.dev)")
        if problems:
            print("validation problems: " + "; ".join(problems))
            return 1
        return 0
    raise AssertionError(f"unhandled command {options.command!r}")
