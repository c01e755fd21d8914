"""Trace exporters: Chrome/Perfetto trace-event JSON, VCD, JSONL metrics.

:class:`TraceCollector` is a probe-bus listener that buffers raw events
(operator firings with their service intervals, memory accesses with
their hierarchy level, LSQ occupancy samples) with a hard cap so a
runaway simulation cannot exhaust memory. It records one entry per
firing, so its per-node counts equal ``DataflowResult.fire_counts``.
The exporters are pure functions over a collector (plus the graph for
labels):

- :func:`export_chrome_trace` writes trace-event JSON that loads in
  ``chrome://tracing`` and https://ui.perfetto.dev — one track per
  operator (complete "X" events, 1 µs = 1 cycle), a memory track, and an
  LSQ-occupancy counter series;
- :func:`export_vcd` writes a Value Change Dump viewable in GTKWave: an
  8-bit per-cycle firing-count signal per (busiest) operator and a
  16-bit LSQ-depth signal, timescale 1 ns = 1 cycle;
- :func:`export_jsonl` streams a :class:`ProfileReport` as one JSON
  object per line (summary, then per-node, per-opcode and critical-path
  rows) for downstream metric pipelines;
- :func:`render_timeline` draws a per-node text activity strip and
  :func:`busiest_nodes` ranks operators by firings — the loop-carried
  recurrence typically shows up as the densest strip.

:func:`validate_trace_events` checks a payload against the trace-event
format contract (the subset this module emits) and is used by tests and
the CI profile-smoke job. :func:`trace_envelope`,
:func:`process_name_event` and :func:`write_trace_json` build and write
the payload for both trace-event emitters: the cycle timelines here and
the wall-clock spans of :func:`repro.observe.tracing.trace_events`.
"""

from __future__ import annotations

import json

from repro.pegasus import nodes as N
from repro.observe.critpath import categorize
from repro.observe.profiler import opcode


class TraceCollector:
    """Buffers displayable events from one simulation, with a cap.

    Every firing appends ``(node id, start, done)`` with ``done ==
    start``; the emit that follows it closes the interval. A firing
    that emits nothing (an eta whose predicate is false, the return)
    keeps its zero-length interval, and an emit with no firing behind it
    (the priming token of an initial-token node) records nothing.
    """

    def __init__(self, limit: int = 1_000_000):
        self.limit = limit
        self.fires: list[tuple[int, int, int]] = []   # (node id, start, done)
        self.mem: list[tuple[int, int, int, str, bool]] = []
        self.lsq: list[tuple[int, int]] = []           # (cycle, depth)
        self.dropped = 0
        self._open: dict[int, int] = {}   # node id -> index into fires

    def _full(self) -> bool:
        if (len(self.fires) + len(self.mem) + len(self.lsq)) >= self.limit:
            self.dropped += 1
            return True
        return False

    def on_fire(self, node: N.Node, time: int) -> None:
        if self._full():
            self._open.pop(node.id, None)
            return
        self._open[node.id] = len(self.fires)
        self.fires.append((node.id, time, time))

    def on_emit(self, node: N.Node, outputs, at: int) -> None:
        index = self._open.pop(node.id, None)
        if index is not None:
            node_id, start, _ = self.fires[index]
            self.fires[index] = (node_id, start, at)

    def on_mem_access(self, now: int, start: int, done: int, addr: int,
                      width: int, is_write: bool, level: str,
                      tlb_miss: bool) -> None:
        if not self._full():
            self.mem.append((now, start, done, level, is_write))

    def on_lsq(self, now: int, depth: int, port_wait: int) -> None:
        if not self._full():
            self.lsq.append((now, depth))

    def counts(self) -> dict[int, int]:
        """Recorded firings per node id."""
        counts: dict[int, int] = {}
        for node_id, _start, _done in self.fires:
            counts[node_id] = counts.get(node_id, 0) + 1
        return counts

    @property
    def span(self) -> tuple[int, int]:
        """First and last recorded firing cycle (``(0, 0)`` if none)."""
        if not self.fires:
            return (0, 0)
        starts = [start for _, start, _ in self.fires]
        return (min(starts), max(starts))


# ----------------------------------------------------------------------
# Text timeline


def busiest_nodes(collector: TraceCollector, graph,
                  top: int = 10) -> list[tuple[N.Node, int]]:
    """Nodes ranked by firing count, busiest first."""
    ranked = sorted(collector.counts().items(),
                    key=lambda item: (-item[1], item[0]))
    return [(graph.nodes[node_id], count)
            for node_id, count in ranked[:top] if node_id in graph.nodes]


def render_timeline(collector: TraceCollector, graph, width: int = 64,
                    top: int = 12) -> str:
    """A per-node activity strip over the simulated interval.

    Each row is one of the busiest nodes; each column a time bucket;
    the glyph encodes how many firings landed in the bucket
    (``.`` none, ``-`` one, ``=`` a few, ``#`` many).
    """
    start, end = collector.span
    if end <= start:
        return "(no events)"
    bucket_span = max(1, (end - start + 1) // width)
    per_node: dict[int, list[int]] = {}
    for node_id, time, _done in collector.fires:
        buckets = per_node.setdefault(node_id, [0] * (width + 1))
        buckets[min((time - start) // bucket_span, width)] += 1

    lines = [f"timeline: cycles {start}..{end}, "
             f"{bucket_span} cycle(s) per column"]
    for node, _count in busiest_nodes(collector, graph, top):
        strip = "".join(_glyph(count)
                        for count in per_node.get(node.id, [])[:width])
        label = f"{node.label()}#{node.id}"
        lines.append(f"{label:>18s} |{strip}|")
    return "\n".join(lines)


def _glyph(count: int) -> str:
    if count == 0:
        return "."
    if count == 1:
        return "-"
    if count <= 4:
        return "="
    return "#"


# ----------------------------------------------------------------------
# Chrome / Perfetto trace-event JSON


def chrome_trace_events(collector: TraceCollector, graph) -> dict:
    """The trace-event payload as a dict (see `Trace Event Format`_).

    .. _Trace Event Format: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
    """
    events: list[dict] = []
    named: set[int] = set()
    for node_id, start, done in collector.fires:
        node = graph.nodes.get(node_id)
        label = f"{node.label()}#{node_id}" if node else f"#{node_id}"
        category = categorize(node) if node else "control"
        if node_id not in named:
            named.add(node_id)
            events.append({
                "ph": "M", "pid": 1, "tid": node_id,
                "name": "thread_name", "args": {"name": label},
            })
        events.append({
            "ph": "X", "pid": 1, "tid": node_id, "name": label,
            "cat": category, "ts": start, "dur": max(done - start, 0),
            "args": {"cycle": start},
        })
    for now, start, done, level, is_write in collector.mem:
        events.append({
            "ph": "X", "pid": 2, "tid": 1,
            "name": f"{'store' if is_write else 'load'}@{level}",
            "cat": "memory", "ts": now, "dur": max(done - now, 0),
            "args": {"level": level, "queued": start - now},
        })
    for now, depth in collector.lsq:
        events.append({
            "ph": "C", "pid": 2, "name": "lsq_occupancy",
            "ts": now, "args": {"depth": depth},
        })
    if collector.mem or collector.lsq:
        events.append(process_name_event(2, 1, "memory system"))
    events.append(process_name_event(1, 0, f"circuit: {graph.name}"))
    return trace_envelope(events, graph=graph.name,
                          dropped_events=collector.dropped)


def export_chrome_trace(collector: TraceCollector, graph, path) -> dict:
    """Write the Perfetto-loadable JSON to ``path``; returns the payload."""
    return write_trace_json(chrome_trace_events(collector, graph), path)


def process_name_event(pid: int, tid: int, name: str) -> dict:
    """The ``M`` metadata event naming process ``pid``'s track."""
    return {"ph": "M", "pid": pid, "tid": tid, "name": "process_name",
            "args": {"name": name}}


def trace_envelope(events: list[dict], **other_data) -> dict:
    """The trace-event payload around ``events``, with ``other_data``
    as its ``otherData`` object."""
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": other_data,
    }


def write_trace_json(payload: dict, path) -> dict:
    """Write a trace-event payload to ``path``; returns the payload."""
    with open(path, "w") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return payload


#: Required keys per event phase, for :func:`validate_trace_events`.
_PHASE_REQUIRED = {
    "X": ("pid", "tid", "name", "ts", "dur"),
    "M": ("pid", "name", "args"),
    "C": ("pid", "name", "ts", "args"),
}


def validate_trace_events(payload) -> list[str]:
    """Schema check of a trace-event payload; returns problems ([] = ok)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        phase = event.get("ph")
        if phase not in _PHASE_REQUIRED:
            problems.append(f"event {index}: unknown phase {phase!r}")
            continue
        for key in _PHASE_REQUIRED[phase]:
            if key not in event:
                problems.append(f"event {index} ({phase}): missing {key!r}")
        if "ts" in event and (not isinstance(event["ts"], (int, float))
                              or event["ts"] < 0):
            problems.append(f"event {index}: bad ts {event['ts']!r}")
        if phase == "X" and (not isinstance(event.get("dur"), (int, float))
                             or event["dur"] < 0):
            problems.append(f"event {index}: bad dur {event.get('dur')!r}")
        if len(problems) > 20:
            problems.append("... further problems suppressed")
            break
    return problems


# ----------------------------------------------------------------------
# VCD


def _vcd_identifier(index: int) -> str:
    # Printable VCD id characters, excluding whitespace.
    alphabet = "".join(chr(c) for c in range(33, 127))
    if index == 0:
        return alphabet[0]
    out = []
    while index:
        index, digit = divmod(index, len(alphabet))
        out.append(alphabet[digit])
    return "".join(out)


def export_vcd(collector: TraceCollector, graph, path, top: int = 64) -> int:
    """Write per-cycle activity waveforms to ``path``; returns the number
    of signals emitted.

    Each of the ``top`` busiest operators becomes an 8-bit
    firings-this-cycle signal; the LSQ depth becomes a 16-bit signal.
    Opens directly in GTKWave (`1 ns` = one simulated cycle).
    """
    per_node: dict[int, dict[int, int]] = {}
    for node_id, start, _done in collector.fires:
        cycle_counts = per_node.setdefault(node_id, {})
        cycle_counts[start] = cycle_counts.get(start, 0) + 1
    busiest = sorted(per_node.items(),
                     key=lambda item: (-sum(item[1].values()), item[0]))[:top]
    lsq_by_cycle: dict[int, int] = {}
    for now, depth in collector.lsq:
        lsq_by_cycle[now] = max(depth, lsq_by_cycle.get(now, 0))

    signals: list[tuple[str, str, int, dict[int, int]]] = []
    for serial, (node_id, cycle_counts) in enumerate(busiest):
        node = graph.nodes.get(node_id)
        label = f"{node.label()}#{node_id}" if node else f"node{node_id}"
        safe = "".join(ch if ch.isalnum() or ch in "_#" else "_"
                       for ch in label)
        signals.append((_vcd_identifier(serial), safe, 8, cycle_counts))
    if lsq_by_cycle:
        signals.append((_vcd_identifier(len(signals)), "lsq_depth", 16,
                        lsq_by_cycle))

    changes: dict[int, list[tuple[str, int, int]]] = {}
    for ident, _name, width, by_cycle in signals:
        previous = 0
        for cycle in sorted(by_cycle):
            value = by_cycle[cycle]
            if value != previous:
                changes.setdefault(cycle, []).append((ident, value, width))
                previous = value
            # Activity-count signals drop back to zero the next cycle so
            # each firing renders as a pulse, not a level.
            if by_cycle is not lsq_by_cycle and value != 0 \
                    and (cycle + 1) not in by_cycle:
                changes.setdefault(cycle + 1, []).append((ident, 0, width))
                previous = 0

    with open(path, "w") as handle:
        handle.write("$date repro observability export $end\n")
        handle.write(f"$comment graph {graph.name} $end\n")
        handle.write("$timescale 1ns $end\n")
        handle.write(f"$scope module {_safe_module(graph.name)} $end\n")
        for ident, name, width, _by_cycle in signals:
            handle.write(f"$var wire {width} {ident} {name} $end\n")
        handle.write("$upscope $end\n$enddefinitions $end\n")
        handle.write("$dumpvars\n")
        for ident, _name, width, _by_cycle in signals:
            handle.write(f"b0 {ident}\n")
        handle.write("$end\n")
        for cycle in sorted(changes):
            handle.write(f"#{cycle}\n")
            for ident, value, width in changes[cycle]:
                handle.write(f"b{value:b} {ident}\n")
    return len(signals)


def _safe_module(name: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return safe or "circuit"


# ----------------------------------------------------------------------
# JSONL metrics


def export_jsonl(report, path) -> int:
    """Stream a :class:`ProfileReport` as JSON lines; returns line count."""
    lines = [{
        "kind": "summary",
        "graph": report.graph_name,
        "cycles": report.cycles,
        "fired": report.fired,
        "memsys": report.memsys_name,
        "memory": {
            "levels": dict(report.mem_levels),
            "reads": report.mem_reads,
            "writes": report.mem_writes,
            "tlb_misses": report.mem_tlb_misses,
        },
    }]
    for name, count in sorted(report.opcode_fires.items()):
        lines.append({"kind": "opcode", "opcode": name, "fires": count})
    for node in report.nodes:
        lines.append({
            "kind": "node", "id": node.node_id, "label": node.label,
            "opcode": node.opcode, "fires": node.fires,
            "busy_cycles": node.busy_cycles,
            "occupancy": round(node.occupancy, 6),
            "max_queue_depth": node.max_queue_depth,
        })
    if report.critical_path is not None:
        critical = report.critical_path
        lines.append({
            "kind": "critical_path",
            "cycles": critical.cycles,
            "by_category": dict(critical.by_category),
            "chain_length": critical.chain_length,
        })
    with open(path, "w") as handle:
        for line in lines:
            handle.write(json.dumps(line, sort_keys=True))
            handle.write("\n")
    return len(lines)
