"""Execution tracing: the trace collector and its text timeline."""

from repro import compile_minic
from repro.observe import (
    Observation,
    TraceCollector,
    busiest_nodes,
    render_timeline,
)

SOURCE = """
int a[32];
int f(int n) {
    int i; int s = 0;
    for (i = 0; i < n; i++) { a[i] = i * 3; s += a[i]; }
    return s;
}
"""


def traced_run(args, level="none"):
    program = compile_minic(SOURCE, "f", opt_level=level)
    obs = Observation(profile=False, critical_path=False, trace=True)
    result = program.simulate(list(args), probes=obs.bus)
    return program, obs.collector, result


class TestRecorder:
    def test_events_collected(self):
        _, collector, result = traced_run([8])
        assert len(collector.fires) == result.fired

    def test_span_covers_run(self):
        _, collector, result = traced_run([8])
        start, end = collector.span
        assert start == 0
        assert end <= result.cycles

    def test_attach_does_not_change_results(self):
        program = compile_minic(SOURCE, "f", opt_level="full")
        plain = program.simulate([10])
        _, _, traced = traced_run([10], level="full")
        assert plain.return_value == traced.return_value
        assert plain.cycles == traced.cycles

    def test_empty_recorder_span(self):
        assert TraceCollector().span == (0, 0)

    def test_same_cycle_refire_is_not_dropped(self):
        # Regression: an earlier recorder deduplicated against the
        # previous event, silently dropping a second firing of the same
        # node in the same cycle (a pipelined operator draining two
        # queued values). Each firing gets its own entry, and each emit
        # closes the entry of the firing that produced it.
        class Node:
            id = 7

        collector = TraceCollector()
        collector.on_fire(Node(), 5)
        collector.on_emit(Node(), {0: 1}, 6)
        collector.on_fire(Node(), 5)
        collector.on_emit(Node(), {0: 2}, 7)
        assert collector.fires == [(7, 5, 6), (7, 5, 7)]
        assert collector.counts() == {7: 2}

    def test_counts_share_the_simulator_counter(self):
        _, collector, result = traced_run([8])
        assert collector.counts() == result.fire_counts


class TestReports:
    def test_busiest_nodes_ranked(self):
        program, collector, _ = traced_run([12])
        ranked = busiest_nodes(collector, program.graph, top=5)
        assert len(ranked) == 5
        counts = [count for _, count in ranked]
        assert counts == sorted(counts, reverse=True)
        # Loop plumbing fires once per iteration: the busiest node fires at
        # least n times.
        assert counts[0] >= 12

    def test_timeline_renders(self):
        program, collector, _ = traced_run([12])
        text = render_timeline(collector, program.graph, width=40, top=6)
        lines = text.splitlines()
        assert lines[0].startswith("timeline:")
        assert len(lines) == 7
        assert all("|" in line for line in lines[1:])

    def test_timeline_empty(self):
        program = compile_minic(SOURCE, "f")
        assert render_timeline(TraceCollector(), program.graph) \
            == "(no events)"
