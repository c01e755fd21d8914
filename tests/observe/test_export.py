"""Exporters: Perfetto trace-event JSON, VCD waveforms, JSONL metrics."""

import json
from collections import Counter

import pytest

from repro import compile_minic
from repro.observe import Observation, validate_trace_events
from repro.sim.memsys import REALISTIC_MEMORY

SOURCE = """
int a[32];
int f(int n) {
    int i; int s = 0;
    for (i = 0; i < n; i++) { a[i] = i * 3; s += a[i]; }
    return s;
}
"""


@pytest.fixture(scope="module")
def observed():
    program = compile_minic(SOURCE, "f", opt_level="full")
    obs = Observation(trace=True)
    result = program.simulate([8], memsys=REALISTIC_MEMORY, profile=obs)
    return program, obs, result


class TestChromeTrace:
    def test_payload_passes_the_schema_check(self, observed, tmp_path):
        program, obs, _ = observed
        payload = obs.export_trace(program.graph, tmp_path / "run.json")
        assert validate_trace_events(payload) == []

    def test_written_file_is_valid_json(self, observed, tmp_path):
        program, obs, _ = observed
        path = tmp_path / "run.json"
        obs.export_trace(program.graph, path)
        payload = json.loads(path.read_text())
        assert validate_trace_events(payload) == []
        assert payload["otherData"]["dropped_events"] == 0

    def test_one_duration_event_per_emitting_firing(self, observed):
        from repro.observe import chrome_trace_events
        program, obs, result = observed
        payload = chrome_trace_events(obs.collector, program.graph)
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"
                    and e["pid"] == 1]
        # Firings that emit nothing (a false-predicate eta, the return)
        # still get a zero-length event, so events and firings agree.
        assert len(complete) == result.fired

    def test_memory_track_present(self, observed):
        from repro.observe import chrome_trace_events
        program, obs, result = observed
        payload = chrome_trace_events(obs.collector, program.graph)
        mem = [e for e in payload["traceEvents"]
               if e["ph"] == "X" and e["pid"] == 2]
        assert len(mem) == result.loads + result.stores
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert counters and all("depth" in e["args"] for e in counters)

    def test_validator_flags_garbage(self):
        assert validate_trace_events([]) == ["payload is not a JSON object"]
        assert validate_trace_events({"traceEvents": None})
        broken = {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1,
                                   "name": "x", "ts": -4, "dur": 1}]}
        assert any("bad ts" in problem
                   for problem in validate_trace_events(broken))


class TestVCD:
    def test_file_parses_and_values_fit_widths(self, observed, tmp_path):
        program, obs, _ = observed
        path = tmp_path / "run.vcd"
        signals = obs.export_vcd(program.graph, path)
        assert signals > 0

        declared = {}
        current_time = None
        times = []
        changes = 0
        in_header = True
        for line in path.read_text().splitlines():
            line = line.strip()
            if in_header:
                if line.startswith("$var"):
                    parts = line.split()
                    assert parts[1] == "wire"
                    declared[parts[3]] = int(parts[2])
                if line == "$enddefinitions $end":
                    in_header = False
                continue
            if line.startswith("#"):
                current_time = int(line[1:])
                times.append(current_time)
            elif line.startswith("b"):
                value, ident = line[1:].split()
                assert ident in declared
                assert len(value) <= declared[ident]
                changes += 1
        assert len(declared) == signals
        assert times == sorted(times)
        assert changes > 0

    def test_top_caps_the_signal_count(self, observed, tmp_path):
        program, obs, _ = observed
        signals = obs.export_vcd(program.graph, tmp_path / "top.vcd", top=3)
        assert signals <= 4  # 3 operators + the LSQ depth signal

    def test_round_trip_reconstructs_firing_pulses(self, observed,
                                                   tmp_path):
        """Replaying the VCD recovers the simulator's firing counts.

        Each operator signal pulses to firings-this-cycle and back to
        zero, so integrating value changes over strictly increasing
        timestamps must give every exported node's firings, as counted
        by ``DataflowResult.fire_counts``."""
        program, obs, result = observed
        path = tmp_path / "roundtrip.vcd"
        obs.export_vcd(program.graph, path)

        name_by_ident = {}
        changes = {}
        now = None
        times = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if line.startswith("$var"):
                parts = line.split()
                name_by_ident[parts[3]] = parts[4]
            elif line.startswith("#"):
                now = int(line[1:])
                times.append(now)
            elif line.startswith("b") and now is not None:
                raw, ident = line[1:].split()
                changes.setdefault(ident, []).append((now, int(raw, 2)))
        assert times == sorted(set(times)), "timestamps must be strictly " \
            "monotonic"

        exported = 0
        for ident, events in changes.items():
            name = name_by_ident[ident]
            if name == "lsq_depth":
                continue
            # A VCD signal is piecewise constant: each value holds from
            # its timestamp until the next change. Integrating gives the
            # firings-per-cycle series back.
            reconstructed = {}
            for (start, value), (end, _next) in zip(events, events[1:]):
                for cycle in range(start, end):
                    if value:
                        reconstructed[cycle] = value
            assert events[-1][1] == 0, f"{name} must end quiet"
            node_id = int(name.rsplit("#", 1)[1])
            assert sum(reconstructed.values()) \
                == result.fire_counts.get(node_id, 0), name
            exported += 1
        assert exported == min(64, len(result.fire_counts))


class TestCollectorCounts:
    """One collector entry per firing, on every engine."""

    @pytest.mark.parametrize("engine", ["interp", "compiled", "codegen"])
    @pytest.mark.parametrize("level", ["none", "full"])
    def test_fires_match_fire_counts(self, engine, level):
        program = compile_minic(SOURCE, "f", opt_level=level)
        obs = Observation(profile=False, critical_path=False, trace=True)
        result = program.simulate([8], memsys=REALISTIC_MEMORY,
                                  probes=obs.bus, engine=engine)
        counts = Counter(node_id for node_id, _, _ in obs.collector.fires)
        assert dict(counts) == result.fire_counts


class TestJSONL:
    def test_lines_parse_and_cover_the_report(self, observed, tmp_path):
        from repro.observe import export_jsonl
        _, _, result = observed
        path = tmp_path / "run.jsonl"
        count = export_jsonl(result.profile, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == count
        kinds = {line["kind"] for line in lines}
        assert kinds == {"summary", "opcode", "node", "critical_path"}
        summary = lines[0]
        assert summary["cycles"] == result.cycles
        critical = [line for line in lines
                    if line["kind"] == "critical_path"][0]
        assert sum(critical["by_category"].values()) == result.cycles
