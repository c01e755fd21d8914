"""Observability: probe bus, profiler, critical-path analysis, exporters.

The simulator can only answer "how many cycles" by itself; this package
answers "why". It is built around a :class:`~repro.observe.probes.ProbeBus`
— typed hook points inside :class:`~repro.sim.dataflow.DataflowSimulator`
and :class:`~repro.sim.memsys.MemorySystem` that cost one ``is None``
test when observation is off — and listeners over it:

- :class:`~repro.observe.profiler.Profiler` → per-opcode/per-node fire
  counts, busy/occupancy, LSQ and port-wait histograms, cache/TLB
  breakdowns, folded into a
  :class:`~repro.observe.profiler.ProfileReport`;
- :class:`~repro.observe.critpath.CriticalPathTracker` → dynamic
  critical-path attribution of every cycle to a node and category;
- :class:`~repro.observe.export.TraceCollector` + exporters → Chrome/
  Perfetto trace JSON, VCD waveforms, JSONL metrics, text timelines;
- :class:`~repro.observe.probes.HistoryRing` → recent-activity ring
  reused by deadlock forensics;
- :class:`~repro.observe.telemetry.TelemetrySession` +
  :class:`~repro.observe.store.TelemetryStore` +
  :mod:`~repro.observe.diff` → durable, schema-versioned
  :class:`~repro.observe.telemetry.RunRecord` per compile/run in an
  append-only store under ``.repro/telemetry/``, structured run-set
  diffs, and the CI regression watchdog;
- :mod:`~repro.observe.tracing` → distributed spans with ambient
  context that crosses process boundaries, one journal shard per
  process, merged into a single Perfetto timeline
  (``repro trace show/export``);
- :mod:`~repro.observe.metrics` → live counters/gauges/histograms,
  snapshotted per worker and merged, served as Prometheus exposition
  text on the service's ``/v1/metrics``.

:class:`Observation` bundles the common combinations::

    obs = Observation(trace=True)
    result = program.simulate(args, probes=obs.bus)
    print(obs.report(program.graph, result).render())
    obs.export_trace(program.graph, "run.json")   # open in Perfetto
    obs.export_vcd(program.graph, "run.vcd")      # open in GTKWave

or, one level higher, ``program.simulate(args, profile=True)`` returns
the report on ``DataflowResult.profile``.
"""

from __future__ import annotations

from repro.observe.critpath import (
    CriticalPathReport,
    CriticalPathTracker,
    ObservabilityError,
    categorize,
)
from repro.observe.export import (
    TraceCollector,
    busiest_nodes,
    chrome_trace_events,
    export_chrome_trace,
    export_jsonl,
    export_vcd,
    render_timeline,
    validate_trace_events,
)
from repro.observe.probes import HistoryRing, ProbeBus
from repro.observe.profiler import ProfileReport, Profiler, build_report
from repro.observe.store import TelemetryStore, TelemetryStoreError
from repro.observe.telemetry import (
    RunRecord,
    TelemetrySession,
    current_session,
    telemetry_tags,
)
from repro.observe.diff import (
    ComparisonReport,
    RunDelta,
    Thresholds,
    compare,
    diff_runs,
    load_baselines,
    make_baselines,
    save_baselines,
    watchdog,
)
from repro.observe.metrics import (
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    merge_snapshots,
    metrics,
    parse_prometheus,
    render_prometheus,
)
from repro.observe.tracing import (
    Span,
    Tracer,
    adopt_context,
    current_trace_id,
    current_tracer,
    export_trace,
    propagation_context,
    read_trace,
    span,
    trace_events,
)

__all__ = [
    "ComparisonReport", "CriticalPathReport", "CriticalPathTracker",
    "HistoryRing", "MetricsRegistry", "Observation", "ObservabilityError",
    "ProbeBus", "ProfileReport", "Profiler", "RunDelta", "RunRecord",
    "Span", "TelemetrySession", "TelemetryStore", "TelemetryStoreError",
    "Thresholds", "TraceCollector", "Tracer", "adopt_context",
    "build_report", "busiest_nodes", "categorize", "chrome_trace_events",
    "compare", "current_session", "current_trace_id", "current_tracer",
    "diff_runs", "disable_metrics", "enable_metrics", "export_chrome_trace",
    "export_jsonl", "export_trace", "export_vcd", "load_baselines",
    "make_baselines", "merge_snapshots", "metrics", "parse_prometheus",
    "propagation_context", "read_trace", "render_prometheus",
    "render_timeline", "save_baselines", "span", "telemetry_tags",
    "trace_events", "validate_trace_events", "watchdog",
]


class Observation:
    """One simulation's worth of wired-up observability.

    Builds a probe bus with the requested listeners; pass ``obs.bus`` as
    the simulator's/``simulate()``'s ``probes`` argument (before the run
    starts), then ask for :meth:`report` and the exporters afterwards.
    """

    def __init__(self, profile: bool = True, critical_path: bool = True,
                 trace: bool = False, history: int = 0,
                 trace_limit: int = 1_000_000,
                 max_path_records: int = 4_000_000,
                 bus: ProbeBus | None = None):
        self.bus = bus if bus is not None else ProbeBus()
        self.profiler = self.bus.subscribe(Profiler()) if profile else None
        self.critpath = (self.bus.subscribe(
            CriticalPathTracker(max_records=max_path_records))
            if critical_path else None)
        self.collector = (self.bus.subscribe(TraceCollector(trace_limit))
                          if trace else None)
        self.history = (self.bus.subscribe(HistoryRing(history))
                        if history else None)

    def report(self, graph, result, memsys_name: str = "") -> ProfileReport:
        """The :class:`ProfileReport` for a finished run."""
        if self.profiler is None:
            raise ObservabilityError("Observation was built without a "
                                     "profiler (profile=False)")
        critical = (self.critpath.analyze(graph, result.cycles)
                    if self.critpath is not None else None)
        return build_report(self.profiler, graph, result,
                            critical_path=critical, memsys_name=memsys_name)

    def critical_path(self, graph, cycles: int) -> CriticalPathReport:
        if self.critpath is None:
            raise ObservabilityError("Observation was built without "
                                     "critical_path=True")
        return self.critpath.analyze(graph, cycles)

    def export_trace(self, graph, path) -> dict:
        """Write Chrome/Perfetto trace-event JSON; returns the payload."""
        self._need_collector()
        return export_chrome_trace(self.collector, graph, path)

    def export_vcd(self, graph, path, top: int = 64) -> int:
        self._need_collector()
        return export_vcd(self.collector, graph, path, top=top)

    def _need_collector(self) -> None:
        if self.collector is None:
            raise ObservabilityError("Observation was built without "
                                     "trace=True; no events collected")
