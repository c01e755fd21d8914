"""High-level API: MiniC source in, spatial program out.

Typical use::

    from repro import compile_minic

    program = compile_minic(source, entry="kernel", opt_level="full")
    result = program.simulate([arg0, arg1])
    oracle = program.run_sequential([arg0, arg1])
    assert result.return_value == oracle.return_value

``opt_level`` selects the pass pipeline (see :mod:`repro.opt.passes`):
``none`` builds the raw graph; ``basic`` adds scalar cleanup; ``medium`` is
the paper's Figure-19 "Medium" set (token removal by disambiguation,
pointer analysis/pragmas, induction-variable pipelining); ``full`` adds the
redundancy eliminations of §5, read-only loop splitting (§6.1) and loop
decoupling (§6.3).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.frontend import ast
from repro.cfg import ir
from repro.cfg.lower import LoweredProgram
from repro.pegasus.builder import BuildResult
from repro.pegasus.graph import Graph
from repro.sim.dataflow import DEFAULT_EVENT_LIMIT, DataflowResult, DataflowSimulator
from repro.sim.engine import CompiledEngine
from repro.sim.memory_image import MemoryImage
from repro.sim.memsys import MemoryConfig, MemorySystem, PERFECT_MEMORY
from repro.sim.plan import SimPlan, plan_for
from repro.sim.sequential import SequentialInterpreter, SequentialResult

OPT_LEVELS = ("none", "basic", "medium", "full")

#: Dataflow executors: the compiled engine (default), the per-plan code
#: generator, and the reference interpreter. All produce bit-identical
#: results; ``interp`` remains the executable specification and the
#: differential baseline, ``codegen`` is the fastest
#: (:mod:`repro.sim.codegen`).
SIM_ENGINES = ("compiled", "codegen", "interp")


def resolve_engine(engine: str | None) -> str:
    """Normalize an engine selection (explicit > $REPRO_SIM_ENGINE > default)."""
    if engine is None:
        engine = os.environ.get("REPRO_SIM_ENGINE") or "compiled"
    if engine not in SIM_ENGINES:
        raise ValueError(f"engine must be one of {SIM_ENGINES}")
    return engine


@dataclass
class CompiledProgram:
    """A MiniC program compiled to a Pegasus graph, ready to simulate."""

    source_program: ast.Program
    lowered: LoweredProgram
    flat: ir.Function
    build: BuildResult
    entry: str
    opt_level: str
    # Per-stage / per-pass instrumentation from the CompilerDriver; None
    # only for programs constructed by hand.
    report: object = None

    @property
    def graph(self) -> Graph:
        return self.build.graph

    def sim_plan(self) -> SimPlan:
        """The (cached) simulation plan for this program's graph.

        Plans live in a per-graph weak cache (:func:`repro.sim.plan.plan_for`)
        validated against the graph's structural version, so every sweep
        cell sharing this compilation reuses one plan. They are not part
        of the pickled program — the persistent compilation cache stores
        graphs, and plans are rebuilt per process on first simulation.
        """
        return plan_for(self.graph)

    def new_memory(self, extern_elements: int = 1024) -> MemoryImage:
        """A fresh memory image with globals and stack objects laid out.

        Layout order is globals (program order) then the flattened entry's
        stack objects, so addresses match between both interpreters and
        across optimization levels.
        """
        image = MemoryImage(extern_elements=extern_elements)
        for symbol in self.lowered.globals:
            image.allocate(symbol)
        for symbol in self.flat.stack_objects:
            image.allocate(symbol)
        return image

    def simulate(self, args: list[object] | None = None,
                 memsys: MemoryConfig | MemorySystem | None = None,
                 memory: MemoryImage | None = None,
                 event_limit: int | None = None,
                 faults=None,
                 wall_limit: float | None = None,
                 profile=False,
                 probes=None,
                 engine: str | None = None,
                 telemetry=None) -> DataflowResult:
        """Execute spatially on the dataflow simulator (§7.3).

        ``event_limit`` bounds the number of simulation events (guarding
        non-terminating circuits); ``None`` means the simulator default.
        An explicit ``0`` is honored (every event exceeds it).
        ``faults`` is an optional
        :class:`~repro.resilience.faults.FaultPlan` perturbing the timing
        schedule deterministically; ``wall_limit`` is a wall-clock budget
        in seconds, enforced cooperatively
        (:class:`~repro.errors.SimulationTimeout` on overrun).

        ``profile`` turns on the observability subsystem: ``True`` (or an
        :class:`~repro.observe.Observation` of your own) runs the
        profiler and critical-path analysis over a probe bus and attaches
        the resulting :class:`~repro.observe.ProfileReport` as
        ``result.profile``. ``probes`` attaches a raw
        :class:`~repro.observe.ProbeBus` without report building (the
        two compose: an explicit ``probes`` bus hosts the profile's
        listeners too). Simulation without either stays probe-free —
        the instrumentation is inert.

        ``engine`` picks the executor: ``"compiled"`` (the default) runs
        the plan-driven :class:`~repro.sim.engine.CompiledEngine`,
        ``"codegen"`` the per-plan generated module
        (:class:`~repro.sim.codegen.CodegenEngine`; with probes or
        faults attached it transparently runs CompiledEngine's
        instrumented path), ``"interp"`` the reference interpreter;
        ``None`` defers to ``$REPRO_SIM_ENGINE``. Results are
        bit-identical regardless (the equivalence matrix in
        ``tests/sim/test_engine.py`` enforces it).

        ``telemetry`` controls run recording (see
        :mod:`repro.observe.telemetry`): ``None`` records into the
        ambient :class:`~repro.observe.telemetry.TelemetrySession` when
        one is active (and is inert otherwise), an explicit session or
        :class:`~repro.observe.store.TelemetryStore` records there, and
        ``False`` suppresses recording entirely.
        """
        engine = resolve_engine(engine)
        if isinstance(memsys, MemoryConfig):
            memsys = MemorySystem(memsys)
        memsys = memsys or MemorySystem(PERFECT_MEMORY)
        observation = None
        if profile:
            from repro.observe import Observation
            observation = (profile if isinstance(profile, Observation)
                           else Observation(bus=probes))
            probes = observation.bus
        if engine == "interp":
            executor = DataflowSimulator
        elif engine == "codegen":
            from repro.sim.codegen import CodegenEngine
            executor = CodegenEngine
        else:
            executor = CompiledEngine
        simulator = executor(
            self.graph if engine == "interp" else self.sim_plan(),
            memory=memory if memory is not None else self.new_memory(),
            memsys=memsys,
            event_limit=(DEFAULT_EVENT_LIMIT if event_limit is None
                         else event_limit),
            faults=faults,
            wall_limit=wall_limit,
            probes=probes,
        )
        from repro.observe.metrics import metrics
        from repro.observe.tracing import span
        registry = metrics()
        sim_started = time.perf_counter() if registry is not None else 0.0
        with span(f"run:{self.entry}", engine=engine,
                  memsys=memsys.config.name):
            result = simulator.run(list(args or []))
        if registry is not None:
            registry.counter("repro_simulations_total", engine=engine).inc()
            registry.histogram("repro_simulation_seconds",
                               engine=engine).observe(
                time.perf_counter() - sim_started)
        if observation is not None:
            result.profile = observation.report(
                self.graph, result, memsys_name=memsys.config.name)
        if telemetry is not False:
            self._record_telemetry(telemetry, result, engine=engine,
                                   memsys_name=memsys.config.name,
                                   args=list(args or []), faults=faults)
        return result

    def _record_telemetry(self, telemetry, result, *, engine, memsys_name,
                          args, faults) -> None:
        """Append a run record to the requested or ambient session."""
        from repro.observe.telemetry import (
            build_run_record, current_session,
        )
        sink = telemetry if telemetry is not None else current_session()
        if sink is None:
            return
        if hasattr(sink, "record_run"):        # a TelemetrySession
            sink.record_run(self, result, engine=engine,
                            memsys_name=memsys_name, args=args,
                            faults=faults)
        else:                                  # a bare TelemetryStore
            sink.append(build_run_record(self, result, engine=engine,
                                         memsys_name=memsys_name,
                                         args=args, faults=faults))

    def check_timing_robustness(self, args: list[object] | None = None,
                                seeds: int = 3, plans=None, memsys=None,
                                engine: str | None = None):
        """Differential check over perturbed schedules (paper §4/§7 claim).

        Returns a
        :class:`~repro.resilience.differential.DifferentialResult`; a
        non-``ok`` result means timing changed semantics — a soundness
        bug in compilation or simulation. ``engine`` selects the dataflow
        executor for every schedule (see :meth:`simulate`).
        """
        from repro.resilience.differential import differential_check
        return differential_check(self, list(args or []), plans,
                                  seeds=seeds, memsys=memsys, engine=engine)

    def run_sequential(self, args: list[object] | None = None,
                       memsys: MemoryConfig | MemorySystem | None = None,
                       memory: MemoryImage | None = None) -> SequentialResult:
        """Execute the flattened CFG in program order (the oracle/baseline)."""
        if isinstance(memsys, MemoryConfig):
            memsys = MemorySystem(memsys)
        flat_program = LoweredProgram(functions={self.entry: self.flat},
                                      globals=self.lowered.globals)
        interpreter = SequentialInterpreter(
            flat_program,
            memory=memory if memory is not None else self.new_memory(),
            memsys=memsys,
        )
        return interpreter.run(self.entry, list(args or []))

    def static_counts(self) -> dict[str, int]:
        """Static node statistics (loads, stores, total) — Figure 18 lines."""
        from repro.pegasus import nodes as N
        stats = self.graph.stats()
        return {
            "nodes": len(self.graph),
            "loads": stats.get("LoadNode", 0),
            "stores": stats.get("StoreNode", 0),
            "muxes": stats.get("MuxNode", 0),
            "combines": stats.get("CombineNode", 0),
            "token_generators": stats.get("TokenGenNode", 0),
        }


def compile_minic(source: str, entry: str, opt_level: str = "full",
                  entry_points_to: dict[str, list[str]] | None = None,
                  filename: str = "<input>",
                  unroll_limit: int = 0,
                  cache=None,
                  cache_only: bool = False) -> CompiledProgram | None:
    """Compile MiniC source text: the whole pipeline in one call.

    ``entry_points_to`` optionally maps pointer-parameter names of the
    entry function to lists of global-array names they point to (the
    harness-level stand-in for whole-program pointer analysis, §7.1).
    ``unroll_limit`` > 1 fully unrolls counted loops of at most that many
    iterations before lowering (one of CASH's scalar optimizations).

    ``cache`` attaches a persistent
    :class:`~repro.pipeline.cache.CompilationCache` (``True`` for the
    default location). ``cache_only`` makes the call a warmth probe: a
    cached artifact is returned, a miss returns ``None`` without
    compiling — how the compile service answers "is this warm?" for
    free (``repro cache stat`` is the CLI face of the same probe).

    This is a thin compatibility wrapper over
    :class:`repro.pipeline.driver.CompilerDriver` at the strictest
    verification policy (``every-pass``); use the driver directly for
    other policies, instrumentation, or cache control.
    """
    if opt_level not in OPT_LEVELS:
        raise ValueError(f"opt_level must be one of {OPT_LEVELS}")
    from repro.pipeline.cache import CompilationCache
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.driver import CompilerDriver
    config = PipelineConfig.make(opt_level=opt_level, verify="every-pass",
                                 unroll_limit=unroll_limit,
                                 entry_points_to=entry_points_to,
                                 filename=filename)
    if cache is True or (cache is None and cache_only):
        cache = CompilationCache()
    return CompilerDriver(config, cache=cache or None).compile(
        source, entry, cache_only=cache_only)
