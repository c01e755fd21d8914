"""Command-line driver: compile and run a MiniC file spatially.

Usage::

    python -m repro program.c --entry kernel --args 10 3 --opt full
    python -m repro program.c --entry kernel --dump-graph out.dot
    python -m repro program.c --entry kernel --compare   # vs the oracle
    python -m repro program.c --entry kernel --report    # pass telemetry
    python -m repro program.c --entry kernel --verify final --cache
    python -m repro program.c --entry kernel --fault-seed 7   # one perturbed run
    python -m repro program.c --entry kernel --differential 5 # N-schedule check
    python -m repro program.c --entry kernel --diagnose --postmortem wedge.json
    python -m repro program.c --entry kernel --profile --critical-path
    python -m repro program.c --entry kernel --trace-out run.json --trace-out run.vcd
    python -m repro program.c --entry kernel --record   # persist telemetry

Prints the return value, cycle count, and dynamic operation statistics for
the selected memory system; ``--report`` adds the per-stage/per-pass
compilation report (wall time, change counts, IR-size deltas).
``--diagnose`` renders deadlock/livelock forensics (the wait-for analysis
over the Pegasus graph) when a simulation wedges, and ``--postmortem``
dumps the structured report plus a graph slice as JSON. ``--record``
persists the compile and the run as schema-versioned
:class:`~repro.observe.telemetry.RunRecord` lines in the telemetry store
(``$REPRO_TELEMETRY_DIR`` or ``.repro/telemetry``).

The telemetry store has its own subcommand surface (also installed as
``repro-telemetry``)::

    python -m repro telemetry list
    python -m repro telemetry show <run-id-prefix>
    python -m repro telemetry compare <baseline> <current>
    python -m repro telemetry gc --keep-sessions 20
    python -m repro telemetry watchdog --baselines benchmarks/results/baselines
    python -m repro telemetry baseline --out benchmarks/results/baselines

``compare`` accepts run ids, session ids, or baseline files/directories
on either side and exits nonzero on a regression verdict; ``watchdog``
replays a committed baseline set against the current tree.

Figure sweeps run as explicit job DAGs with retry and resume (also
installed as ``repro-sweep``; see :mod:`repro.orchestrate.sweeps`)::

    python -m repro sweep list
    python -m repro sweep describe fig19 --kernels li
    python -m repro sweep run fig19 --executor process --retries 2
    python -m repro sweep resume fig19
    python -m repro sweep status fig19 --json
    python -m repro sweep status fig19 --watch

Distributed traces (``--trace`` on ``sweep run`` and ``serve``) merge
per-process span shards into one Perfetto timeline::

    python -m repro trace list
    python -m repro trace show fig19
    python -m repro trace export fig19 --out fig19-trace.json

Compilation-as-a-service (also installed as ``repro-serve``; see
:mod:`repro.service`)::

    python -m repro serve --port 8577 --workers 4
    python -m repro submit program.c --entry kernel --args 20
    python -m repro cache stat program.c --entry kernel --opt full

``serve`` runs the async compile/simulate server (request dedup against
the shared artifact store, compile batching, 429 backpressure, drained
shutdown); ``submit`` streams one job's NDJSON events from a running
server; ``cache stat`` probes artifact warmth without compiling.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from repro.errors import DeadlockError, EventLimitError, ReproError
from repro.pegasus.printer import dump_dot, dump_text
from repro.pipeline import (
    VERIFY_POLICIES,
    CompilationCache,
    CompilerDriver,
    PipelineConfig,
)
from repro.sim.memsys import MemorySystem, NAMED_SYSTEMS

MEMORY_SYSTEMS = NAMED_SYSTEMS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compile MiniC to a spatial dataflow circuit and run it.",
    )
    parser.add_argument("source", help="MiniC source file")
    parser.add_argument("--entry", default="main", help="entry function")
    parser.add_argument("--args", nargs="*", type=int, default=[],
                        help="integer arguments for the entry function")
    parser.add_argument("--opt", default="full",
                        choices=["none", "basic", "medium", "full"])
    parser.add_argument("--verify", default="every-pass",
                        choices=list(VERIFY_POLICIES),
                        help="graph verification policy (default: every-pass)")
    parser.add_argument("--unroll-limit", type=int, default=0,
                        help="fully unroll counted loops up to this many "
                             "iterations (0/1 = off)")
    parser.add_argument("--memory", default="perfect",
                        choices=sorted(MEMORY_SYSTEMS))
    parser.add_argument("--engine", default=None,
                        choices=["compiled", "codegen", "interp"],
                        help="dataflow executor: the plan-compiled engine, "
                             "the per-plan code generator, or the "
                             "reference interpreter (default: "
                             "$REPRO_SIM_ENGINE, else compiled; results "
                             "are bit-identical)")
    parser.add_argument("--compare", action="store_true",
                        help="also run the sequential oracle and check")
    parser.add_argument("--dump-graph", metavar="FILE",
                        help="write the Pegasus graph (.dot or .txt)")
    parser.add_argument("--stats", action="store_true",
                        help="print static graph statistics")
    parser.add_argument("--report", action="store_true",
                        help="print the compilation report (per-stage and "
                             "per-pass wall time, changes, IR-size deltas)")
    parser.add_argument("--profile", action="store_true",
                        help="profile the execution: per-opcode/per-node "
                             "firing counts and occupancy, LSQ and cache "
                             "breakdowns, critical-path attribution")
    parser.add_argument("--critical-path", action="store_true",
                        help="print only the dynamic critical-path "
                             "attribution (implied by --profile)")
    parser.add_argument("--trace-out", action="append", metavar="FILE",
                        default=[],
                        help="write an execution trace: .json -> Chrome/"
                             "Perfetto trace events, .vcd -> GTKWave "
                             "waveforms, .jsonl -> metric lines "
                             "(repeatable)")
    parser.add_argument("--cache", action="store_true",
                        help="use the persistent compilation cache "
                             "($REPRO_CACHE_DIR or ~/.cache/repro-pegasus)")
    parser.add_argument("--record", action="store_true",
                        help="record the compile and the run into the "
                             "telemetry store ($REPRO_TELEMETRY_DIR or "
                             ".repro/telemetry); inspect with "
                             "'repro-telemetry list/show/compare'")
    parser.add_argument("--fault-seed", type=int, default=None,
                        metavar="SEED",
                        help="run under a seeded fault plan (latency "
                             "jitter/spikes, LSQ stalls, bounded event "
                             "reordering); timing-only, semantics must "
                             "not change")
    parser.add_argument("--differential", type=int, default=0, metavar="N",
                        help="run N perturbed schedules and diff each "
                             "against the sequential oracle (exit 1 on "
                             "any mismatch)")
    parser.add_argument("--wall-limit", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per simulation "
                             "(cooperative; SimulationTimeout on overrun)")
    parser.add_argument("--diagnose", action="store_true",
                        help="on deadlock or event-limit overrun, print "
                             "the wait-for forensics report")
    parser.add_argument("--postmortem", metavar="FILE",
                        help="with --diagnose: also dump the structured "
                             "report + graph slice as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "telemetry":
        return telemetry_main(argv[1:])
    if argv and argv[0] == "sweep":
        from repro.orchestrate.sweeps import sweep_main
        return sweep_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.observe.tracing import trace_main
        return trace_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.cli import serve_main
        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        from repro.service.cli import submit_main
        return submit_main(argv[1:])
    if argv and argv[0] == "cache":
        from repro.service.cli import cache_main
        return cache_main(argv[1:])
    options = build_parser().parse_args(argv)
    try:
        with open(options.source) as handle:
            source = handle.read()
        session = nullcontext()
        if options.record:
            from repro.observe.telemetry import TelemetrySession
            session = TelemetrySession(label=Path(options.source).stem)
        with session as active:
            result = _compile_and_run(options, source)
        if options.record:
            print(f"telemetry: {len(active.run_ids)} record(s) in session "
                  f"{active.session_id} -> {active.store.root}")
        return result
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        if options.diagnose:
            _diagnose(error, options.postmortem)
        return 2


def _compile_and_run(options, source: str) -> int:
    """The compile-and-simulate body of the main command; exit status."""
    config = PipelineConfig.make(opt_level=options.opt,
                                 verify=options.verify,
                                 unroll_limit=options.unroll_limit,
                                 filename=options.source)
    cache = CompilationCache() if options.cache else None
    program = CompilerDriver(config, cache=cache).compile(
        source, options.entry)
    if options.report and program.report is not None:
        print(program.report.render())
        print()
    if options.dump_graph:
        dump = (dump_dot(program.graph)
                if options.dump_graph.endswith(".dot")
                else dump_text(program.graph))
        with open(options.dump_graph, "w") as handle:
            handle.write(dump + "\n")
        print(f"graph written to {options.dump_graph}")
    config = MEMORY_SYSTEMS[options.memory]
    if options.differential:
        result = program.check_timing_robustness(
            list(options.args), seeds=options.differential,
            memsys=config if not config.perfect else None,
            engine=options.engine)
        print(result.summary())
        return 0 if result.ok else 1
    faults = None
    if options.fault_seed is not None:
        from repro.resilience.faults import SHAKE_EVERYTHING
        faults = SHAKE_EVERYTHING.with_seed(options.fault_seed)
        print(f"faults  : {faults.describe()}")
    observation = None
    if options.profile or options.critical_path or options.trace_out \
            or options.diagnose:
        from repro.observe import Observation
        observation = Observation(trace=bool(options.trace_out),
                                  history=256 if options.diagnose else 0)
    result = program.simulate(list(options.args),
                              memsys=MemorySystem(config),
                              faults=faults,
                              wall_limit=options.wall_limit,
                              profile=observation or False,
                              engine=options.engine)
    print(f"result  : {result.return_value}")
    print(f"cycles  : {result.cycles}  ({config.name} memory)")
    print(f"memops  : {result.loads} loads, {result.stores} stores, "
          f"{result.skipped_memops} predicated off")
    if observation is not None:
        _observe_outputs(observation, program, result, options)
    if options.stats:
        for key, value in program.static_counts().items():
            print(f"  {key:17s} {value}")
    if options.compare:
        oracle = program.run_sequential(list(options.args))
        status = "MATCH" if oracle.return_value == result.return_value \
            else "MISMATCH"
        print(f"oracle  : {oracle.return_value}  [{status}]")
        if status == "MISMATCH":
            return 1
    return 0


def _observe_outputs(observation, program, result, options) -> None:
    """Print/export the requested observability artifacts."""
    from repro.observe import export_jsonl
    report = result.profile
    if options.profile:
        print()
        print(report.render())
    elif options.critical_path and report.critical_path is not None:
        print()
        print(report.critical_path.render())
    for path in options.trace_out:
        if path.endswith(".vcd"):
            signals = observation.export_vcd(program.graph, path)
            print(f"VCD waveforms ({signals} signals) written to {path}")
        elif path.endswith(".jsonl"):
            lines = export_jsonl(report, path)
            print(f"{lines} metric lines written to {path}")
        else:
            observation.export_trace(program.graph, path)
            print(f"Perfetto trace written to {path} "
                  f"(open at https://ui.perfetto.dev)")


def _diagnose(error: ReproError, postmortem: str | None) -> None:
    """Render deadlock/livelock forensics for a wedged simulation."""
    report = getattr(error, "report", None)
    if isinstance(error, DeadlockError) and report is not None:
        print()
        print(report.render())
        if postmortem:
            from repro.resilience.forensics import dump_postmortem
            dump_postmortem(report, postmortem)
            print(f"post-mortem written to {postmortem}")
    elif isinstance(error, EventLimitError) and error.hot_nodes:
        print()
        print("event-limit forensics (livelock vs long run):")
        for label, count in error.hot_nodes:
            print(f"  {label} fired {count} times")


# ----------------------------------------------------------------------
# The telemetry-store surface: repro-telemetry / `python -m repro telemetry`


def build_telemetry_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-telemetry",
        description="Inspect, compare, and police the telemetry store.",
    )
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="store root (default: $REPRO_TELEMETRY_DIR "
                             "or .repro/telemetry)")
    commands = parser.add_subparsers(dest="command", required=True)

    list_cmd = commands.add_parser(
        "list", help="recorded runs, newest last")
    list_cmd.add_argument("--session", default=None,
                          help="only this session id")
    list_cmd.add_argument("--kind", default=None,
                          choices=["run", "compile"])
    list_cmd.add_argument("--limit", type=int, default=40,
                          help="show at most N newest records (0 = all)")
    list_cmd.add_argument("--sessions", action="store_true",
                          help="summarize sessions instead of records")

    show_cmd = commands.add_parser(
        "show", help="one full record (unique run-id prefixes accepted)")
    show_cmd.add_argument("run_id")
    show_cmd.add_argument("--json", action="store_true",
                          help="dump the raw record payload")

    compare_cmd = commands.add_parser(
        "compare", help="structured delta between two runs or run-sets; "
                        "exits 1 on a regression verdict")
    compare_cmd.add_argument("baseline",
                             help="run id, session id, or baseline "
                                  "file/directory")
    compare_cmd.add_argument("current", help="same forms as baseline")
    _threshold_arguments(compare_cmd)

    gc_cmd = commands.add_parser(
        "gc", help="delete the store shards of old sessions")
    gc_cmd.add_argument("--keep-sessions", type=int, default=None,
                        metavar="N", help="keep the N most recent sessions")
    gc_cmd.add_argument("--max-age-days", type=float, default=None,
                        metavar="D", help="keep records younger than D days")
    gc_cmd.add_argument("--dry-run", action="store_true")

    watchdog_cmd = commands.add_parser(
        "watchdog", help="replay a committed baseline set against the "
                         "current tree; exits 1 on regression")
    watchdog_cmd.add_argument("--baselines", required=True, metavar="DIR",
                              help="baseline file or directory "
                                   "(see 'baseline')")
    watchdog_cmd.add_argument("--wall-limit", type=float, default=None,
                              metavar="SECONDS",
                              help="per-simulation wall-clock budget")
    watchdog_cmd.add_argument("--record", action="store_true",
                              help="also persist the replayed runs")
    _threshold_arguments(watchdog_cmd)

    baseline_cmd = commands.add_parser(
        "baseline", help="run kernels fresh and write baseline files")
    baseline_cmd.add_argument("--out", required=True, metavar="DIR")
    baseline_cmd.add_argument("--kernels", default="adpcm_e,li",
                              help="comma-separated kernel names")
    baseline_cmd.add_argument("--levels", default="none,full",
                              help="comma-separated optimization levels")
    baseline_cmd.add_argument("--memory", default="perfect,realistic-2port",
                              help="comma-separated memory-system names")
    return parser


def _threshold_arguments(parser) -> None:
    parser.add_argument("--cycle-pct", type=float, default=None,
                        help="relative cycle growth that fails "
                             "(default 0.05)")
    parser.add_argument("--cycle-floor", type=int, default=None,
                        help="absolute cycle noise floor (default 16)")
    parser.add_argument("--hit-rate-drop", type=float, default=None,
                        help="cache hit-rate drop that fails "
                             "(default 0.02)")


def _thresholds(options):
    from repro.observe.diff import Thresholds
    defaults = Thresholds()
    return Thresholds(
        cycle_pct=(defaults.cycle_pct if options.cycle_pct is None
                   else options.cycle_pct),
        cycle_floor=(defaults.cycle_floor if options.cycle_floor is None
                     else options.cycle_floor),
        hit_rate_drop=(defaults.hit_rate_drop
                       if options.hit_rate_drop is None
                       else options.hit_rate_drop),
    )


def _resolve_run_set(store, spec: str):
    """A compare operand: baseline path, session id, or run-id prefix."""
    from repro.observe.diff import load_baselines
    if Path(spec).exists():
        return load_baselines(spec)
    if spec in store.sessions():
        return store.records(session=spec)
    return [store.get(spec)]


def telemetry_main(argv: list[str] | None = None) -> int:
    from repro.observe.store import TelemetryStore
    options = build_telemetry_parser().parse_args(argv)
    store = TelemetryStore(options.store)
    try:
        return _telemetry_command(options, store)
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _telemetry_command(options, store) -> int:
    if options.command == "list":
        return _telemetry_list(options, store)
    if options.command == "show":
        record = store.get(options.run_id)
        if options.json:
            import json
            print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        else:
            _print_record(record)
        return 0
    if options.command == "compare":
        from repro.observe.diff import compare
        report = compare(_resolve_run_set(store, options.baseline),
                         _resolve_run_set(store, options.current),
                         _thresholds(options))
        print(report.render())
        return 0 if report.ok else 1
    if options.command == "gc":
        removed = store.gc(keep_sessions=options.keep_sessions,
                           max_age_days=options.max_age_days,
                           dry_run=options.dry_run)
        verb = "would remove" if options.dry_run else "removed"
        print(f"{verb} {len(removed)} shard(s)"
              + (": " + ", ".join(removed) if removed else ""))
        return 0
    if options.command == "watchdog":
        return _telemetry_watchdog(options, store)
    if options.command == "baseline":
        from repro.observe.diff import make_baselines, save_baselines
        records = make_baselines(
            [name for name in options.kernels.split(",") if name],
            levels=[lvl for lvl in options.levels.split(",") if lvl],
            memory_systems=[MEMORY_SYSTEMS[name] for name
                            in options.memory.split(",") if name],
        )
        written = save_baselines(records, options.out)
        for path in written:
            print(f"baseline written: {path}")
        return 0
    raise AssertionError(f"unhandled command {options.command!r}")


def _print_record(record) -> None:
    print(f"run {record.run_id}")
    print(f"  kind      : {record.kind} (schema v{record.schema})")
    print(f"  what      : {record.describe()}")
    print(f"  session   : {record.session or '-'}"
          + (f"  label={record.label}" if record.label else ""))
    if record.tags:
        print("  tags      : "
              + " ".join(f"{k}={v}" for k, v in sorted(record.tags.items())))
    if record.source_sha:
        print(f"  source    : sha256:{record.source_sha[:16]}")
    if record.config:
        knobs = " ".join(f"{k}={v}" for k, v in sorted(record.config.items())
                         if k not in ("filename",) and v not in (None, [], 0))
        print(f"  config    : {knobs}")
    if record.engine:
        print(f"  engine    : {record.engine}")
    if record.faults:
        print(f"  faults    : {record.faults}")
    if record.result:
        r = record.result
        print(f"  result    : value={r.get('return_value')} "
              f"cycles={r.get('cycles')} fired={r.get('fired')} "
              f"loads={r.get('loads')} stores={r.get('stores')}")
        hit_rate = record.cache_hit_rate()
        if hit_rate is not None:
            print(f"  cache     : {hit_rate:.3f} L1+L2 hit rate")
    shares = record.attribution_shares()
    if shares:
        print("  crit path : " + " ".join(
            f"{category}={share:.1%}"
            for category, share in sorted(shares.items())))
    if record.compilation:
        comp = record.compilation
        print(f"  compile   : {comp['total_wall_time'] * 1e3:.1f} ms, "
              f"{len(comp['passes'])} pass runs, "
              f"cache={comp['cache_status']}")


def _telemetry_list(options, store) -> int:
    from repro.utils.tables import TextTable
    if options.sessions:
        table = TextTable(["Session", "records"],
                          title=f"telemetry sessions in {store.root}")
        for session, count in store.sessions().items():
            table.add_row(session, count)
        print(table.render())
        return 0
    entries = store.index()
    if options.session is not None:
        entries = [e for e in entries
                   if e.get("session") == options.session]
    if options.kind is not None:
        entries = [e for e in entries if e.get("kind") == options.kind]
    if options.limit:
        entries = entries[-options.limit:]
    table = TextTable(
        ["Run", "kind", "kernel", "opt", "memsys", "cycles", "session"],
        title=f"telemetry store {store.root}",
    )
    for entry in entries:
        table.add_row(entry["run_id"][:12], entry.get("kind", "run"),
                      entry.get("kernel") or "-",
                      entry.get("opt_level") or "-",
                      entry.get("memsys") or "-",
                      entry.get("cycles")
                      if entry.get("cycles") is not None else "-",
                      entry.get("session") or "-")
    print(table.render())
    return 0


def _telemetry_watchdog(options, store) -> int:
    from repro.observe.diff import watchdog
    from repro.observe.telemetry import TelemetrySession
    session = (TelemetrySession(store=store, label="watchdog")
               if options.record else None)
    if session is not None:
        with session:
            report = watchdog(options.baselines, _thresholds(options),
                              wall_limit=options.wall_limit,
                              session=session)
    else:
        report = watchdog(options.baselines, _thresholds(options),
                          wall_limit=options.wall_limit)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
