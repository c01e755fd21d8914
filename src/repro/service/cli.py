"""Command-line faces of the service: ``repro serve``, ``repro
submit``, and ``repro cache``.

::

    repro serve --port 8577 --workers 4 --retries 1
    repro submit program.c --entry kernel --simulate --args 20
    repro submit program.c --entry kernel --host farm01 --json
    repro cache stat program.c --entry kernel --opt full
    repro cache stat program.c --entry kernel --host farm01  # ask a server

``serve`` blocks until SIGINT/SIGTERM or a client's ``/v1/shutdown``,
drains in-flight jobs, prints its operational counters, and exits 0.
``submit`` streams the job's events as they arrive (human-readable by
default, raw NDJSON with ``--json``) and exits nonzero when the job
fails. ``cache stat`` is the warmth probe: locally it runs the
``cache_only`` compile path against the shared artifact store; with
``--host`` it asks a running server instead — neither ever compiles.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.service.protocol import DEFAULT_PORT, JobRequest, ServiceError

# ----------------------------------------------------------------------
# repro serve


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Run the async compile/simulate service.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port (default {DEFAULT_PORT}; 0 = "
                             f"ephemeral)")
    parser.add_argument("--name", default="repro-service",
                        help="service identity in telemetry tags")
    parser.add_argument("--max-queue", type=int, default=256,
                        help="jobs in flight before 429 backpressure "
                             "(default 256)")
    parser.add_argument("--batch-window", type=float, default=0.01,
                        metavar="SECONDS",
                        help="compile micro-batching window "
                             "(default 0.01)")
    parser.add_argument("--batch-max", type=int, default=16,
                        help="largest compile batch (default 16)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="compile process-pool width "
                             "(default: cpu count)")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts per transiently-failing "
                             "simulation (default 1)")
    parser.add_argument("--wall-limit", type=float, default=None,
                        metavar="SECONDS",
                        help="default per-simulation wall budget")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact store root (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-pegasus)")
    parser.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="telemetry store root (default: "
                             "$REPRO_TELEMETRY_DIR or .repro/telemetry)")
    parser.add_argument("--no-record", action="store_true",
                        help="do not record jobs into the telemetry store")
    parser.add_argument("--trace", action="store_true",
                        help="record a distributed trace per request "
                             "(export with `repro trace`)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="trace shard directory (default: "
                             "$REPRO_TRACE_DIR or .repro/traces)")
    parser.add_argument("--drain-grace", type=float, default=30.0,
                        metavar="SECONDS",
                        help="how long shutdown waits for in-flight jobs")
    return parser


def serve_main(argv: list[str] | None = None) -> int:
    import signal

    from repro.service.server import CompileService, ServiceConfig
    options = build_serve_parser().parse_args(argv)
    config = ServiceConfig(
        host=options.host, port=options.port, name=options.name,
        max_queue=options.max_queue, batch_window=options.batch_window,
        batch_max=options.batch_max, workers=options.workers,
        retries=options.retries, wall_limit=options.wall_limit,
        cache_root=options.cache_dir,
        telemetry_root=options.telemetry_dir,
        record=not options.no_record, trace=options.trace,
        trace_dir=options.trace_dir, drain_grace=options.drain_grace)
    service = CompileService(config)

    def _terminate(signum, frame):
        # The event loop runs on a worker thread, so loop-level signal
        # handlers never installed; funnel SIGTERM through the same
        # drain path SIGINT takes.
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except (ValueError, OSError):
        pass  # not the main thread (embedded use); rely on /v1/shutdown
    try:
        service.start_in_thread()
        # The bound address on stdout as soon as the socket listens, so
        # scripts can wait for it (CI smoke, ephemeral ports).
        print(f"{config.name}: listening on {config.host}:{service.port}"
              + (f" (session {service.session.session_id})"
                 if service.session is not None else ""),
              flush=True)
        if service.tracer is not None:
            print(f"{config.name}: tracing to {service.tracer.root}",
                  flush=True)
        service._thread.join()
    except KeyboardInterrupt:
        service.stop(drain=True)
    stats = service.stats
    print(f"{config.name}: drained; {stats.completed} completed, "
          f"{stats.failed} failed, {stats.rejected} rejected, "
          f"{stats.compiles_executed} compiles executed, "
          f"{stats.compile_deduped + stats.cache_warm} compile requests "
          f"answered without compiling, {stats.sims_executed} simulations "
          f"executed, {stats.sim_deduped + stats.sim_reused} answered "
          f"without simulating", flush=True)
    return 0


# ----------------------------------------------------------------------
# repro submit


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-submit",
        description="Submit one compile or compile+simulate job to a "
                    "running service.")
    parser.add_argument("source", help="MiniC source file")
    parser.add_argument("--entry", default="main")
    parser.add_argument("--simulate", action="store_true",
                        help="also execute spatially (compile-only "
                             "otherwise)")
    parser.add_argument("--args", nargs="*", type=int, default=[],
                        help="integer arguments (implies --simulate)")
    parser.add_argument("--opt", default="full",
                        choices=["none", "basic", "medium", "full"])
    parser.add_argument("--verify", default="final",
                        help="verification policy (default: final)")
    parser.add_argument("--unroll-limit", type=int, default=0)
    parser.add_argument("--memory", default="perfect", dest="memsys")
    parser.add_argument("--engine", default=None,
                        choices=["compiled", "codegen", "interp"])
    parser.add_argument("--event-limit", type=int, default=None)
    parser.add_argument("--wall-limit", type=float, default=None)
    parser.add_argument("--cache-only", action="store_true",
                        help="warmth probe: never compile")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--client", default=None,
                        help="client identity for provenance tags")
    parser.add_argument("--wait", action="store_true",
                        help="sleep and retry on 429 backpressure")
    parser.add_argument("--json", action="store_true",
                        help="print the raw NDJSON events")
    return parser


def submit_main(argv: list[str] | None = None) -> int:
    from repro.service.client import ServiceClient
    options = build_submit_parser().parse_args(argv)
    try:
        with open(options.source) as handle:
            source = handle.read()
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    kind = "simulate" if (options.simulate or options.args) else "compile"
    payload = {
        "source": source, "entry": options.entry,
        "opt_level": options.opt, "verify": options.verify,
        "unroll_limit": options.unroll_limit,
        "cache_only": options.cache_only, "args": options.args,
        "memsys": options.memsys, "engine": options.engine,
        "event_limit": options.event_limit,
        "wall_limit": options.wall_limit, "client": options.client,
    }
    client = ServiceClient(host=options.host, port=options.port,
                           timeout=options.timeout,
                           client_id=options.client)
    try:
        request = JobRequest.from_payload(payload, kind)
        if options.json:
            failed = False
            for event in client.events(request):
                print(json.dumps(event), flush=True)
                failed = failed or event.get("event") == "error"
            return 1 if failed else 0
        outcome = client.submit(request, wait=options.wait)
    except (ServiceError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    summary = outcome.compile or {}
    print(f"request : {outcome.request_id}  ({kind})")
    print(f"artifact: {summary.get('key', '?')[:16]}  "
          f"cache={outcome.cache}")
    if "wall_time" in summary:
        print(f"compile : {summary['wall_time'] * 1e3:.1f} ms, "
              f"{summary.get('nodes', '?')} nodes")
    if outcome.result is not None:
        row = outcome.result
        print(f"result  : {row.get('return_value')}")
        print(f"cycles  : {row.get('cycles')}  ({row.get('memsys')} "
              f"memory, {row.get('engine')} engine)")
        print(f"memops  : {row.get('loads')} loads, "
              f"{row.get('stores')} stores")
    if outcome.elapsed is not None:
        print(f"elapsed : {outcome.elapsed * 1e3:.1f} ms server-side")
    return 0


# ----------------------------------------------------------------------
# repro cache


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="Inspect the content-addressed compilation cache.")
    commands = parser.add_subparsers(dest="command", required=True)
    stat_cmd = commands.add_parser(
        "stat", help="probe artifact warmth without compiling")
    stat_cmd.add_argument("source", nargs="?", default=None,
                          help="MiniC source file (omit for store-wide "
                               "totals only)")
    stat_cmd.add_argument("--entry", default="main")
    stat_cmd.add_argument("--opt", default="full",
                          choices=["none", "basic", "medium", "full"])
    stat_cmd.add_argument("--unroll-limit", type=int, default=0)
    stat_cmd.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="cache root (default: $REPRO_CACHE_DIR "
                               "or ~/.cache/repro-pegasus)")
    stat_cmd.add_argument("--host", default=None,
                          help="ask a running service instead of the "
                               "local cache directory")
    stat_cmd.add_argument("--port", type=int, default=DEFAULT_PORT)
    stat_cmd.add_argument("--json", action="store_true")
    return parser


def cache_main(argv: list[str] | None = None) -> int:
    options = build_cache_parser().parse_args(argv)
    try:
        return _cache_stat(options)
    except (OSError, ServiceError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cache_stat(options) -> int:
    from repro.pipeline.cache import CompilationCache
    source = None
    if options.source is not None:
        with open(options.source) as handle:
            source = handle.read()
    if options.host is not None:
        if source is None:
            print("error: --host needs a source file to probe",
                  file=sys.stderr)
            return 2
        from repro.service.client import ServiceClient
        client = ServiceClient(host=options.host, port=options.port)
        probe = client.cache_stat(source, options.entry,
                                  opt_level=options.opt,
                                  unroll_limit=options.unroll_limit)
    else:
        cache = CompilationCache(options.cache_dir)
        probe = None
        if source is not None:
            from repro.api import compile_minic
            program = compile_minic(source, options.entry,
                                    opt_level=options.opt,
                                    unroll_limit=options.unroll_limit,
                                    cache=cache, cache_only=True)
            from repro.pipeline.config import PipelineConfig
            config = PipelineConfig.make(opt_level=options.opt,
                                         verify="every-pass",
                                         unroll_limit=options.unroll_limit,
                                         filename=options.source)
            probe = {"key": cache.key(source, options.entry, config),
                     "warm": program is not None,
                     "cache_root": str(cache.root)}
        totals = cache.stats()
        stale = len(cache.stale_tmp())
        if options.json:
            payload = {"entries": totals["entries"],
                       "bytes": totals["bytes"], "stale_tmp": stale,
                       "cache_root": str(cache.root)}
            if probe is not None:
                payload["probe"] = probe
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0 if probe is None or probe["warm"] else 1
        if probe is not None:
            state = "WARM" if probe["warm"] else "cold"
            print(f"artifact: {probe['key'][:16]}  [{state}]")
        print(f"cache   : {totals['entries']} artifact(s), "
              f"{totals['bytes'] / 1024:.1f} KiB at {cache.root}"
              + (f", {stale} stale tmp file(s)" if stale else ""))
        return 0 if probe is None or probe["warm"] else 1
    # Remote probe result.
    if options.json:
        print(json.dumps(probe, indent=2, sort_keys=True))
    else:
        state = "WARM" if probe["warm"] else "cold"
        print(f"artifact: {probe['key'][:16]}  [{state}]  "
              f"(server cache {probe['cache_root']})")
    return 0 if probe["warm"] else 1
