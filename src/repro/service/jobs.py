"""Job bodies the service executes — module-level, hence picklable.

The server never compiles or simulates on its event loop: compile jobs
go to the shared :class:`~repro.orchestrate.executors.PoolExecutor`
(process-pool with inline degradation) and simulation jobs run through
the orchestrate :class:`~repro.orchestrate.scheduler.Scheduler`, whose
``_run_job`` wrapper already handles telemetry re-establishment and
wall-limit injection in workers. The compile path bypasses the
scheduler to reach the pool directly for batching, so it re-establishes
the session itself with the same
:func:`~repro.observe.telemetry.adopt_session`.
"""

from __future__ import annotations

from repro.service.protocol import JobRequest, ServiceError


def compile_artifact(payload: dict, cache_root: str,
                     session_spec: dict | None, tags: dict,
                     trace_ctx: dict | None = None) -> dict:
    """Ensure the artifact for ``payload`` exists in the shared cache.

    Runs in a pool worker (or inline when the pool degraded). Returns a
    compile summary the server streams to every client waiting on this
    key. The compile is recorded as a RunRecord (kind="compile") under
    the service session, tagged with the leader request's identity —
    the provenance trail that proves N identical submissions cost one
    compile execution. ``trace_ctx`` is the leader request's trace
    position: adopted here, the driver's compile/stage spans parent
    under the request span even from a pool worker.
    """
    from repro.observe.telemetry import adopt_session, telemetry_tags
    from repro.observe.tracing import adopt_context
    from repro.pipeline.cache import CompilationCache
    from repro.pipeline.driver import CompilerDriver

    request = JobRequest.from_payload(payload, kind="compile")
    config = request.pipeline_config()
    cache = CompilationCache(cache_root)
    with adopt_session(session_spec), adopt_context(trace_ctx), \
            telemetry_tags(**tags):
        program = CompilerDriver(config, cache=cache).compile(
            request.source, request.entry)
    report = program.report
    summary = {
        "key": cache.key(request.source, request.entry, config),
        "cache": getattr(report, "cache_status", None) or "miss",
        "entry": request.entry,
        "opt_level": request.opt_level,
        "nodes": len(program.graph),
    }
    if report is not None:
        summary["wall_time"] = round(report.total_wall_time, 6)
        summary["passes"] = len(report.passes)
    return summary


def simulate_row(cache_root: str, key: str, args: list, memsys_name: str,
                 engine: str, event_limit: int | None,
                 wall_limit: float | None = None) -> dict:
    """Execute one simulation against a cached artifact; returns a row.

    Scheduled through the orchestrate Scheduler, so retry/timeout
    classification, wall-limit injection, and worker-side telemetry all
    come for free. A missing artifact is a deterministic failure (the
    compile phase completed before this job was submitted, so the only
    way here is external cache eviction) — raising ServiceError makes
    the scheduler report it terminally instead of retrying.
    """
    from repro.pipeline.cache import CompilationCache
    from repro.sim.memsys import MemorySystem, named_system

    cache = CompilationCache(cache_root)
    program = cache.get(key)
    if program is None:
        raise ServiceError(f"artifact {key[:12]} vanished from the cache "
                           f"at {cache_root} (evicted between compile "
                           f"and simulate?)")
    result = program.simulate(
        list(args),
        memsys=MemorySystem(named_system(memsys_name)),
        engine=engine,
        event_limit=event_limit,
        wall_limit=wall_limit,
    )
    return {
        "return_value": result.return_value,
        "cycles": result.cycles,
        "fired": result.fired,
        "loads": result.loads,
        "stores": result.stores,
        "skipped_memops": result.skipped_memops,
        "memsys": memsys_name,
        "engine": engine,
    }
