"""The asyncio compile/simulate server behind ``repro serve``.

Stdlib-only: one :func:`asyncio.start_server` loop speaking just enough
HTTP/1.1 (JSON bodies in, NDJSON event streams out) that any client —
ours, or ``curl`` — can drive it. The event loop never compiles or
simulates; it only coordinates:

- **dedup** — requests are content-addressed with the same fingerprints
  the pipeline uses (:meth:`~repro.service.protocol.JobRequest
  .compile_key` / ``simulate_key``). An identical request arriving while
  a matching one is in flight awaits the leader's future instead of
  executing (``asyncio.shield`` keeps a follower's disconnect from
  cancelling shared work), and a compile whose artifact is already on
  disk is answered from the cache without touching a worker;
- **row reuse** — a simulation is a pure function of its simulate key,
  so the leader's future stays in the simulation map once it resolves
  with a row (LRU, at most :data:`SIM_ROWS_LIMIT` keys) and a later
  request with the same key is answered from it on the loop: no worker
  thread, artifact load or engine run. Failures and timeouts leave the
  map. The rows stay in memory on purpose: the key pins the artifact
  but not the simulator, so a row on disk could outlive the code that
  computed it;
- **batching** — cache-miss compiles land on an ``asyncio.Queue`` a
  batcher task drains with a small time window, submitting each batch
  onto the shared :class:`~repro.orchestrate.executors.PoolExecutor`
  (process pool with inline degradation, so the server also runs in
  sandboxes without process primitives);
- **scheduling** — each executed simulation runs as a single-job
  :class:`~repro.orchestrate.dag.JobDAG` through the orchestrate
  :class:`~repro.orchestrate.scheduler.Scheduler` in a worker thread, so
  retry classification, wall-limit injection, and provenance tagging are
  the sweep machinery's, not reimplemented here;
- **admission control** — at most ``max_queue`` jobs are in flight; the
  next one is refused with ``429`` and a ``Retry-After`` hint instead of
  growing an unbounded backlog;
- **draining** — ``POST /v1/shutdown`` flips the server into draining
  (new jobs get ``503``), waits for in-flight jobs, then exits cleanly.

Every job is recorded into the service's
:class:`~repro.observe.telemetry.TelemetrySession` tagged
``{service, client, request}``: executed compiles via the driver
(``cache_status="miss"``), coalesced/warm ones as lightweight records
(``"deduped"``/``"warm"``), executed simulations via the scheduler and
answered ones as ``kind="run"`` records tagged ``dedup="in-flight"`` or
``dedup="stored"``. N identical submissions therefore leave exactly one
``cache_status="miss"`` compile record and one executed run record —
the provenance proof of dedup.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from repro.service import jobs
from repro.service.protocol import (
    EVENT_ACCEPTED,
    EVENT_COMPILE,
    EVENT_DONE,
    EVENT_ERROR,
    EVENT_RESULT,
    MAX_BODY_BYTES,
    PROTOCOL_VERSION,
    JobRequest,
    ServiceError,
    ServiceStats,
)

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}

#: Retry-After hint (seconds) sent with 429 backpressure responses.
RETRY_AFTER = 0.05

#: Most simulate keys kept for reuse, least recently used first out.
#: A row is about 650 B, so the store stays under 1 MB.
SIM_ROWS_LIMIT = 1024


def _clean_mp_context():
    """A forkserver multiprocessing context, pre-started before any
    client connects.

    Plain fork would snapshot the server at submit time — pool workers
    forked while a request is in flight inherit that client's socket
    fd, and the duplicate keeps the connection from ever delivering EOF
    after the server closes its copy. Forkserver children descend from
    a pristine early process instead: no client fds, no mid-operation
    thread/lock state. Falls back to the platform default (and
    ultimately to PoolExecutor's inline degradation) where forkserver
    is unavailable.
    """
    try:
        import __main__
        import multiprocessing
        from multiprocessing import forkserver
        main_file = getattr(__main__, "__file__", None)
        if getattr(__main__, "__spec__", None) is None and (
                main_file is None or not os.path.exists(main_file)):
            # Forkserver children re-run the main module's preparation;
            # an unimportable main (stdin scripts, embedded REPLs)
            # would crash every worker. Fall back to the platform
            # default there.
            return None
        context = multiprocessing.get_context("forkserver")
        forkserver.ensure_running()
        return context
    except (ImportError, ValueError, OSError):
        return None


def _consume_exception(future) -> None:
    """Mark a shared in-flight future's exception as retrieved even
    when every waiter disconnected before it settled (otherwise the
    loop logs 'exception was never retrieved' on gc)."""
    if not future.cancelled():
        future.exception()


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 0                  # 0 = ephemeral (tests/bench)
    name: str = "repro-service"
    #: Admission limit: jobs in flight before new ones get 429.
    max_queue: int = 256
    #: Compile micro-batching: how long the batcher waits to fill a
    #: batch, and the most compiles one batch submits together.
    batch_window: float = 0.01
    batch_max: int = 16
    #: Process-pool width for compiles (None = cpu count).
    workers: int | None = None
    #: Worker threads running simulations and handing compiles to the
    #: pool.
    sim_threads: int = 16
    #: Scheduler policy for simulations.
    retries: int = 1
    wall_limit: float | None = None
    #: Shared artifact store root (None = $REPRO_CACHE_DIR / default).
    cache_root: str | None = None
    #: Telemetry store root (None = $REPRO_TELEMETRY_DIR / default).
    telemetry_root: str | None = None
    record: bool = True
    #: Distributed tracing: record a span tree per request (root
    #: ``request:<id>`` down through scheduler/pipeline spans) into
    #: ``trace_dir`` shards.
    trace: bool = False
    trace_dir: str | None = None
    #: How long a draining shutdown waits for in-flight jobs.
    drain_grace: float = 30.0


class CompileService:
    """One server instance: configure, then :meth:`run` (blocking) or
    :meth:`start_in_thread` (tests, bench, notebooks)."""

    def __init__(self, config: ServiceConfig | None = None):
        from repro.api import resolve_engine
        from repro.observe.metrics import MetricsRegistry
        from repro.pipeline.cache import CompilationCache

        self.config = config or ServiceConfig()
        #: The engine a request without one runs on ($REPRO_SIM_ENGINE,
        #: else the default), resolved once so that it, and not "no
        #: engine", is what simulate keys and result rows name.
        self.engine = resolve_engine(None)
        self.stats = ServiceStats()
        self.cache = CompilationCache(self.config.cache_root)
        #: Live counters/gauges/histograms, served on ``/v1/metrics``.
        #: Per-service (not global) so parallel test services don't
        #: bleed into each other; made ambient for the server's
        #: lifetime so scheduler/pipeline instrumentation lands here.
        self.metrics = MetricsRegistry()
        self.tracer = None             # Tracer when config.trace
        self.session = None            # TelemetrySession when recording
        self.port: int | None = None   # bound port once listening
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._draining = False
        self._active = 0               # jobs admitted and not finished
        self._counter = 0
        self._inflight_compiles: dict[str, asyncio.Future] = {}
        #: Simulations by simulate key, least recently used first: the
        #: leader's future, in flight or resolved with its row.
        self._sims: OrderedDict[str, asyncio.Future] = OrderedDict()
        self._compile_queue: asyncio.Queue | None = None
        self._stop: asyncio.Event | None = None
        self._pool = None              # shared PoolExecutor

    # ------------------------------------------------------------------
    # Lifecycle

    def run(self) -> int:
        """Serve until shutdown (the ``repro serve`` body); exit status."""
        asyncio.run(self._main())
        return 0

    def start_in_thread(self) -> "CompileService":
        """Run the server on a daemon thread; returns once listening."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-service", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServiceError("service failed to start listening")
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop a :meth:`start_in_thread` server from any thread."""
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        loop.call_soon_threadsafe(self._begin_shutdown, drain)
        if self._thread is not None:
            self._thread.join(timeout=self.config.drain_grace + 10)

    async def _main(self) -> None:
        from repro.observe.metrics import disable_metrics, enable_metrics
        from repro.observe.store import TelemetryStore
        from repro.observe.telemetry import TelemetrySession
        from repro.orchestrate.executors import PoolExecutor

        enable_metrics(self.metrics)
        if self.config.trace:
            from repro.observe.tracing import Tracer
            self.tracer = Tracer(self.config.trace_dir)
            self.tracer.__enter__()
        self._loop = asyncio.get_running_loop()
        self._loop.set_default_executor(
            ThreadPoolExecutor(max_workers=self.config.sim_threads,
                               thread_name_prefix="repro-sim"))
        self._stop = asyncio.Event()
        self._compile_queue = asyncio.Queue()
        self._pool = PoolExecutor(max_workers=self.config.workers,
                                  mp_context=_clean_mp_context())
        if self.config.record:
            store = (TelemetryStore(self.config.telemetry_root)
                     if self.config.telemetry_root else TelemetryStore())
            self.session = TelemetrySession(store=store,
                                            label=self.config.name)
            self.session.__enter__()
        self._install_signal_handlers()
        batcher = asyncio.ensure_future(self._batcher())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            batcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await batcher
            self._pool.shutdown()
            if self.session is not None:
                self.session.__exit__(None, None, None)
            if self.tracer is not None:
                self.tracer.__exit__(None, None, None)
            disable_metrics(self.metrics)

    def _install_signal_handlers(self) -> None:
        import signal
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._loop.add_signal_handler(
                    signum, self._begin_shutdown, True)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without loop signals

    def _begin_shutdown(self, drain: bool) -> None:
        """Flip into draining and stop once in-flight jobs finish."""
        if self._draining and drain:
            return
        self._draining = True
        if not drain:
            self._stop.set()
            return
        asyncio.ensure_future(self._drain_then_stop())

    async def _drain_then_stop(self) -> None:
        deadline = self._loop.time() + self.config.drain_grace
        while self._active and self._loop.time() < deadline:
            await asyncio.sleep(0.02)
        self._stop.set()

    # ------------------------------------------------------------------
    # HTTP front door

    async def _handle_connection(self, reader, writer) -> None:
        try:
            method, path = await self._read_request_line(reader)
            headers = await self._read_headers(reader)
            length = int(headers.get("content-length") or 0)
            if length > MAX_BODY_BYTES:
                return await self._send_json(
                    writer, 413, {"error": "request body too large"})
            body = await reader.readexactly(length) if length else b""
            await self._route(method, path, body, writer)
        except (asyncio.IncompleteReadError, ConnectionError,
                BrokenPipeError):
            pass  # client went away; shared work continues regardless
        except ServiceError as error:
            with contextlib.suppress(ConnectionError, BrokenPipeError):
                await self._send_json(writer, error.status or 400,
                                      {"error": str(error)})
        except Exception as error:  # noqa: BLE001 — server must survive
            with contextlib.suppress(ConnectionError, BrokenPipeError):
                await self._send_json(writer, 500,
                                      {"error": f"internal: {error}"})
        finally:
            with contextlib.suppress(ConnectionError, BrokenPipeError):
                writer.close()
                await writer.wait_closed()

    @staticmethod
    async def _read_request_line(reader) -> tuple[str, str]:
        line = (await reader.readline()).decode("latin-1").strip()
        parts = line.split()
        if len(parts) < 2:
            raise ServiceError("malformed request line", status=400)
        return parts[0].upper(), parts[1]

    @staticmethod
    async def _read_headers(reader) -> dict[str, str]:
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

    async def _route(self, method: str, path: str, body: bytes,
                     writer) -> None:
        if path == "/v1/health" and method == "GET":
            return await self._send_json(writer, 200, self.describe())
        if path == "/v1/metrics" and method == "GET":
            return await self._send_metrics(writer)
        if method != "POST":
            raise ServiceError(f"{method} not supported here", status=405)
        payload = self._parse_body(body)
        if path == "/v1/compile":
            return await self._handle_job("compile", payload, writer)
        if path == "/v1/simulate":
            return await self._handle_job("simulate", payload, writer)
        if path == "/v1/cache/stat":
            return await self._handle_cache_stat(payload, writer)
        if path == "/v1/shutdown":
            drain = bool(payload.get("drain", True))
            self._begin_shutdown(drain)
            return await self._send_json(
                writer, 200, {"ok": True, "draining": drain,
                              "in_flight": self._active})
        raise ServiceError(f"unknown path {path}", status=404)

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except ValueError as error:
            raise ServiceError(f"request body is not JSON: {error}",
                               status=400) from None
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object",
                               status=400)
        return payload

    # ------------------------------------------------------------------
    # Job handling

    async def _handle_job(self, kind: str, payload: dict, writer) -> None:
        from repro.observe.tracing import span

        request = JobRequest.from_payload(payload, kind)  # 400 on bad input
        if request.engine is None:
            request = replace(request, engine=self.engine)
        if self._draining:
            raise ServiceError("server is draining", status=503)
        if self._active >= self.config.max_queue:
            self.stats.rejected += 1
            self.metrics.counter("repro_requests_rejected_total").inc()
            return await self._send_json(
                writer, 429,
                {"error": f"admission queue full "
                          f"({self.config.max_queue} jobs in flight)",
                 "retry_after": RETRY_AFTER},
                retry_after=RETRY_AFTER)
        self._active += 1
        self.stats.received += 1
        self._counter += 1
        request_id = f"r{self._counter:06d}"
        started = time.monotonic()
        self.metrics.counter("repro_requests_total", kind=kind).inc()
        self.metrics.gauge("repro_requests_in_flight").inc()
        try:
            # The request root span: everything downstream — dedup
            # decision, batcher compile, scheduler sim attempt — parents
            # under it (ensure_future/to_thread snapshot the contextvar).
            with span(f"request:{request_id}", kind=kind,
                      request=request_id, service=self.config.name,
                      client=request.client or "anonymous"):
                self._send_stream_head(writer)
                await self._emit(writer, {
                    "event": EVENT_ACCEPTED, "request": request_id,
                    "kind": kind, "protocol": PROTOCOL_VERSION})
                key = request.compile_key(self.cache)
                if kind == "compile" and request.cache_only:
                    summary = {"key": key,
                               "cache": ("warm" if self.cache.contains(key)
                                         else "cold")}
                else:
                    summary = await self._ensure_compile(key, request,
                                                         request_id)
                await self._emit(writer,
                                 {"event": EVENT_COMPILE, **summary})
                if kind == "simulate":
                    row = await self._ensure_sim(key, request, request_id)
                    await self._emit(writer,
                                     {"event": EVENT_RESULT, **row})
                self.stats.completed += 1
                await self._emit(writer, {
                    "event": EVENT_DONE, "request": request_id,
                    "elapsed": round(time.monotonic() - started, 6)})
        except (ServiceError, Exception) as error:  # noqa: BLE001
            self.stats.failed += 1
            self.metrics.counter("repro_requests_failed_total").inc()
            with contextlib.suppress(ConnectionError, BrokenPipeError):
                await self._emit(writer, {
                    "event": EVENT_ERROR, "request": request_id,
                    "error": f"{type(error).__name__}: {error}"})
        finally:
            self._active -= 1
            self.metrics.gauge("repro_requests_in_flight").dec()
            self.metrics.histogram("repro_request_seconds").observe(
                time.monotonic() - started)

    # -- compile path ---------------------------------------------------

    async def _ensure_compile(self, key: str, request: JobRequest,
                              request_id: str) -> dict:
        """Artifact for ``key`` on disk + its compile summary."""
        from repro.observe.tracing import propagation_context

        inflight = self._inflight_compiles.get(key)
        if inflight is not None:
            # Coalesce onto the in-flight leader. shield(): this
            # follower disconnecting must not cancel shared work.
            self.stats.compile_deduped += 1
            self.metrics.counter("repro_compile_dedup_total",
                                 role="follower").inc()
            summary = dict(await asyncio.shield(inflight))
            summary["cache"] = "deduped"
            self._note_compile(request, request_id, "deduped")
            return summary
        if self.cache.contains(key):
            self.stats.cache_warm += 1
            self.metrics.counter("repro_cache_warm_total").inc()
            self._note_compile(request, request_id, "warm")
            return {"key": key, "cache": "warm", "entry": request.entry,
                    "opt_level": request.opt_level}
        # This request is the leader: everyone with the same key who
        # arrives before the batcher resolves the future rides along.
        # Provenance (tags + trace position) is captured here, in the
        # request's own context — the batcher task that executes the
        # compile has no request context of its own.
        self.metrics.counter("repro_compile_dedup_total",
                             role="leader").inc()
        future = self._loop.create_future()
        future.add_done_callback(_consume_exception)
        self._inflight_compiles[key] = future
        await self._compile_queue.put(
            (key, request, request_id, future,
             self._request_tags(request, request_id),
             propagation_context()))
        return await asyncio.shield(future)

    async def _batcher(self) -> None:
        """Drain the compile queue in small time-windowed batches."""
        while True:
            batch = [await self._compile_queue.get()]
            deadline = self._loop.time() + self.config.batch_window
            while len(batch) < self.config.batch_max:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(
                        self._compile_queue.get(), remaining))
                except asyncio.TimeoutError:
                    break
            self.stats.compile_batches += 1
            self.stats.largest_batch = max(self.stats.largest_batch,
                                           len(batch))
            self.metrics.counter("repro_compile_batches_total").inc()
            self.metrics.histogram("repro_compile_batch_size",
                                   buckets=(1, 2, 4, 8, 16, 32)).observe(
                len(batch))
            for entry in batch:
                asyncio.ensure_future(self._execute_compile(*entry))

    async def _execute_compile(self, key: str, request: JobRequest,
                               request_id: str, future, tags=None,
                               trace_ctx=None) -> None:
        """Run one leader compile on the pool; settle its future."""
        from concurrent.futures.process import BrokenProcessPool

        if tags is None:
            tags = self._request_tags(request, request_id)
        submit = lambda: self._pool.submit(  # noqa: E731
            jobs.compile_artifact, request.to_payload(),
            str(self.cache.root),
            self.session.spec() if self.session is not None else None,
            tags, trace_ctx)
        try:
            try:
                summary = await asyncio.wrap_future(
                    await asyncio.to_thread(submit))
            except BrokenProcessPool:
                # A sibling's hard-timeout reap killed the pool under
                # us: infrastructure, not this job — one retry.
                self._pool.reset()
                summary = await asyncio.wrap_future(
                    await asyncio.to_thread(submit))
            self.stats.compiles_executed += 1
            self.metrics.counter("repro_compiles_executed_total").inc()
        except BaseException as error:
            self._inflight_compiles.pop(key, None)
            if not future.done():
                future.set_exception(
                    error if isinstance(error, Exception)
                    else ServiceError(f"compile aborted: {error}"))
            return
        self._inflight_compiles.pop(key, None)
        if not future.done():
            future.set_result(summary)

    # -- simulate path --------------------------------------------------

    async def _ensure_sim(self, compile_key: str, request: JobRequest,
                          request_id: str) -> dict:
        skey = request.simulate_key(compile_key)
        known = self._sims.get(skey)
        if known is not None:
            self._sims.move_to_end(skey)
            if known.done():
                self.stats.sim_reused += 1
                self.metrics.counter("repro_sim_reuse_total").inc()
                dedup = "stored"
            else:
                self.stats.sim_deduped += 1
                self.metrics.counter("repro_sim_dedup_total").inc()
                dedup = "in-flight"
            row = {**await asyncio.shield(known), "deduped": True}
            self._note_sim(request, request_id, dedup)
            return row
        # Leader: the execution task is owned by the service, not this
        # connection — a disconnect cannot strand the followers.
        future = self._loop.create_future()
        future.add_done_callback(_consume_exception)
        self._sims[skey] = future
        if len(self._sims) > SIM_ROWS_LIMIT:
            self._sims.popitem(last=False)
        asyncio.ensure_future(self._execute_sim(compile_key, skey,
                                                request, request_id,
                                                future))
        return dict(await asyncio.shield(future))

    async def _execute_sim(self, compile_key: str, skey: str,
                           request: JobRequest, request_id: str,
                           future) -> None:
        try:
            row, attempts = await asyncio.to_thread(
                self._run_sim, compile_key, skey, request, request_id)
            self.stats.sims_executed += 1
            self.stats.sim_retries += max(0, attempts - 1)
        except BaseException as error:
            # Only this leader's entry: once evicted, a newer leader may
            # hold the key.
            if self._sims.get(skey) is future:
                del self._sims[skey]
            if not future.done():
                future.set_exception(
                    error if isinstance(error, Exception)
                    else ServiceError(f"simulation aborted: {error}"))
            return
        if not future.done():
            future.set_result(row)

    def _run_sim(self, compile_key: str, skey: str, request: JobRequest,
                 request_id: str) -> tuple[dict, int]:
        """One simulation as a single-job DAG (runs in a worker thread).

        Only a key missing from the simulation map gets here. The
        scheduler brings the sweep policy with it — transient
        failures retried with the configured budget, ReproError and
        cooperative timeouts terminal, telemetry tagged per attempt. It
        runs the job on an :class:`InlineExecutor`, in this thread, so
        a simulation never outlives the server process. No journal: the
        stored rows are all the service keeps of executed simulations.
        """
        from repro.orchestrate.dag import JobDAG
        from repro.orchestrate.executors import InlineExecutor
        from repro.orchestrate.scheduler import Scheduler

        name = f"sim-{skey[:12]}"
        dag = JobDAG(f"service-{request_id}")
        dag.job(name, jobs.simulate_row, str(self.cache.root),
                compile_key, list(request.args), request.memsys,
                request.engine, request.event_limit, category="cell")
        scheduler = Scheduler(
            dag, executor=InlineExecutor(), retries=self.config.retries,
            wall_limit=request.wall_limit or self.config.wall_limit,
            tags=self._request_tags(request, request_id))
        result = scheduler.run(resume=False).results[name]
        if not result.ok:
            raise ServiceError(
                f"simulation {result.status} after {result.attempts} "
                f"attempt(s): {result.error}")
        return result.value, result.attempts

    # ------------------------------------------------------------------
    # Telemetry provenance

    def _request_tags(self, request: JobRequest, request_id: str) -> dict:
        from repro.observe.tracing import current_trace_id
        tags = {"service": self.config.name,
                "client": request.client or "anonymous",
                "request": request_id,
                "kind": request.kind}
        trace_id = current_trace_id()
        if trace_id is not None:
            # RunRecords and trace spans cross-reference by this key.
            tags["trace_id"] = trace_id
        return tags

    def _note_compile(self, request: JobRequest, request_id: str,
                      status: str) -> None:
        """Record a compile answered without executing one (warm disk
        hit or in-flight coalesce) — the request still leaves a record,
        but never a ``cache_status="miss"`` one."""
        if self.session is None:
            return
        from repro.observe.telemetry import RunRecord
        self.session.record(RunRecord(
            kind="compile", created_at=time.time(), entry=request.entry,
            tags=self._request_tags(request, request_id),
            compilation={"cache_status": status}))

    def _note_sim(self, request: JobRequest, request_id: str,
                  dedup: str) -> None:
        """Record a simulation answered without executing one, by
        coalescing onto a leader (``"in-flight"``) or from a stored row
        (``"stored"``)."""
        if self.session is None:
            return
        from repro.observe.telemetry import RunRecord
        self.session.record(RunRecord(
            kind="run", created_at=time.time(), entry=request.entry,
            tags={**self._request_tags(request, request_id),
                  "dedup": dedup},
            memsys=request.memsys, args=list(request.args)))

    # ------------------------------------------------------------------
    # Cache stat + health

    async def _handle_cache_stat(self, payload: dict, writer) -> None:
        """Warmth probe: is this request's artifact on disk? Never
        compiles (the ``cache_only`` path all the way down)."""
        request = JobRequest.from_payload(payload, "compile")
        key = request.compile_key(self.cache)
        await self._send_json(writer, 200, {
            "key": key,
            "warm": self.cache.contains(key),
            "cache_root": str(self.cache.root),
        })

    def describe(self) -> dict:
        """The ``/v1/health`` body: identity, load, and counters."""
        return {
            "service": self.config.name,
            "protocol": PROTOCOL_VERSION,
            "draining": self._draining,
            "in_flight": self._active,
            "max_queue": self.config.max_queue,
            "cache_root": str(self.cache.root),
            "session": (self.session.session_id
                        if self.session is not None else None),
            "stats": self.stats.to_dict(),
        }

    # ------------------------------------------------------------------
    # Wire helpers

    def _send_stream_head(self, writer) -> None:
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")

    async def _emit(self, writer, event: dict) -> None:
        writer.write(json.dumps(event).encode() + b"\n")
        await writer.drain()

    async def _send_json(self, writer, status: int, payload: dict,
                         retry_after: float | None = None) -> None:
        body = json.dumps(payload).encode()
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n")
        if retry_after is not None:
            head += f"Retry-After: {retry_after}\r\n"
        writer.write(head.encode() + b"\r\n" + body)
        await writer.drain()

    async def _send_metrics(self, writer) -> None:
        """``GET /v1/metrics``: the live registry as Prometheus text."""
        from repro.observe.metrics import (
            PROMETHEUS_CONTENT_TYPE,
            render_prometheus,
        )
        text = render_prometheus(self.metrics.snapshot(
            tags={"service": self.config.name}))
        body = text.encode()
        head = (f"HTTP/1.1 200 OK\r\n"
                f"Content-Type: {PROMETHEUS_CONTENT_TYPE}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n")
        writer.write(head.encode() + b"\r\n" + body)
        await writer.drain()
