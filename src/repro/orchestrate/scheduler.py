"""The sweep scheduler: run a JobDAG to completion, whatever happens.

Execution policy, in one place instead of hand-rolled per figure:

- **ready-set dispatch** — every job whose dependencies completed OK is
  submitted to the executor; completions unlock dependents incrementally
  (no barrier between waves);
- **bounded retry with jittered backoff** — transient failures (a
  killed worker, a revoked lease, an OSError) are retried up to
  ``retries`` times; the sleep before attempt *n* is drawn uniformly
  from ``[0, backoff * (n - 1)]`` (full jitter, seeded per job key so
  it is deterministic yet decorrelated — N workers retrying one flaky
  job do not stampede in lockstep); deterministic failures (any
  :class:`~repro.errors.ReproError`) and cooperative timeouts are
  terminal on the first attempt;
- **DEGRADED propagation** — a job whose dependency degraded is skipped
  (transitively) rather than run against missing inputs; ``tolerant``
  jobs (aggregates) run anyway with ``None`` for each degraded input;
- **checkpoint/resume** — completed jobs are appended to a
  :class:`~repro.orchestrate.journal.Journal` keyed by content-addressed
  job key; a rerun replays them as ``resumed`` without executing;
- **provenance** — under an active
  :class:`~repro.observe.telemetry.TelemetrySession` every job execution
  is tagged with the DAG id, job name, attempt number, and executor
  backend, worker processes included, so a whole sweep is one diffable,
  provenance-complete run-set.

Two chaos hooks exist for CI and the crash-resume tests (and nothing
else): ``REPRO_SWEEP_KILL_AFTER=<n>`` SIGKILLs the scheduler process
after the *n*-th freshly-executed job is journaled, and
``REPRO_SWEEP_FLAKE=<substr>`` makes the first attempt of every matching
job raise an injected ``OSError``. The distributed failure matrix has
its own worker-side hooks (``REPRO_WORKER_KILL_AFTER``,
``REPRO_WORKER_STALL``, ``REPRO_NET_DROP_AFTER``) — see
:mod:`repro.orchestrate.worker`.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError, SimulationTimeout
from repro.orchestrate.dag import JobDAG, JobSpec
from repro.orchestrate.executors import Executor, InlineExecutor
from repro.orchestrate.journal import Journal, merge_shards

#: Statuses carrying a value.
OK_STATUSES = ("ok", "resumed")

#: Environment chaos hooks (see module docstring).
KILL_AFTER_ENV = "REPRO_SWEEP_KILL_AFTER"
FLAKE_ENV = "REPRO_SWEEP_FLAKE"

#: Filled by :mod:`repro.orchestrate.worker` in remote worker processes
#: (worker id, host, lease id); :func:`_run_job` folds it into the
#: telemetry tags so every RunRecord names the lease that produced it.
_worker_provenance: dict = {}


@dataclass
class JobResult:
    """Terminal state of one job in one scheduler run."""

    name: str
    status: str              # ok | resumed | timeout | error | skipped
    value: object = None
    error: str | None = None
    attempts: int = 0
    elapsed: float = 0.0
    executor: str | None = None
    category: str = "job"
    #: The original exception object for failed jobs (never journaled;
    #: lets strict callers re-raise instead of wrapping the message).
    exception: BaseException | None = None
    #: Distributed provenance: which worker/host executed the final
    #: attempt, under which lease (None on in-process executors).
    worker: str | None = None
    host: str | None = None
    lease: str | None = None

    @property
    def ok(self) -> bool:
        return self.status in OK_STATUSES

    @property
    def degraded(self) -> bool:
        return not self.ok

    def describe(self) -> str:
        if self.status == "resumed":
            return "resumed from journal"
        if self.status == "ok":
            retried = (f" ({self.attempts} attempts)"
                       if self.attempts > 1 else "")
            where = f" on {self.worker}" if self.worker else ""
            return f"ok in {self.elapsed:.2f}s{retried}{where}"
        if self.status == "skipped":
            return f"SKIPPED: {self.error or 'upstream degraded'}"
        detail = self.error or "unknown failure"
        return (f"{self.status.upper()} after {self.attempts} "
                f"attempt{'s' if self.attempts != 1 else ''}: {detail}")


@dataclass
class SweepResult:
    """Everything one :meth:`Scheduler.run` produced."""

    dag_name: str
    dag_id: str
    executor: str
    results: dict[str, JobResult] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)

    def __getitem__(self, name: str) -> JobResult:
        return self.results[name]

    def value(self, name: str):
        result = self.results.get(name)
        return result.value if result is not None and result.ok else None

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results.values())

    @property
    def degraded(self) -> list[JobResult]:
        return [self.results[name] for name in self.order
                if self.results[name].degraded]

    @property
    def retries(self) -> int:
        """Extra attempts spent across the whole sweep."""
        return sum(max(0, result.attempts - 1)
                   for result in self.results.values())

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results.values():
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    def report(self) -> str:
        """One line per job plus a summary — the sweep post-mortem."""
        lines = [f"{name}: {self.results[name].describe()}"
                 for name in self.order]
        counts = self.counts()
        summary = ", ".join(f"{count} {status}"
                            for status, count in sorted(counts.items()))
        lines.append(f"{summary}; {self.retries} retries; "
                     f"executor {self.executor}; dag {self.dag_id[:12]}")
        return "\n".join(lines)


class Scheduler:
    """Run a :class:`~repro.orchestrate.dag.JobDAG` under one policy.

    ``retries`` is the number of *extra* attempts a transiently-failing
    job gets (per-spec override wins); the sleep before attempt *n* is
    drawn uniformly from ``[0, backoff * (n - 1)]`` — full jitter over
    the linear ceiling, seeded by ``jitter_seed`` and the job's content
    key, so the spread is deterministic per job yet decorrelated across
    jobs. ``wall_limit`` is the cooperative per-attempt budget, injected
    as a ``wall_limit=`` kwarg into jobs that accept one; on executors
    that cannot be trusted to honor it (the process pool), a job
    ``hard_grace`` seconds past its wall-limit has its worker reaped and
    is recorded ``timeout``. ``journal`` enables checkpoint/resume,
    keyed by each job's content key — resuming first folds any
    per-worker journal shards from a previous distributed run into the
    main journal.
    """

    def __init__(self, dag: JobDAG, executor: Executor | None = None,
                 journal: Journal | str | os.PathLike | None = None,
                 *, retries: int = 0, backoff: float = 0.0,
                 wall_limit: float | None = None, jitter_seed: int = 0,
                 hard_grace: float = 5.0, tags: dict | None = None):
        self.dag = dag
        #: Extra telemetry tags stamped on every job execution of this
        #: run (the compile service tags {service, client, request});
        #: they ride the same path as the dag/job/attempt tags, so they
        #: survive the process boundary into pool and remote workers.
        self.extra_tags = dict(tags or {})
        self.executor = executor if executor is not None else InlineExecutor()
        if isinstance(journal, (str, os.PathLike)):
            journal = Journal(journal)
        self.journal = journal
        self.retries = max(0, retries)
        self.backoff = max(0.0, backoff)
        self.wall_limit = wall_limit
        self.jitter_seed = jitter_seed
        self.hard_grace = max(0.0, hard_grace)
        kill_after = os.environ.get(KILL_AFTER_ENV)
        self._kill_after = int(kill_after) if kill_after else None

    def _backoff_delay(self, spec: JobSpec, attempt: int) -> float:
        """Full-jitter retry delay before ``attempt`` (0 for the first).

        Deterministic for a given ``jitter_seed`` + job key + attempt,
        but decorrelated across jobs: a fleet of workers retrying the
        same transiently-failing sweep spreads out instead of stampeding
        in lockstep.
        """
        if attempt <= 1 or not self.backoff:
            return 0.0
        ceiling = self.backoff * (attempt - 1)
        rng = random.Random(f"{self.jitter_seed}\x1f{spec.key}\x1f{attempt}")
        return rng.uniform(0.0, ceiling)

    def _shard_dir(self) -> Path | None:
        """Where this sweep's per-worker journal shards live."""
        if self.journal is None:
            return None
        return self.journal.path.parent / self.dag.name

    # ------------------------------------------------------------------

    def run(self, *, resume: bool = True) -> SweepResult:
        """Execute the DAG; returns one :class:`JobResult` per job.

        Under an active :class:`~repro.observe.tracing.Tracer` the whole
        run is one root span (``sweep:<name>``); each submit captures
        the ambient trace position and ships it to the worker, so every
        job attempt — pool or remote — parents under this root.
        """
        from repro.observe.tracing import span
        with span(f"sweep:{self.dag.name}", dag=self.dag.dag_id,
                  executor=self.executor.name, **self.extra_tags):
            return self._run(resume=resume)

    def _run(self, *, resume: bool) -> SweepResult:
        self.dag.validate()
        order = self.dag.topo_order()
        dag_id = self.dag.dag_id
        sweep = SweepResult(dag_name=self.dag.name, dag_id=dag_id,
                            executor=self.executor.name,
                            order=[spec.name for spec in self.dag])
        results = sweep.results
        attempts: dict[str, int] = {}
        started: dict[str, float] = {}
        outstanding: dict = {}  # future -> spec
        deadlines: dict = {}    # future -> hard wall-limit deadline
        from repro.observe.metrics import metrics
        from repro.observe.telemetry import current_session
        from repro.observe.tracing import propagation_context
        # Worker processes re-establish the ambient telemetry session.
        session = current_session() if self.executor.remote else None
        session_spec = session.spec() if session is not None else None
        executed_ok = 0
        shard_dir = self._shard_dir()

        if resume and self.journal is not None and shard_dir is not None:
            # A previous (distributed) run may have finished work whose
            # results never crossed the wire: fold the per-worker shards
            # in first so the replay scan below sees them.
            merge_shards(self.journal, shard_dir)

        if resume and self.journal is not None:
            for spec in order:
                if spec.transient:
                    continue
                key = spec.key
                if self.journal.has_value(key):
                    entry = self.journal.get(key)
                    results[spec.name] = JobResult(
                        name=spec.name, status="resumed",
                        value=self.journal.value(key),
                        attempts=entry.get("attempts", 0),
                        executor=self.executor.name,
                        category=spec.category)

        def submit(spec: JobSpec) -> None:
            attempt = attempts.get(spec.name, 0) + 1
            attempts[spec.name] = attempt
            started.setdefault(spec.name, time.monotonic())
            delay = self._backoff_delay(spec, attempt)
            if delay:
                time.sleep(delay)
            tags = {**self.extra_tags,
                    "dag": dag_id, "job": spec.name, "attempt": attempt,
                    "executor": self.executor.name}
            degraded = getattr(self.executor, "degraded_reason", None)
            if degraded:
                tags["degraded"] = degraded
            kwargs = dict(spec.kwargs)
            if spec.pass_deps:
                kwargs["deps"] = [results[dep].value if results[dep].ok
                                  else None for dep in spec.deps]
            wall_limit = (spec.wall_limit if spec.wall_limit is not None
                          else self.wall_limit)
            meta = {"key": spec.key, "name": spec.name,
                    "attempt": attempt, "dag": dag_id,
                    "wall_limit": wall_limit}
            if shard_dir is not None and not spec.transient \
                    and getattr(self.executor, "shards", False):
                meta["shard_dir"] = str(shard_dir)
            future = self.executor.submit(_run_job, spec.fn, spec.args,
                                          kwargs, wall_limit, tags,
                                          session_spec,
                                          propagation_context(), meta=meta)
            # Stamp completion on the future itself: an inline executor
            # finishes the job inside submit(), long before wait()
            # collects it behind its queued siblings.
            future.add_done_callback(_stamp_done)
            if wall_limit is not None \
                    and getattr(self.executor, "reaps_on_timeout", False) \
                    and not getattr(self.executor, "leased", False):
                deadlines[future] = time.monotonic() + wall_limit \
                    + self.hard_grace
            outstanding[future] = spec

        def finalize(spec: JobSpec, result: JobResult) -> None:
            results[spec.name] = result
            registry = metrics()
            if registry is not None:
                registry.counter("repro_sweep_jobs_total",
                                 status=result.status).inc()
                if result.attempts > 1:
                    registry.counter("repro_sweep_retries_total").inc(
                        result.attempts - 1)
                if result.status == "ok":
                    registry.histogram("repro_job_seconds").observe(
                        result.elapsed)
            if self.journal is not None and not spec.transient \
                    and result.status != "resumed":
                self.journal.record(spec.key, name=spec.name,
                                    status=result.status,
                                    value=result.value,
                                    attempts=result.attempts,
                                    elapsed=result.elapsed,
                                    error=result.error,
                                    worker=result.worker,
                                    host=result.host,
                                    lease=result.lease)
            if result.status == "ok":
                nonlocal executed_ok
                executed_ok += 1
                if self._kill_after is not None \
                        and executed_ok >= self._kill_after:
                    import signal
                    os.kill(os.getpid(), signal.SIGKILL)

        while len(results) < len(self.dag.jobs):
            submitted_names = {spec.name for spec in outstanding.values()}
            for spec in order:
                if spec.name in results or spec.name in submitted_names:
                    continue
                dep_results = [results.get(dep) for dep in spec.deps]
                if any(dep is None for dep in dep_results):
                    continue  # a dependency is still pending
                failed = [dep for dep, res in zip(spec.deps, dep_results)
                          if res.degraded]
                if failed and not spec.tolerant:
                    finalize(spec, JobResult(
                        name=spec.name, status="skipped",
                        error="upstream degraded: " + ", ".join(failed),
                        executor=self.executor.name,
                        category=spec.category))
                    continue
                submit(spec)
                submitted_names.add(spec.name)
            if not outstanding:
                continue  # skip-propagation made progress; re-scan
            timeout = None
            pending_deadlines = [deadlines[future] for future in outstanding
                                 if future in deadlines]
            if pending_deadlines:
                timeout = max(0.0, min(pending_deadlines) - time.monotonic())
            done, _ = wait(list(outstanding), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for future in [f for f in outstanding
                           if f not in done
                           and deadlines.get(f, now + 1) <= now]:
                # Hard wall-limit: the job blew through its cooperative
                # budget plus grace — reap whatever process is running
                # it (no orphaned workers) and record the timeout.
                spec = outstanding.pop(future)
                deadlines.pop(future, None)
                self.executor.reap(future)
                finalize(spec, JobResult(
                    name=spec.name, status="timeout",
                    error=f"hard wall-limit: no result "
                          f"{self.hard_grace:.1f}s past the "
                          f"{spec.wall_limit or self.wall_limit}s budget; "
                          f"worker reaped",
                    attempts=attempts[spec.name],
                    elapsed=now - started[spec.name],
                    executor=self.executor.name, category=spec.category))
            for future in done:
                spec = outstanding.pop(future)
                deadlines.pop(future, None)
                self._complete(spec, future, attempts, started,
                               submit, finalize)
        return sweep

    # ------------------------------------------------------------------

    def _complete(self, spec, future, attempts, started,
                  submit, finalize) -> None:
        """Classify one finished future: finalize or retry."""
        attempt = attempts[spec.name]
        elapsed = getattr(future, "_repro_done", time.monotonic()) \
            - started[spec.name]
        provenance = getattr(future, "_repro_provenance", None) or {}
        base = dict(name=spec.name, attempts=attempt, elapsed=elapsed,
                    executor=self.executor.name, category=spec.category,
                    worker=provenance.get("worker"),
                    host=provenance.get("host"),
                    lease=provenance.get("lease"))
        try:
            value = future.result()
        except SimulationTimeout as error:
            # A cooperative timeout will time out again: terminal.
            finalize(spec, JobResult(status="timeout", error=str(error),
                                     exception=error, **base))
        except BrokenProcessPool as error:
            self.executor.reset()
            self._retry_or_fail(spec, error, attempt, submit, finalize, base)
        except ReproError as error:
            # Deterministic failure (compile bug, deadlock, golden
            # mismatch): retrying cannot help.
            finalize(spec, JobResult(
                status="error", error=f"{type(error).__name__}: {error}",
                exception=error, **base))
        except Exception as error:  # noqa: BLE001 — isolation boundary
            self._retry_or_fail(spec, error, attempt, submit, finalize, base)
        else:
            finalize(spec, JobResult(status="ok", value=value, **base))

    def _retry_or_fail(self, spec, error, attempt, submit, finalize,
                       base) -> None:
        budget = spec.retries if spec.retries is not None else self.retries
        if attempt <= budget:
            submit(spec)  # environmental flake: retry within budget
            return
        finalize(spec, JobResult(
            status="error", error=f"{type(error).__name__}: {error}",
            exception=error, **base))


# ----------------------------------------------------------------------
# The in-worker job wrapper. Module-level so it pickles into pool
# workers; everything environment-dependent (wall-limit injection,
# telemetry re-establishment, flake injection) happens here, on the
# process that actually runs the job.


def _run_job(fn, args, kwargs, wall_limit, tags, session_spec,
             trace_ctx=None):
    _maybe_flake(tags)
    if _worker_provenance:
        # Running inside a remote worker: tag the RunRecords with the
        # worker id, host, and lease that produced them.
        tags = {**tags, **_worker_provenance}
    if wall_limit is not None and _accepts_wall_limit(fn) \
            and "wall_limit" not in kwargs:
        kwargs = dict(kwargs, wall_limit=wall_limit)
    from repro.observe.telemetry import adopt_session, telemetry_tags
    from repro.observe.tracing import adopt_context, span
    with adopt_session(session_spec), adopt_context(trace_ctx), \
            telemetry_tags(**tags):
        with span(f"job:{tags['job']}", **tags):
            return fn(*args, **kwargs)


def _stamp_done(future) -> None:
    future._repro_done = time.monotonic()


def _maybe_flake(tags) -> None:
    """CI chaos hook: fail the first attempt of matching jobs."""
    needle = os.environ.get(FLAKE_ENV)
    if needle and needle in tags["job"] and tags["attempt"] == 1:
        raise OSError(f"injected transient flake for {tags['job']}")


def _accepts_wall_limit(fn) -> bool:
    import inspect
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    for parameter in signature.parameters.values():
        if parameter.kind == parameter.VAR_KEYWORD:
            return True
        if parameter.name == "wall_limit":
            return True
    return False
