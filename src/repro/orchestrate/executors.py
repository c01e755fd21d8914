"""Pluggable executor backends for the sweep scheduler.

An executor turns ``submit(fn, *args, **kwargs)`` into a
:class:`concurrent.futures.Future`; the scheduler is written against
exactly that surface, so backends are interchangeable:

- :class:`InlineExecutor` runs the job in the calling process before
  ``submit`` returns (a pre-completed future) — zero isolation, zero
  overhead, lambdas welcome;
- :class:`PoolExecutor` fans out over a ``ProcessPoolExecutor``, heals
  itself after a killed worker (the pool is torn down and rebuilt on the
  next submit), and degrades to inline execution in sandboxes without
  process primitives or after repeated pool deaths.

The multi-host backend the interface was sized for lives in
:mod:`repro.orchestrate.remote`: :class:`RemoteExecutor` ships pickled
payloads to a socket worker pool with lease-based recovery, and
``make_executor("remote")`` resolves to it.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor

#: Pool rebuilds tolerated before PoolExecutor degrades to inline.
MAX_POOL_DEATHS = 3


def _exit_with_creator(creator_pid: int) -> None:
    """Pool-worker initializer: exit once the pool's creator is gone.

    A creator killed by SIGKILL never shuts its pool down. Its idle
    workers would block on the call queue forever while holding the
    forkserver's and the resource tracker's pipes, so none of the three
    would ever see EOF. A daemon thread polls the creator once a second
    and ends the worker when it no longer exists.
    """
    def watch() -> None:
        while True:
            time.sleep(1.0)
            try:
                os.kill(creator_pid, 0)
            except (ProcessLookupError, PermissionError):
                # PermissionError: the pid now names another user's
                # process, so the creator is gone as well.
                os._exit(1)

    threading.Thread(target=watch, name="repro-pool-watch",
                     daemon=True).start()


class Executor:
    """Backend interface: ``submit`` returns a standard ``Future``."""

    #: Telemetry/report label; mutable so a degraded backend can say so.
    name = "abstract"
    #: True when jobs run in another process: payloads must pickle and
    #: ambient telemetry sessions must be re-established worker-side.
    remote = False
    #: True when the backend revokes leases itself (heartbeats, wall
    #: deadlines); the scheduler then skips its own hard-timeout reaping.
    leased = False
    #: True when workers journal completions to per-worker shard files
    #: the scheduler should merge on resume.
    shards = False
    #: True when the scheduler should enforce a hard wall-limit deadline
    #: by calling :meth:`reap` on overdue futures.
    reaps_on_timeout = False
    #: Why the backend fell back to inline execution (None = it didn't);
    #: propagated into telemetry tags as ``degraded``.
    degraded_reason: str | None = None

    def submit(self, fn, *args, meta=None, **kwargs) -> Future:
        """Run ``fn(*args, **kwargs)`` somewhere; ``meta`` carries
        scheduler-side job identity (content key, attempt, shard dir)
        for backends that journal or lease — others ignore it."""
        raise NotImplementedError

    def reset(self) -> None:
        """Called after a backend-infrastructure failure (dead worker)."""

    def reap(self, future: Future | None = None) -> None:
        """Kill whatever is (or may be) executing ``future`` — called by
        the scheduler when a job blows through its hard wall-limit, so a
        wedged worker process cannot outlive its job."""

    def shutdown(self) -> None:
        pass

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class InlineExecutor(Executor):
    """Run each job synchronously in the calling process."""

    name = "inline"
    remote = False

    def submit(self, fn, *args, meta=None, **kwargs) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            result = fn(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 — delivered via result()
            future.set_exception(error)
        else:
            future.set_result(result)
        return future


class PoolExecutor(Executor):
    """Process-pool backend with self-healing and inline degradation."""

    remote = True
    reaps_on_timeout = True

    def __init__(self, max_workers: int | None = None, mp_context=None):
        self.max_workers = max_workers or os.cpu_count() or 1
        self.name = f"process-pool[{self.max_workers}]"
        self.degraded_reason: str | None = None
        #: Optional multiprocessing context. Long-running hosts with
        #: open sockets (the compile service) pass a forkserver context
        #: so workers never inherit client connection fds — a forked
        #: worker holding a duplicate fd keeps the peer's EOF from ever
        #: arriving after the server closes its copy.
        self.mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._inline: InlineExecutor | None = None
        self._deaths = 0

    def submit(self, fn, *args, meta=None, **kwargs) -> Future:
        pool = self._ensure_pool()
        if pool is None:
            return self._fallback().submit(fn, *args, **kwargs)
        try:
            future = pool.submit(fn, *args, **kwargs)
        except (RuntimeError, OSError):
            # Pool died between our health check and the submit.
            self.reset()
            return self._fallback().submit(fn, *args, **kwargs)
        future._repro_remote = True
        return future

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._inline is not None:
            return None
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=self.mp_context,
                    initializer=_exit_with_creator,
                    initargs=(os.getpid(),))
            except (OSError, PermissionError, NotImplementedError,
                    ValueError):
                # No process primitives (restricted sandbox).
                self._degrade("no process primitives")
                return None
        return self._pool

    def reset(self) -> None:
        """Tear down a broken pool; the next submit rebuilds or degrades.

        The workers are SIGKILLed explicitly: ``shutdown(wait=False)``
        on a pool with a *wedged* child would leave that child running
        as an orphan until interpreter exit — a timed-out job must not
        outlive its sweep.
        """
        self._deaths += 1
        pool, self._pool = self._pool, None
        if pool is not None:
            self._kill_workers(pool)
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # noqa: BLE001 — already broken
                pass
        if self._deaths >= MAX_POOL_DEATHS:
            self._degrade(f"{self._deaths} pool deaths")

    def reap(self, future: Future | None = None) -> None:
        """Hard wall-limit enforcement: kill the pool's worker processes
        (one of them is running the overdue job) and rebuild. In-flight
        siblings fail with ``BrokenProcessPool`` and are retried as
        transient by the scheduler."""
        self.reset()

    @staticmethod
    def _kill_workers(pool: ProcessPoolExecutor) -> None:
        for pid in list(getattr(pool, "_processes", None) or {}):
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass

    def _degrade(self, reason: str) -> None:
        if self._inline is None:
            self._inline = InlineExecutor()
            self.degraded_reason = reason
            self.name = f"{self.name}->inline ({reason})"

    def _fallback(self) -> InlineExecutor:
        self._degrade("fallback")
        return self._inline

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(kind: str | Executor | None, *,
                  max_workers: int | None = None,
                  listen: str | tuple[str, int] | None = None) -> Executor:
    """Resolve an executor spec: an instance, ``"inline"``,
    ``"process"``/``"process-pool"``, or ``"remote"`` (``None`` means
    inline). ``listen`` (``"host:port"`` or a tuple) makes the remote
    coordinator accept workers from other hosts."""
    if isinstance(kind, Executor):
        return kind
    if kind in (None, "inline"):
        return InlineExecutor()
    if kind in ("process", "process-pool", "pool"):
        return PoolExecutor(max_workers=max_workers)
    if kind in ("remote", "remote-pool", "socket"):
        from repro.orchestrate.remote import RemoteExecutor
        if isinstance(listen, str):
            host, _, port = listen.rpartition(":")
            listen = (host or "0.0.0.0", int(port))
        workers = max_workers if max_workers is not None else 2
        return RemoteExecutor(workers=workers, listen=listen)
    raise ValueError(f"unknown executor {kind!r} "
                     "(expected 'inline', 'process', or 'remote')")
