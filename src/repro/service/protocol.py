"""The service wire schema: requests, validation, and content keys.

One request describes one job — ``compile`` (ensure an artifact exists)
or ``simulate`` (compile, then execute spatially). The JSON payload is
validated into an immutable :class:`JobRequest` on the server edge, so
everything past the front door works with typed, checked data.

Identity is content-addressed twice, mirroring the pipeline:

- :meth:`JobRequest.compile_key` is exactly the compilation cache's
  fingerprint (source + output-relevant config), so request dedup and
  artifact reuse are the same equality;
- :meth:`JobRequest.simulate_key` extends it with everything that can
  change a simulation's outcome (args, memory system, engine, event
  limit, wall budget), so identical simulations cost one execution:
  while it runs they coalesce onto it, and afterwards they are answered
  from its stored row.

The wire format is deliberately boring HTTP/1.1: JSON request bodies,
and either a single JSON response or a streamed
``application/x-ndjson`` body — one JSON event object per line
(``accepted`` → ``compile`` → [``result``] → ``done``, or ``error``) —
so results stream back incrementally over a plain socket with no
dependencies on either side.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.errors import ReproError

#: Bump when the request/event schema changes incompatibly.
PROTOCOL_VERSION = 1

#: Streamed event names, in the order a successful job emits them.
EVENT_ACCEPTED = "accepted"
EVENT_COMPILE = "compile"
EVENT_RESULT = "result"
EVENT_DONE = "done"
EVENT_ERROR = "error"

#: Job kinds the server accepts.
KINDS = ("compile", "simulate")

#: Default TCP port of `repro serve`.
DEFAULT_PORT = 8577

#: Largest request body the server will read (a MiniC source plus
#: arguments fits in a fraction of this).
MAX_BODY_BYTES = 4 * 1024 * 1024


class ServiceError(ReproError):
    """A malformed request, an unreachable/overloaded server, or a job
    that failed server-side."""

    def __init__(self, message: str, *, status: int | None = None,
                 retry_after: float | None = None):
        super().__init__(message)
        #: HTTP status when the failure came from a response (429 means
        #: backpressure: retry after ``retry_after`` seconds).
        self.status = status
        self.retry_after = retry_after


@dataclass(frozen=True)
class JobRequest:
    """One validated compile or compile+simulate job."""

    kind: str
    source: str
    entry: str
    opt_level: str = "full"
    verify: str = "final"
    unroll_limit: int = 0
    entry_points_to: tuple[tuple[str, tuple[str, ...]], ...] = ()
    cache_only: bool = False
    # Simulation fields (ignored for kind="compile").
    args: tuple[int, ...] = ()
    memsys: str = "perfect"
    engine: str | None = None
    event_limit: int | None = None
    wall_limit: float | None = None
    # Client-side identity for provenance tagging; free-form.
    client: str | None = None

    # ------------------------------------------------------------------
    # Construction / projection

    @classmethod
    def from_payload(cls, payload: dict, kind: str) -> "JobRequest":
        """Validate a JSON payload into a request; raises ServiceError."""
        from repro.api import SIM_ENGINES
        from repro.pipeline.config import OPT_LEVELS, VERIFY_POLICIES
        from repro.sim.memsys import NAMED_SYSTEMS

        if kind not in KINDS:
            raise ServiceError(f"unknown job kind {kind!r}", status=404)
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object",
                               status=400)

        def bad(message: str) -> ServiceError:
            return ServiceError(f"invalid request: {message}", status=400)

        source = payload.get("source")
        entry = payload.get("entry")
        if not isinstance(source, str) or not source.strip():
            raise bad("'source' must be non-empty MiniC text")
        if not isinstance(entry, str) or not entry.isidentifier():
            raise bad("'entry' must be a function name")
        opt_level = payload.get("opt_level", "full")
        if opt_level not in OPT_LEVELS:
            raise bad(f"'opt_level' must be one of {OPT_LEVELS}")
        verify = payload.get("verify", "final")
        if verify not in VERIFY_POLICIES:
            raise bad(f"'verify' must be one of {VERIFY_POLICIES}")
        unroll_limit = payload.get("unroll_limit", 0)
        if not isinstance(unroll_limit, int) or unroll_limit < 0:
            raise bad("'unroll_limit' must be a non-negative integer")
        points_to = payload.get("entry_points_to") or {}
        if not isinstance(points_to, dict) or not all(
                isinstance(param, str) and isinstance(names, (list, tuple))
                and all(isinstance(name, str) for name in names)
                for param, names in points_to.items()):
            raise bad("'entry_points_to' must map parameter names to "
                      "lists of global names")
        normalized = tuple(sorted(
            (param, tuple(names)) for param, names in points_to.items()))
        args = payload.get("args", [])
        if not isinstance(args, (list, tuple)) or not all(
                isinstance(value, int) and not isinstance(value, bool)
                for value in args):
            raise bad("'args' must be a list of integers")
        memsys = payload.get("memsys", "perfect")
        if memsys not in NAMED_SYSTEMS:
            raise bad(f"'memsys' must be one of {sorted(NAMED_SYSTEMS)}")
        engine = payload.get("engine")
        if engine is not None and engine not in SIM_ENGINES:
            raise bad(f"'engine' must be one of {SIM_ENGINES}")
        event_limit = payload.get("event_limit")
        if event_limit is not None and (not isinstance(event_limit, int)
                                        or event_limit < 0):
            raise bad("'event_limit' must be a non-negative integer")
        wall_limit = payload.get("wall_limit")
        if wall_limit is not None and (not isinstance(wall_limit, (int, float))
                                       or wall_limit <= 0):
            raise bad("'wall_limit' must be a positive number of seconds")
        client = payload.get("client")
        if client is not None and not isinstance(client, str):
            raise bad("'client' must be a string")
        return cls(kind=kind, source=source, entry=entry,
                   opt_level=opt_level, verify=verify,
                   unroll_limit=unroll_limit, entry_points_to=normalized,
                   cache_only=bool(payload.get("cache_only", False)),
                   args=tuple(args), memsys=memsys, engine=engine,
                   event_limit=event_limit,
                   wall_limit=float(wall_limit) if wall_limit else None,
                   client=client)

    def to_payload(self) -> dict:
        """The JSON form of this request (picklable, wire-identical)."""
        return {
            "source": self.source,
            "entry": self.entry,
            "opt_level": self.opt_level,
            "verify": self.verify,
            "unroll_limit": self.unroll_limit,
            "entry_points_to": {param: list(names)
                                for param, names in self.entry_points_to},
            "cache_only": self.cache_only,
            "args": list(self.args),
            "memsys": self.memsys,
            "engine": self.engine,
            "event_limit": self.event_limit,
            "wall_limit": self.wall_limit,
            "client": self.client,
        }

    def pipeline_config(self):
        from repro.pipeline.config import PipelineConfig
        return PipelineConfig.make(
            opt_level=self.opt_level, verify=self.verify,
            unroll_limit=self.unroll_limit,
            entry_points_to={param: list(names)
                             for param, names in self.entry_points_to}
            or None)

    # ------------------------------------------------------------------
    # Content keys

    def compile_key(self, cache) -> str:
        """The compilation-cache fingerprint of this request's artifact."""
        return cache.key(self.source, self.entry, self.pipeline_config())

    def simulate_key(self, compile_key: str) -> str:
        """Content address of the full simulation (artifact + run knobs).

        Two requests with the same simulate key would produce identical
        rows, so the server executes the first and answers the rest from
        its row. The wall budget participates: a request with a larger
        budget must not be handed another request's timeout.
        """
        payload = json.dumps({
            "artifact": compile_key,
            "args": list(self.args),
            "memsys": self.memsys,
            "engine": self.engine,
            "event_limit": self.event_limit,
            "wall_limit": self.wall_limit,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class ServiceStats:
    """The server's own operational counters (the ``/v1/health`` body)."""

    received: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0            # 429 backpressure responses
    cache_warm: int = 0          # answered from the on-disk cache
    compile_deduped: int = 0     # coalesced onto an in-flight compile
    compiles_executed: int = 0   # actual compile executions
    compile_batches: int = 0
    largest_batch: int = 0
    sims_executed: int = 0
    sim_deduped: int = 0         # coalesced onto an in-flight simulation
    sim_reused: int = 0          # answered from a stored row
    sim_retries: int = 0

    def to_dict(self) -> dict:
        return {
            "received": self.received,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "cache_warm": self.cache_warm,
            "compile_deduped": self.compile_deduped,
            "compiles_executed": self.compiles_executed,
            "compile_batches": self.compile_batches,
            "largest_batch": self.largest_batch,
            "sims_executed": self.sims_executed,
            "sim_deduped": self.sim_deduped,
            "sim_reused": self.sim_reused,
            "sim_retries": self.sim_retries,
        }
