"""Telemetry sessions: one schema-versioned record per compile or run.

The instrumentation built up so far is one-shot — a
:class:`~repro.pipeline.report.CompilationReport` on the program, a
:class:`~repro.observe.profiler.ProfileReport` on the result — and it
evaporates with the process. A :class:`TelemetrySession` makes it
durable: while a session is active, every ``api.simulate(...)`` and
every :class:`~repro.pipeline.driver.CompilerDriver` compile assembles a
:class:`RunRecord` (source hash, full pipeline config, per-stage and
per-pass compile telemetry, engine choice, cycle and fire counts,
profiler aggregates, critical-path attribution, fault settings, host
metadata) and appends it to a persistent
:class:`~repro.observe.store.TelemetryStore`. Two such records — or two
whole run-sets — diff structurally via :mod:`repro.observe.diff`.

Typical use::

    from repro.observe.telemetry import TelemetrySession, telemetry_tags

    with TelemetrySession(label="fig19") as session:
        with telemetry_tags(kernel="adpcm_e", memsys="realistic-2port"):
            program.simulate(args)           # auto-recorded
    print(session.run_ids)

Sessions nest (the innermost records); recording is inert when no
session is active — the ambient check is one function call per
simulation. Explicit control is also available:
``api.simulate(telemetry=session)`` records into a given session, and
``telemetry=False`` suppresses recording under an active one.
"""

from __future__ import annotations

import contextvars
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.observe.store import TelemetryStore

#: Bump when the RunRecord layout changes incompatibly; the differ
#: refuses to compare records across schema versions.
SCHEMA_VERSION = 1

# Innermost-active-session stack (per process; worker processes of a
# parallel sweep each start with an empty stack).
_ACTIVE: list["TelemetrySession"] = []


def current_session() -> "TelemetrySession | None":
    """The innermost active session, or None (recording inert)."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def telemetry_tags(**tags):
    """Attach tags to every record made inside the block.

    A no-op when no session is active, so harness code can tag
    unconditionally (``figure=..., kernel=..., memsys=...``) and pay
    nothing unless someone is recording.
    """
    session = current_session()
    if session is None:
        yield
        return
    with session.tags(**tags):
        yield


@dataclass
class RunRecord:
    """One durable, schema-versioned observation of a compile or a run.

    ``kind`` is ``"run"`` (a simulation; ``result`` is filled, and
    ``profile``/``critical_path`` when the run was profiled) or
    ``"compile"`` (``compilation`` is filled). ``run_id`` is assigned by
    the store (content address) and is ``None`` until then.
    """

    kind: str = "run"
    schema: int = SCHEMA_VERSION
    run_id: str | None = None
    created_at: float = 0.0
    session: str | None = None
    label: str | None = None
    tags: dict = field(default_factory=dict)
    entry: str = ""
    graph: str | None = None
    source_sha: str | None = None
    config: dict | None = None          # PipelineConfig, as a dict
    engine: str | None = None
    memsys: str | None = None
    args: list = field(default_factory=list)
    faults: str | None = None
    result: dict | None = None          # cycles, fired, loads, stores, ...
    compilation: dict | None = None     # stages, passes, counters, ...
    profile: dict | None = None         # profiler aggregates
    critical_path: dict | None = None   # by-category attribution
    host: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "schema": self.schema,
            "run_id": self.run_id,
            "created_at": self.created_at,
            "session": self.session,
            "label": self.label,
            "tags": dict(self.tags),
            "entry": self.entry,
            "graph": self.graph,
            "source_sha": self.source_sha,
            "config": self.config,
            "engine": self.engine,
            "memsys": self.memsys,
            "args": list(self.args),
            "faults": self.faults,
            "result": self.result,
            "compilation": self.compilation,
            "profile": self.profile,
            "critical_path": self.critical_path,
            "host": dict(self.host),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})

    # ------------------------------------------------------------------
    # Identity and convenience accessors used by the differ and the CLI.

    @property
    def kernel(self) -> str | None:
        """The kernel-registry name when tagged, else the entry symbol."""
        return self.tags.get("kernel") or (self.entry or None)

    @property
    def opt_level(self) -> str | None:
        return (self.config or {}).get("opt_level")

    @property
    def cycles(self) -> int | None:
        return (self.result or {}).get("cycles")

    def comparison_key(self) -> tuple:
        """What makes two records comparable: same work, same nominal
        configuration. The engine is deliberately excluded — both
        executors are bit-identical, so cross-engine deltas are real.
        The ablation harness distinguishes otherwise-identical runs
        with a ``variant`` tag, so that participates too."""
        return (self.kind, self.kernel, self.opt_level, self.memsys,
                self.tags.get("variant"),
                tuple(repr(a) for a in self.args))

    def cache_hit_rate(self) -> float | None:
        """L1+L2 hit fraction of all memory accesses, when measured."""
        stats = ((self.result or {}).get("memory_stats")
                 or (self.profile or {}).get("memory_stats"))
        if not stats or not stats.get("accesses"):
            return None
        hits = stats.get("l1_hits", 0) + stats.get("l2_hits", 0)
        return hits / stats["accesses"]

    def attribution_shares(self) -> dict[str, float]:
        """Critical-path category -> share of all cycles ({} if absent)."""
        critical = self.critical_path or {}
        total = critical.get("cycles") or 0
        if not total:
            return {}
        return {category: attributed / total
                for category, attributed
                in (critical.get("by_category") or {}).items()}

    def describe(self) -> str:
        bits = [self.kind, self.kernel or "?"]
        if self.opt_level:
            bits.append(self.opt_level)
        if self.memsys:
            bits.append(self.memsys)
        if self.cycles is not None:
            bits.append(f"{self.cycles} cycles")
        return "/".join(bits[:4]) + (f" ({bits[4]})" if len(bits) > 4 else "")


class TelemetrySession:
    """Context manager that records every compile and run into a store."""

    def __init__(self, store: TelemetryStore | None = None,
                 label: str | None = None,
                 record_compiles: bool = True):
        self.store = store if store is not None else TelemetryStore()
        self.label = label
        self.record_compiles = record_compiles
        self.session_id = self._new_session_id(label)
        self.run_ids: list[str] = []
        # Tags live in a ContextVar, not a plain attribute: concurrent
        # asyncio tasks (the compile service) and threads entered via
        # ``asyncio.to_thread`` each see their own tag overlay, so two
        # in-flight requests tagging the same session cannot cross-talk.
        # ``to_thread``/task creation copy the caller's context, so tags
        # set in a request handler propagate into its worker thread.
        self._tags_var: contextvars.ContextVar[dict | None] = \
            contextvars.ContextVar(f"repro-tags-{self.session_id}",
                                   default=None)

    @property
    def _tags(self) -> dict:
        """The tag overlay of the *current* task/thread context."""
        return self._tags_var.get() or {}

    @staticmethod
    def _new_session_id(label: str | None) -> str:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        salt = os.urandom(3).hex()
        prefix = f"{label}-" if label else ""
        return f"{prefix}{stamp}-{salt}"

    # ------------------------------------------------------------------

    def __enter__(self) -> "TelemetrySession":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.remove(self)

    @contextmanager
    def tags(self, **tags):
        """Merge ``tags`` into every record made inside the block.

        Context-local: the merge is visible to the current asyncio task
        (and anything it runs via ``asyncio.to_thread``) but not to
        sibling tasks recording into the same session concurrently.
        """
        token = self._tags_var.set({**self._tags, **tags})
        try:
            yield self
        finally:
            self._tags_var.reset(token)

    # ------------------------------------------------------------------

    def record(self, record: RunRecord) -> str:
        """Stamp session identity onto ``record`` and persist it."""
        record.session = self.session_id
        record.label = self.label
        record.tags = {**self._tags, **record.tags}
        run_id = self.store.append(record)
        record.run_id = run_id
        self.run_ids.append(run_id)
        return run_id

    def record_run(self, program, result, *, engine: str | None = None,
                   memsys_name: str | None = None,
                   args: list | None = None, faults=None,
                   tags: dict | None = None) -> str:
        record = build_run_record(program, result, engine=engine,
                                  memsys_name=memsys_name, args=args,
                                  faults=faults, tags=tags)
        return self.record(record)

    def record_compile(self, program, *, tags: dict | None = None) -> str:
        record = build_compile_record(program, tags=tags)
        return self.record(record)

    def records(self) -> list[RunRecord]:
        """This session's records, read back from the store."""
        return self.store.records(session=self.session_id)

    def spec(self) -> dict:
        """This session's identity as a picklable dict, for
        :func:`adopt_session` in a worker process."""
        return {"root": str(self.store.root),
                "session_id": self.session_id,
                "label": self.label,
                "record_compiles": self.record_compiles,
                "pid": os.getpid()}


@contextmanager
def adopt_session(spec: dict | None):
    """Continue the session ``spec`` describes in this process.

    A worker process of a recorded sweep or service rebuilds the
    parent's session identity, so its RunRecords land in the same
    run-set (in the worker's own store shard). A no-op when no session
    was active (``spec=None``) or in the process that made the spec,
    where the session is already in scope. A forked worker inherits the
    parent's session object, so the pid (not :func:`current_session`)
    decides.
    """
    if spec is None or spec["pid"] == os.getpid():
        yield
        return
    session = TelemetrySession(store=TelemetryStore(spec["root"]),
                               label=spec["label"],
                               record_compiles=spec["record_compiles"])
    session.session_id = spec["session_id"]
    with session:
        yield


# ----------------------------------------------------------------------
# Record assembly. Everything here is duck-typed over the existing
# instrumentation objects (CompilationReport, ProfileReport,
# CriticalPathReport) so this module stays import-light and cycle-free.


def host_metadata() -> dict:
    import platform
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "pid": os.getpid(),
    }


def _config_dict(config) -> dict | None:
    if config is None:
        return None
    return {
        "opt_level": config.opt_level,
        "verify": config.verify,
        "unroll_limit": config.unroll_limit,
        "entry_points_to": [[param, list(names)]
                            for param, names in config.entry_points_to],
        "filename": config.filename,
    }


def _compilation_dict(report) -> dict | None:
    """The per-stage / per-pass compile telemetry, condensed."""
    if report is None:
        return None
    final = report.final_snapshot
    return {
        "stages": [{"name": record.name,
                    "wall_time": round(record.wall_time, 6),
                    "nodes": record.after.nodes if record.after else None}
                   for record in report.stages],
        "passes": [{"name": record.name,
                    "group": record.group,
                    "wall_time": round(record.wall_time, 6),
                    "changes": record.changes,
                    "d_nodes": record.nodes_delta,
                    "d_loads": record.loads_delta,
                    "d_stores": record.stores_delta,
                    "d_tokens": record.tokens_delta}
                   for record in report.passes],
        "counters": dict(report.counters),
        "verify_calls": report.verify_calls,
        "verify_time": round(report.verify_time, 6),
        "total_wall_time": round(report.total_wall_time, 6),
        "cache_status": report.cache_status,
        "final_ir": final.to_dict() if final else None,
    }


def _profile_dict(profile, top: int = 10) -> dict | None:
    """Profiler aggregates worth keeping: opcode mix, occupancy of the
    busiest operators, LSQ/port-wait histograms, cache/TLB breakdowns."""
    if profile is None:
        return None
    return {
        "opcode_fires": dict(profile.opcode_fires),
        "top_nodes": [{"label": node.label, "opcode": node.opcode,
                       "fires": node.fires,
                       "busy_cycles": node.busy_cycles,
                       "occupancy": round(node.occupancy, 6),
                       "max_queue_depth": node.max_queue_depth}
                      for node in profile.top_nodes(top)],
        "lsq_depth_hist": {str(k): v
                           for k, v in profile.lsq_depth_hist.items()},
        "port_wait_hist": {str(k): v
                           for k, v in profile.port_wait_hist.items()},
        "mem_levels": dict(profile.mem_levels),
        "mem_reads": profile.mem_reads,
        "mem_writes": profile.mem_writes,
        "mem_tlb_misses": profile.mem_tlb_misses,
        "mem_avg_latency": round(profile.mem_avg_latency, 3),
        "memory_stats": dict(profile.memory_stats),
    }


def _critical_path_dict(critical) -> dict | None:
    if critical is None:
        return None
    return {
        "cycles": critical.cycles,
        "by_category": dict(critical.by_category),
        "chain_length": critical.chain_length,
    }


def build_run_record(program, result, *, engine: str | None = None,
                     memsys_name: str | None = None,
                     args: list | None = None, faults=None,
                     tags: dict | None = None) -> RunRecord:
    """Assemble the full record of one finished simulation."""
    report = getattr(program, "report", None)
    profile = getattr(result, "profile", None)
    stats = result.memory_stats
    return RunRecord(
        kind="run",
        created_at=time.time(),
        tags=dict(tags or {}),
        entry=getattr(program, "entry", ""),
        graph=getattr(program.graph, "name", None),
        source_sha=getattr(report, "source_sha", None),
        config=_config_dict(getattr(report, "config", None)),
        engine=engine,
        memsys=memsys_name,
        args=[_plain(value) for value in (args or [])],
        faults=faults.describe() if faults is not None else None,
        result={
            "return_value": _plain(result.return_value),
            "cycles": result.cycles,
            "fired": result.fired,
            "loads": result.loads,
            "stores": result.stores,
            "skipped_memops": result.skipped_memops,
            "memory_stats": {
                "accesses": stats.accesses,
                "l1_hits": stats.l1_hits,
                "l2_hits": stats.l2_hits,
                "mem_accesses": stats.mem_accesses,
                "tlb_misses": stats.tlb_misses,
                "port_stall_cycles": stats.port_stall_cycles,
            },
        },
        profile=_profile_dict(profile),
        critical_path=_critical_path_dict(
            getattr(profile, "critical_path", None)),
        host=host_metadata(),
    )


def build_compile_record(program, *, tags: dict | None = None) -> RunRecord:
    """Assemble the record of one compilation (driver or cache hit)."""
    report = getattr(program, "report", None)
    return RunRecord(
        kind="compile",
        created_at=time.time(),
        tags=dict(tags or {}),
        entry=getattr(program, "entry", ""),
        graph=getattr(program.graph, "name", None),
        source_sha=getattr(report, "source_sha", None),
        config=_config_dict(getattr(report, "config", None)),
        compilation=_compilation_dict(report),
        host=host_metadata(),
    )


def _plain(value):
    """JSON-safe projection of a simulated value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)
