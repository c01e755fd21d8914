"""Explicit job DAGs for experiment sweeps.

The paper's thesis — computation runs best as explicit dataflow — applies
to our own harness: a figure sweep is a dataflow of *jobs* (compile the
kernel, simulate each cell, aggregate the rows), not an imperative loop.
This module is the static half of that story: :class:`JobSpec` describes
one job (a picklable callable plus arguments, dependencies, and policy
knobs) and :class:`JobDAG` holds the validated graph the
:class:`~repro.orchestrate.scheduler.Scheduler` executes.

Identity is content-addressed twice over:

- ``JobSpec.key`` fingerprints one job — its name, callable, arguments,
  and dependency names — so a journal entry from an earlier run is only
  reused when the job it recorded is byte-for-byte the same work;
- ``JobDAG.dag_id`` fingerprints the whole graph (the sorted job keys),
  so every telemetry record of a sweep names exactly which sweep shape
  produced it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import ReproError

#: Job categories the harnesses use; ``repro sweep`` renders only
#: degraded ``cell`` jobs as DEGRADED rows.
CATEGORIES = ("compile", "cell", "aggregate", "job")


class DagError(ReproError):
    """A malformed DAG: duplicate names, unknown deps, or a cycle."""


@dataclass(frozen=True)
class JobSpec:
    """One schedulable job.

    ``fn`` must be a module-level callable (and ``args``/``kwargs``
    picklable) when the DAG runs on a process-pool executor; the inline
    executor accepts anything callable. ``deps`` name jobs that must
    complete OK first — a degraded dependency skips this job unless
    ``tolerant`` is set, in which case the job runs with ``None`` in
    place of each degraded dependency value.

    ``pass_deps=True`` injects ``deps=[value, ...]`` (dependency values
    in declaration order) as a keyword argument — the aggregation hook.
    ``transient=True`` keeps the job out of the journal: it is re-run on
    every invocation instead of resumed (aggregates are transient so a
    resumed sweep re-aggregates fresh rows). ``retries``/``wall_limit``
    override the scheduler-wide policy for this job when not ``None``.
    """

    name: str
    fn: object
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    deps: tuple = ()
    category: str = "job"
    tolerant: bool = False
    pass_deps: bool = False
    transient: bool = False
    retries: int | None = None
    wall_limit: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "deps", tuple(self.deps))
        if self.category not in CATEGORIES:
            raise DagError(f"job {self.name!r}: unknown category "
                           f"{self.category!r} (one of {CATEGORIES})")

    @property
    def key(self) -> str:
        """Content address of this job's work (cached after first use)."""
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = _content_key(self)
            self.__dict__["_key"] = cached
        return cached


def _callable_identity(fn) -> str:
    """A stable name for ``fn``: module-qualified when possible.

    Lambdas and bound methods get their repr (which may embed an
    address); they cannot cross a process boundary anyway, and callers
    that journal by content are expected to use module-level functions.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if module and qualname and "<lambda>" not in qualname \
            and "<locals>" not in qualname:
        return f"{module}.{qualname}"
    return repr(fn)


def _content_key(spec: JobSpec) -> str:
    payload = "\x1f".join((
        spec.name,
        _callable_identity(spec.fn),
        repr(spec.args),
        repr(sorted(spec.kwargs.items())),
        repr(spec.deps),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


class JobDAG:
    """A validated, insertion-ordered job graph.

    Jobs are added with :meth:`add` (or the :meth:`job` convenience
    builder); :meth:`validate` — called by the scheduler — rejects
    duplicate names, unknown dependencies, and cycles, and fixes the
    topological order used for execution and display.
    """

    def __init__(self, name: str):
        self.name = name
        self.jobs: dict[str, JobSpec] = {}

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs.values())

    def add(self, spec: JobSpec) -> JobSpec:
        if spec.name in self.jobs:
            raise DagError(f"duplicate job {spec.name!r} in DAG {self.name!r}")
        self.jobs[spec.name] = spec
        return spec

    def job(self, name: str, fn, *args, deps=(), **options) -> JobSpec:
        """Build and add one :class:`JobSpec`; keyword ``options`` split
        between spec fields and the job's own keyword arguments."""
        fields = {k: options.pop(k) for k in list(options)
                  if k in JobSpec.__dataclass_fields__
                  and k not in ("name", "fn", "args", "kwargs", "deps")}
        return self.add(JobSpec(name=name, fn=fn, args=args, kwargs=options,
                                deps=tuple(deps), **fields))

    # ------------------------------------------------------------------

    def validate(self) -> None:
        for spec in self.jobs.values():
            for dep in spec.deps:
                if dep not in self.jobs:
                    raise DagError(f"job {spec.name!r} depends on unknown "
                                   f"job {dep!r}")
        self.topo_order()  # raises on cycles

    def topo_order(self) -> list[JobSpec]:
        """Jobs in dependency order (stable w.r.t. insertion order)."""
        indegree = {name: len(spec.deps) for name, spec in self.jobs.items()}
        dependents: dict[str, list[str]] = {name: [] for name in self.jobs}
        for spec in self.jobs.values():
            for dep in spec.deps:
                if dep in dependents:
                    dependents[dep].append(spec.name)
        ready = [name for name in self.jobs if indegree[name] == 0]
        order: list[JobSpec] = []
        while ready:
            name = ready.pop(0)
            order.append(self.jobs[name])
            for dependent in dependents[name]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self.jobs):
            stuck = sorted(name for name, degree in indegree.items()
                           if degree > 0)
            raise DagError(f"cycle in DAG {self.name!r} involving: "
                           + ", ".join(stuck))
        return order

    @property
    def dag_id(self) -> str:
        """Content address of the whole graph (sorted job keys)."""
        digest = hashlib.sha256()
        for key in sorted(spec.key for spec in self.jobs.values()):
            digest.update(key.encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def counts(self) -> dict[str, int]:
        """jobs per category, for describe/status displays."""
        counts: dict[str, int] = {}
        for spec in self.jobs.values():
            counts[spec.category] = counts.get(spec.category, 0) + 1
        return counts
