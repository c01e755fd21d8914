"""Shared sweep plumbing for the figure harnesses.

Every harness in this package declares its work as a
:class:`~repro.orchestrate.dag.JobDAG` — per-kernel ``compile`` jobs
warm the on-disk cache, ``cell`` jobs measure, and one ``aggregate``
collects the rows in declaration order. :func:`run_sweep` is the single
execution entry point: it picks the executor (inline by default, the
process pool under ``parallel=True``) and re-raises the first job
failure unless asked for the degraded sweep instead. Journaled,
retried and distributed runs go through ``repro sweep``, which drives
the :class:`~repro.orchestrate.scheduler.Scheduler` directly.
"""

from __future__ import annotations

from repro.orchestrate.dag import JobDAG
from repro.orchestrate.executors import make_executor
from repro.orchestrate.scheduler import Scheduler, SweepResult


def compile_warm(kernel_name: str, levels) -> None:
    """Compile job: ensure ``kernel_name``'s artifacts exist at ``levels``.

    Cells call :func:`~repro.harness.cache.compiled` themselves; this job
    only front-loads the compilations so parallel cells start from a warm
    on-disk cache instead of each compiling the same kernel.
    """
    from repro.harness.cache import compiled
    for level in levels:
        compiled(kernel_name, level)


def gather_rows(*, deps) -> list:
    """Aggregate job: dependency values in declaration order, sans holes.

    Runs ``tolerant`` + ``pass_deps`` + ``transient``: degraded cells
    appear as ``None`` and are dropped, so a partially-degraded sweep
    still aggregates — the scheduler reports the holes.
    """
    return [row for row in deps if row is not None]


def gather_row_lists(*, deps) -> list:
    """Aggregate for batched cells: each dependency yields a row *list*
    (one batched job covers several sweep cells); flattened in
    declaration order, degraded jobs dropped."""
    rows = []
    for chunk in deps:
        if chunk is not None:
            rows.extend(chunk)
    return rows


def run_sweep(dag: JobDAG, *, parallel: bool = False,
              max_workers: int | None = None,
              strict: bool = True) -> SweepResult:
    """Execute one harness DAG.

    ``parallel=True`` selects the process-pool executor (``max_workers``
    caps it); otherwise jobs run inline. ``strict=True`` re-raises the
    first failed job's exception once the sweep has drained, so every
    other job still ran; ``strict=False`` returns the degraded sweep for
    the caller to report.
    """
    kind = "process" if parallel else "inline"
    with make_executor(kind, max_workers=max_workers) as executor:
        sweep = Scheduler(dag, executor=executor).run()
    if strict:
        for name in sweep.order:
            result = sweep.results[name]
            if result.exception is not None:
                raise result.exception
    return sweep
