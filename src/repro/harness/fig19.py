"""Figure 19 — performance under optimization sets and memory systems.

The paper reports per-benchmark speedup for the "Medium" optimization set
(pointer analysis + token removal + induction-variable pipelining) and the
full set, across memory systems from perfect to a realistic two-level
hierarchy with 1/2/4 LSQ ports. Speedups are relative to the unoptimized
spatial implementation, which executes memory operations in the original
serialized token order.

The paper's headline shapes this regenerates:

- the Medium set captures most of the benefit (pipelining dominates pure
  redundancy removal);
- performance improves with memory ports, but even small bandwidth is
  used effectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.cache import compiled, select_kernels
from repro.harness.sweep import compile_warm, gather_rows, run_sweep
from repro.observe.telemetry import telemetry_tags
from repro.orchestrate.dag import JobDAG
from repro.sim.memsys import (
    MemoryConfig,
    MemorySystem,
    PERFECT_MEMORY,
    REALISTIC_1PORT,
    REALISTIC_2PORT,
    REALISTIC_4PORT,
)
from repro.utils.tables import TextTable

MEMORY_SYSTEMS: tuple[MemoryConfig, ...] = (
    PERFECT_MEMORY, REALISTIC_1PORT, REALISTIC_2PORT, REALISTIC_4PORT,
)
LEVELS = ("medium", "full")


@dataclass
class Fig19Row:
    name: str
    memsys: str
    baseline_cycles: int
    cycles: dict[str, int] = field(default_factory=dict)
    # Per-level critical-path attribution (category -> cycles), filled
    # when the driver runs with attribution=True. The per-category sum
    # equals the level's cycle count (see repro.observe.critpath).
    attribution: dict[str, dict[str, int]] = field(default_factory=dict)

    def speedup(self, level: str) -> float:
        if self.cycles.get(level, 0) == 0:
            return 0.0
        return self.baseline_cycles / self.cycles[level]

    def category_share(self, level: str, category: str) -> float:
        categories = self.attribution.get(level)
        if not categories or self.cycles.get(level, 0) == 0:
            return 0.0
        return categories.get(category, 0) / self.cycles[level]


def _cell_row(kernel, config: MemoryConfig, levels,
              wall_limit: float | None = None,
              attribution: bool = False) -> Fig19Row:
    # Under an active TelemetrySession every simulate below persists a
    # tagged RunRecord, so a whole figure sweep becomes one queryable,
    # diffable run-set (repro-telemetry compare <old> <new>).
    with telemetry_tags(figure="fig19", kernel=kernel.name,
                        memsys=config.name):
        base = compiled(kernel.name, "none")
        baseline = base.program.simulate(list(kernel.args),
                                         memsys=MemorySystem(config),
                                         wall_limit=wall_limit)
        kernel.check(baseline.return_value)
        row = Fig19Row(name=kernel.name, memsys=config.name,
                       baseline_cycles=baseline.cycles)
        for level in levels:
            opt = compiled(kernel.name, level)
            run = opt.program.simulate(list(kernel.args),
                                       memsys=MemorySystem(config),
                                       wall_limit=wall_limit,
                                       profile=attribution)
            kernel.check(run.return_value)
            row.cycles[level] = run.cycles
            if attribution and run.profile is not None:
                row.attribution[level] = \
                    dict(run.profile.critical_path.by_category)
    return row


AGGREGATE = "fig19/aggregate"


def build_dag(kernels=None, memory_systems=MEMORY_SYSTEMS, levels=LEVELS,
              attribution=False) -> JobDAG:
    """The Figure 19 sweep as an explicit compile → cell → aggregate DAG.

    Cells are named ``fig19/<kernel>/<memsys>``; each depends on its
    kernel's ``fig19/compile/<kernel>`` warm-up job, and the transient
    aggregate collects rows in (kernel × memsys) order.
    """
    dag = JobDAG("fig19")
    selected = select_kernels(kernels)
    for kernel in selected:
        dag.job(f"fig19/compile/{kernel.name}", compile_warm,
                kernel.name, ("none", *levels), category="compile")
    cells = []
    for kernel in selected:
        for config in memory_systems:
            name = f"fig19/{kernel.name}/{config.name}"
            dag.job(name, _cell_row, kernel, config, levels,
                    deps=(f"fig19/compile/{kernel.name}",),
                    category="cell", attribution=attribution)
            cells.append(name)
    dag.job(AGGREGATE, gather_rows, deps=tuple(cells),
            category="aggregate", tolerant=True, pass_deps=True,
            transient=True)
    return dag


def figure19(kernels=None, memory_systems=MEMORY_SYSTEMS,
             levels=LEVELS, attribution=False,
             parallel=False, max_workers=None) -> list[Fig19Row]:
    """Rows for Figure 19; one per (kernel, memory system).

    Declares the :func:`build_dag` job graph and runs it through the
    sweep scheduler; a failed cell raises. ``repro sweep run fig19``
    runs the same DAG journaled: a wedged cell degrades that row only,
    and a resumed run replays finished cells from the journal.
    ``attribution=True`` profiles each optimized run and fills
    ``row.attribution[level]`` with the critical-path category split.
    ``parallel=True`` fans the cells out over the process-pool executor;
    workers share compilations through the on-disk cache, and row order
    is unchanged.
    """
    dag = build_dag(kernels, memory_systems, levels, attribution)
    sweep = run_sweep(dag, parallel=parallel, max_workers=max_workers)
    return sweep.value(AGGREGATE) or []


def render_rows(rows, attribution=False, degraded=()) -> str:
    """The Figure 19 table for already-computed ``rows``.

    ``degraded`` holds the failed cells'
    :class:`~repro.orchestrate.scheduler.JobResult` objects, rendered
    as DEGRADED placeholders.
    """
    columns = (["Benchmark", "memory", "cycles none"]
               + [f"speedup {level}" for level in LEVELS])
    if attribution:
        columns += ["crit mem%", "crit compute%", "crit token%"]
    table = TextTable(
        columns,
        title="Figure 19: speedup over unoptimized spatial execution",
    )
    last = LEVELS[-1]
    for row in rows:
        cells = [row.name, row.memsys, row.baseline_cycles,
                 *(f"{row.speedup(level):.2f}" for level in LEVELS)]
        if attribution:
            cells += [f"{100.0 * row.category_share(last, cat):.1f}"
                      for cat in ("memory", "compute", "token")]
        table.add_row(*cells)
    degraded = list(degraded)
    for result in degraded:
        parts = result.name.split("/")
        table.add_row(parts[1] if len(parts) > 1 else result.name,
                      parts[2] if len(parts) > 2 else "-",
                      "DEGRADED", *("-" for _ in columns[3:]))
    text = table.render()
    if degraded:
        text += "\n" + "\n".join(
            f"degraded {result.name}: {result.describe()}"
            for result in degraded)
    return text


def render(kernels=None, memory_systems=MEMORY_SYSTEMS,
           attribution=False, parallel=False) -> str:
    rows = figure19(kernels, memory_systems, attribution=attribution,
                    parallel=parallel)
    return render_rows(rows, attribution=attribution)
