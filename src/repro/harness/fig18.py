"""Figure 18 — memory operations removed by the optimizations.

The paper plots, per benchmark, the percentage of *static* loads and
stores removed (line graphs; up to ~28% of loads and ~8% of stores) and
the reduction of *dynamic* memory references (bars). We regenerate both
series by compiling each kernel unoptimized and fully optimized, counting
load/store nodes statically, and counting executed memory accesses in the
dataflow simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.cache import compiled, select_kernels
from repro.harness.sweep import compile_warm, gather_rows, run_sweep
from repro.observe.telemetry import telemetry_tags
from repro.orchestrate.dag import JobDAG
from repro.utils.tables import TextTable


@dataclass
class Fig18Row:
    name: str
    static_loads_before: int
    static_loads_after: int
    static_stores_before: int
    static_stores_after: int
    dynamic_before: int
    dynamic_after: int
    # Critical-path attribution (category -> cycles) for the none/full
    # runs, filled under attribution=True; sums to the run's cycle count.
    attribution_before: dict[str, int] = field(default_factory=dict)
    attribution_after: dict[str, int] = field(default_factory=dict)

    @property
    def static_loads_removed_pct(self) -> float:
        return _pct(self.static_loads_before, self.static_loads_after)

    @property
    def static_stores_removed_pct(self) -> float:
        return _pct(self.static_stores_before, self.static_stores_after)

    @property
    def dynamic_removed_pct(self) -> float:
        return _pct(self.dynamic_before, self.dynamic_after)


def _pct(before: int, after: int) -> float:
    if before == 0:
        return 0.0
    return 100.0 * (before - after) / before


def _share(categories: dict[str, int]) -> str:
    total = sum(categories.values())
    if total == 0:
        return "-"
    return f"{100.0 * categories.get('memory', 0) / total:.1f}%"


def _kernel_row(kernel, wall_limit: float | None = None,
                attribution: bool = False) -> Fig18Row:
    base = compiled(kernel.name, "none")
    opt = compiled(kernel.name, "full")
    base_counts = base.program.static_counts()
    opt_counts = opt.program.static_counts()
    # Under an active TelemetrySession both runs persist tagged
    # RunRecords, keyed so repro-telemetry can diff sweeps over time.
    with telemetry_tags(figure="fig18", kernel=kernel.name):
        base_run = base.program.simulate(list(kernel.args),
                                         wall_limit=wall_limit,
                                         profile=attribution)
        opt_run = opt.program.simulate(list(kernel.args),
                                       wall_limit=wall_limit,
                                       profile=attribution)
    kernel.check(base_run.return_value)
    kernel.check(opt_run.return_value)
    row = Fig18Row(
        name=kernel.name,
        static_loads_before=base_counts["loads"],
        static_loads_after=opt_counts["loads"],
        static_stores_before=base_counts["stores"],
        static_stores_after=opt_counts["stores"],
        dynamic_before=base_run.memory_operations,
        dynamic_after=opt_run.memory_operations,
    )
    if attribution:
        row.attribution_before = \
            dict(base_run.profile.critical_path.by_category)
        row.attribution_after = \
            dict(opt_run.profile.critical_path.by_category)
    return row


AGGREGATE = "fig18/aggregate"


def build_dag(kernels=None, attribution=False) -> JobDAG:
    """The Figure 18 sweep as an explicit compile → cell → aggregate DAG.

    One cell per kernel, named ``fig18/<kernel>``, depending on a
    per-kernel compile warm-up; a transient aggregate collects rows in
    kernel order.
    """
    dag = JobDAG("fig18")
    selected = select_kernels(kernels)
    cells = []
    for kernel in selected:
        dag.job(f"fig18/compile/{kernel.name}", compile_warm,
                kernel.name, ("none", "full"), category="compile")
        name = f"fig18/{kernel.name}"
        dag.job(name, _kernel_row, kernel,
                deps=(f"fig18/compile/{kernel.name}",),
                category="cell", attribution=attribution)
        cells.append(name)
    dag.job(AGGREGATE, gather_rows, deps=tuple(cells),
            category="aggregate", tolerant=True, pass_deps=True,
            transient=True)
    return dag


def figure18(kernels=None, attribution=False,
             parallel=False, max_workers=None) -> list[Fig18Row]:
    """Rows for Figure 18; one per kernel.

    Declares the :func:`build_dag` job graph and runs it through the
    sweep scheduler; a failed kernel raises. ``repro sweep run fig18``
    runs the same DAG journaled, where a crashed or timed-out kernel
    degrades its row instead. ``attribution=True`` profiles each run
    and fills the per-row critical-path category breakdowns.
    ``parallel=True`` fans the kernels out over the process-pool
    executor; workers share compilations through the on-disk cache, and
    row order is unchanged.
    """
    dag = build_dag(kernels, attribution)
    sweep = run_sweep(dag, parallel=parallel, max_workers=max_workers)
    return sweep.value(AGGREGATE) or []


def render_rows(rows, attribution=False, degraded=()) -> str:
    """The Figure 18 table for already-computed ``rows``.

    ``degraded`` holds the failed cells'
    :class:`~repro.orchestrate.scheduler.JobResult` objects, rendered
    as DEGRADED placeholders.
    """
    columns = ["Benchmark", "st.loads -%", "st.stores -%", "dyn.memops -%",
               "loads", "stores", "dyn before", "dyn after"]
    if attribution:
        columns += ["crit.mem none", "crit.mem full"]
    table = TextTable(
        columns,
        title="Figure 18: static and dynamic memory operations removed "
              "(full vs none)",
    )
    for row in rows:
        cells = [
            row.name,
            f"{row.static_loads_removed_pct:.1f}",
            f"{row.static_stores_removed_pct:.1f}",
            f"{row.dynamic_removed_pct:.1f}",
            f"{row.static_loads_before}->{row.static_loads_after}",
            f"{row.static_stores_before}->{row.static_stores_after}",
            row.dynamic_before,
            row.dynamic_after,
        ]
        if attribution:
            cells += [_share(row.attribution_before),
                      _share(row.attribution_after)]
        table.add_row(*cells)
    degraded = list(degraded)
    for result in degraded:
        table.add_row(result.name.split("/", 1)[-1],
                      *(["DEGRADED"] + ["-"] * (len(columns) - 2)))
    text = table.render()
    if degraded:
        text += "\n" + "\n".join(
            f"degraded {result.name}: {result.describe()}"
            for result in degraded)
    return text


def render(kernels=None, attribution=False, parallel=False) -> str:
    rows = figure18(kernels, attribution=attribution, parallel=parallel)
    return render_rows(rows, attribution=attribution)
