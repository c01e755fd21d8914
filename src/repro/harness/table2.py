"""Table 2 — statistics of the compiled programs.

Per benchmark: number of functions compiled, source lines, dynamic
run-time share covered, and the number of ``#pragma independent``
annotations. The paper compiled selected functions of each benchmark and
reported what fraction of run time they cover; our kernels are compiled
whole, so coverage is 100% by construction and we report the dynamic
instruction count that corresponds to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.cache import compiled, select_kernels
from repro.harness.sweep import compile_warm, gather_rows, run_sweep
from repro.orchestrate.dag import JobDAG
from repro.utils.tables import TextTable


@dataclass
class Table2Row:
    name: str
    family: str
    functions: int
    lines: int
    pragmas: int
    dynamic_instructions: int
    coverage_percent: float


def _kernel_row(kernel) -> Table2Row:
    """One kernel's statistics row (module-level so it pickles into
    pool workers)."""
    compilation = compiled(kernel.name, "none")
    oracle = compilation.program.run_sequential(list(kernel.args))
    kernel.check(oracle.return_value)
    return Table2Row(
        name=kernel.name,
        family=kernel.family,
        functions=len(compilation.program.lowered.functions),
        lines=kernel.source_lines,
        pragmas=kernel.pragma_count,
        dynamic_instructions=oracle.instructions,
        coverage_percent=100.0,
    )


AGGREGATE = "table2/aggregate"


def build_dag(kernels=None) -> JobDAG:
    """Table 2 as an explicit compile → cell → aggregate DAG."""
    dag = JobDAG("table2")
    cells = []
    for kernel in select_kernels(kernels):
        dag.job(f"table2/compile/{kernel.name}", compile_warm,
                kernel.name, ("none",), category="compile")
        name = f"table2/{kernel.name}"
        dag.job(name, _kernel_row, kernel,
                deps=(f"table2/compile/{kernel.name}",), category="cell")
        cells.append(name)
    dag.job(AGGREGATE, gather_rows, deps=tuple(cells),
            category="aggregate", tolerant=True, pass_deps=True,
            transient=True)
    return dag


def table2(kernels=None, parallel=False,
           max_workers=None) -> list[Table2Row]:
    dag = build_dag(kernels)
    sweep = run_sweep(dag, parallel=parallel, max_workers=max_workers)
    return sweep.value(AGGREGATE) or []


def render_rows(rows) -> str:
    """The Table 2 table for already-computed ``rows``."""
    table = TextTable(
        ["Benchmark", "Funcs", "Lines", "Pragmas", "Dyn. instr", "Time %"],
        title="Table 2: program statistics (paper: selected functions of "
              "MediaBench/SPECint95; here: whole from-scratch kernels)",
    )
    for row in rows:
        table.add_row(row.name, row.functions, row.lines, row.pragmas,
                      row.dynamic_instructions, row.coverage_percent)
    table.add_row("Total", sum(r.functions for r in rows),
                  sum(r.lines for r in rows), sum(r.pragmas for r in rows),
                  sum(r.dynamic_instructions for r in rows), "")
    return table.render()


def render(kernels=None) -> str:
    return render_rows(table2(kernels))
