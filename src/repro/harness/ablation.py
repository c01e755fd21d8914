"""§7.3 ablation — per-optimization contribution and composition.

The paper's findings:

- the programs benefit most from pointer analysis during construction,
  token-edge disambiguation (§4.3), and induction-variable pipelining
  (§6.2) — together, the "Medium" set;
- the read-only split (§6.1) is almost never very profitable;
- loop decoupling (§6.3) applies to few loops;
- optimizations compose: the combined effect exceeds the product of the
  individual effects.

The ablation compiles each kernel under single-optimization pipelines and
under the combined pipeline and reports cycle counts plus applicability
statistics from the pass counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.cache import HARNESS_VERIFY, compiled, select_kernels
from repro.harness.sweep import compile_warm, gather_rows, run_sweep
from repro.observe.telemetry import telemetry_tags
from repro.orchestrate.dag import JobDAG
from repro.opt.context import OptContext
from repro.opt.passes import PassRunner, _fix_static_etas
from repro.pipeline.config import PipelineConfig
from repro.pipeline.driver import CompilerDriver
from repro.opt.cleanup import Cleanup
from repro.opt.constant_fold import ConstantFold
from repro.opt.dead_memops import DeadMemOps
from repro.opt.immutable import ImmutableLoads
from repro.opt.licm import LoopInvariantLoads
from repro.opt.load_forward import LoadAfterStore
from repro.opt.merge_ops import MergeEquivalent
from repro.opt.store_elim import StoreBeforeStore
from repro.opt.token_removal import TokenRemoval
from repro.sim.memsys import MemorySystem, REALISTIC_2PORT
from repro.utils.tables import TextTable


def _variants():
    from repro.looppipe.readonly import ReadOnlySplit
    from repro.looppipe.monotone import MonotonePipelining
    from repro.looppipe.decoupling import LoopDecoupling
    scalar = [ConstantFold(), Cleanup()]
    return {
        "scalar-only": scalar,
        "token-removal": scalar + [TokenRemoval(), DeadMemOps(), Cleanup()],
        "redundancy": scalar + [ImmutableLoads(), LoadAfterStore(),
                                StoreBeforeStore(), DeadMemOps(),
                                MergeEquivalent(), ConstantFold(), Cleanup()],
        "licm": scalar + [TokenRemoval(), LoopInvariantLoads(), Cleanup()],
        "monotone": scalar + [TokenRemoval(), MonotonePipelining(), Cleanup()],
        "readonly": scalar + [TokenRemoval(), ReadOnlySplit(), Cleanup()],
        "decoupling": scalar + [TokenRemoval(), LoopDecoupling(), Cleanup()],
    }


@dataclass
class AblationRow:
    name: str
    baseline_cycles: int
    cycles: dict[str, int] = field(default_factory=dict)
    full_cycles: int = 0
    applicability: dict[str, int] = field(default_factory=dict)

    def speedup(self, variant: str) -> float:
        cycles = self.cycles.get(variant, 0)
        return self.baseline_cycles / cycles if cycles else 0.0

    @property
    def full_speedup(self) -> float:
        return self.baseline_cycles / self.full_cycles if self.full_cycles else 0.0

    @property
    def product_of_parts(self) -> float:
        product = 1.0
        for variant in self.cycles:
            product *= max(1.0, self.speedup(variant))
        return product


def _fresh_unoptimized(kernel):
    """A private ``none``-level compile the variant passes may mutate.

    Cached programs are shared objects, so the in-place pass pipelines
    below must not run over them; verification still happens once at the
    end of each variant (the harness policy).
    """
    config = PipelineConfig.make(opt_level="none", verify=HARNESS_VERIFY)
    return CompilerDriver(config).compile(kernel.source, kernel.entry)


def _ablation_row(kernel, memsys_config=REALISTIC_2PORT) -> AblationRow:
    """One kernel's ablation: baseline, each variant pipeline, full.

    Module-level (and arguments picklable) so :func:`ablate` can fan the
    kernels out over worker processes.
    """
    baseline = compiled(kernel.name, "none").program
    with telemetry_tags(figure="ablation", kernel=kernel.name,
                        memsys=memsys_config.name):
        run = baseline.simulate(list(kernel.args),
                                memsys=MemorySystem(memsys_config))
        kernel.check(run.return_value)
        row = AblationRow(name=kernel.name, baseline_cycles=run.cycles)
        for variant, passes in _variants().items():
            program = _fresh_unoptimized(kernel)
            ctx = OptContext(program.build)
            runner = PassRunner(ctx, verify=HARNESS_VERIFY)
            for pass_ in passes:
                runner.run(pass_)
            _fix_static_etas(ctx)
            runner.finish()
            with telemetry_tags(variant=variant):
                result = program.simulate(list(kernel.args),
                                          memsys=MemorySystem(memsys_config))
            kernel.check(result.return_value)
            row.cycles[variant] = result.cycles
            for stat, count in ctx.stats.items():
                row.applicability[stat] = \
                    row.applicability.get(stat, 0) + count
        full = compiled(kernel.name, "full").program
        result = full.simulate(list(kernel.args),
                               memsys=MemorySystem(memsys_config))
        kernel.check(result.return_value)
        row.full_cycles = result.cycles
    return row


AGGREGATE = "ablation/aggregate"


def build_dag(kernels=None, memsys_config=REALISTIC_2PORT) -> JobDAG:
    """The §7.3 ablation as an explicit compile → cell → aggregate DAG.

    One cell per kernel named ``ablation/<kernel>``; the compile warm-up
    covers the cached ``none``/``full`` endpoints (variant pipelines
    compile privately inside the cell), and a transient aggregate
    collects rows in kernel order.
    """
    dag = JobDAG("ablation")
    cells = []
    for kernel in select_kernels(kernels):
        dag.job(f"ablation/compile/{kernel.name}", compile_warm,
                kernel.name, ("none", "full"), category="compile")
        name = f"ablation/{kernel.name}"
        dag.job(name, _ablation_row, kernel, memsys_config,
                deps=(f"ablation/compile/{kernel.name}",),
                category="cell")
        cells.append(name)
    dag.job(AGGREGATE, gather_rows, deps=tuple(cells),
            category="aggregate", tolerant=True, pass_deps=True,
            transient=True)
    return dag


def ablate(kernels=None, memsys_config=REALISTIC_2PORT,
           parallel=False, max_workers=None) -> list[AblationRow]:
    """Ablation rows, one per kernel.

    Declares the :func:`build_dag` job graph and runs it through the
    sweep scheduler. ``parallel=True`` runs the kernels on the
    process-pool executor (the variant pipelines each mutate a private
    compilation, so kernels are independent and row order is unchanged);
    ``repro sweep run ablation`` journals and degrades per kernel
    instead.
    """
    dag = build_dag(kernels, memsys_config)
    sweep = run_sweep(dag, parallel=parallel, max_workers=max_workers)
    return sweep.value(AGGREGATE) or []


def render_rows(rows) -> str:
    """The ablation table for already-computed ``rows``."""
    variants = list(_variants())
    table = TextTable(
        ["Benchmark"] + [f"x {v}" for v in variants]
        + ["x full", "product of parts"],
        title="Ablation: speedup per optimization alone vs combined "
              "(realistic 2-port memory)",
    )
    for row in rows:
        table.add_row(
            row.name,
            *(f"{row.speedup(v):.2f}" for v in variants),
            f"{row.full_speedup:.2f}",
            f"{row.product_of_parts:.2f}",
        )
    return table.render()


def render(kernels=None, parallel=False) -> str:
    return render_rows(ablate(kernels, parallel=parallel))
