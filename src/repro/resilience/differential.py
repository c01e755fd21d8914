"""Differential checking across perturbed schedules.

Executable form of the paper's timing-robustness claim: token-serialized
memory SSA preserves program semantics under *any* timing of the spatial
fabric (§4, §7). Each kernel runs once on the sequential oracle, once on
the unperturbed dataflow simulator, and then under N seeded
:class:`~repro.resilience.faults.FaultPlan` schedules; the checker
asserts:

- **vs the oracle**: return value and final memory image are identical
  for every schedule (semantics are timing-independent);
- **vs the unperturbed dataflow run**: dynamic load/store/skipped counts
  are identical for every schedule (timing never changes *which* memory
  operations execute, only when).

Load/store counts are deliberately *not* compared against the oracle:
optimized graphs legitimately execute fewer memory operations (that is
the point of the paper), and predicated-off operations are counted as
``skipped_memops`` on the dataflow side only. Those two documented deltas
aside, a mismatch in any field is a soundness bug, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.resilience.faults import FaultPlan, default_plans


@dataclass
class ScheduleOutcome:
    """One dataflow run (unperturbed or under a fault plan) and its diffs."""

    plan: FaultPlan | None          # None = the unperturbed reference run
    return_value: object = None
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    skipped_memops: int = 0
    mismatches: list[str] = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.error is None

    @property
    def seed(self) -> int | None:
        return self.plan.seed if self.plan is not None else None


@dataclass
class DifferentialResult:
    """All schedules of one (program, args) pair vs the oracle."""

    entry: str
    level: str
    oracle_return: object = None
    oracle_loads: int = 0
    oracle_stores: int = 0
    schedules: list[ScheduleOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.schedules)

    @property
    def mismatches(self) -> list[str]:
        found = []
        for outcome in self.schedules:
            tag = ("unperturbed" if outcome.plan is None
                   else f"seed {outcome.seed}")
            for mismatch in outcome.mismatches:
                found.append(f"[{tag}] {mismatch}")
            if outcome.error is not None:
                found.append(f"[{tag}] {outcome.error}")
        return found

    def summary(self) -> str:
        status = "OK" if self.ok else "MISMATCH"
        cycles = sorted({outcome.cycles for outcome in self.schedules})
        spread = (f"cycles {cycles[0]}" if len(cycles) == 1
                  else f"cycles {cycles[0]}..{cycles[-1]}")
        line = (f"{self.entry}/{self.level}: {status} over "
                f"{len(self.schedules)} schedules ({spread}, "
                f"return {self.oracle_return!r})")
        if not self.ok:
            line += "\n  " + "\n  ".join(self.mismatches)
        return line


def differential_check(program, args=None, plans=None, *, seeds: int = 3,
                       level: str | None = None,
                       memsys=None, event_limit: int | None = None,
                       wall_limit: float | None = None,
                       engine: str | None = None) -> DifferentialResult:
    """Run ``program`` under perturbed schedules and diff against the oracle.

    ``plans`` overrides the default seeded shake-everything plans;
    ``memsys`` is an optional :class:`~repro.sim.memsys.MemoryConfig`
    applied to every dataflow run (each schedule builds its own memory
    system from it, so cache contents never leak between schedules);
    ``engine`` selects the dataflow executor for every schedule (see
    ``CompiledProgram.simulate``, whose default engine applies when
    ``None``). A schedule that raises is recorded as that schedule's
    error, and the remaining schedules still run.
    """
    args = list(args or [])
    if plans is None:
        plans = default_plans(seeds)
    result = DifferentialResult(
        entry=program.entry,
        level=level if level is not None else program.opt_level,
    )
    oracle = program.run_sequential(list(args))
    result.oracle_return = oracle.return_value
    result.oracle_loads = oracle.loads
    result.oracle_stores = oracle.stores
    oracle_memory = oracle.memory.snapshot()

    reference: ScheduleOutcome | None = None
    for plan in [None, *plans]:
        outcome = ScheduleOutcome(plan=plan)
        try:
            run = program.simulate(list(args), memsys=memsys, engine=engine,
                                   event_limit=event_limit,
                                   wall_limit=wall_limit, faults=plan)
        except Exception as error:  # noqa: BLE001 — kept per schedule
            outcome.error = f"{type(error).__name__}: {error}"
            result.schedules.append(outcome)
            continue
        outcome.return_value = run.return_value
        outcome.cycles = run.cycles
        outcome.loads = run.loads
        outcome.stores = run.stores
        outcome.skipped_memops = run.skipped_memops
        if run.return_value != oracle.return_value:
            outcome.mismatches.append(
                f"return value {run.return_value!r} != oracle "
                f"{oracle.return_value!r}")
        if run.memory.snapshot() != oracle_memory:
            outcome.mismatches.append("final memory image != oracle")
        if reference is None:
            reference = outcome
        else:
            for field_name in ("loads", "stores", "skipped_memops"):
                got = getattr(outcome, field_name)
                want = getattr(reference, field_name)
                if got != want:
                    outcome.mismatches.append(
                        f"{field_name} {got} != unperturbed {want} "
                        "(schedule changed which memops execute)")
        result.schedules.append(outcome)
    return result


def check_kernel(name: str, levels=("none", "full"), plans=None, *,
                 seeds: int = 3, memsys=None,
                 wall_limit: float | None = None) -> list[DifferentialResult]:
    """Differential-check one benchmark kernel at each opt level.

    Uses the harness compilation cache, so repeated checks (tests, the CI
    smoke job, the CLI) share compilations.
    """
    from repro.harness.cache import compiled

    results = []
    for level in levels:
        compilation = compiled(name, level)
        result = differential_check(
            compilation.program, list(compilation.kernel.args),
            plans, seeds=seeds, level=level, memsys=memsys,
            wall_limit=wall_limit)
        results.append(result)
    return results


def check_matrix(names, levels=("none", "full"), *, seeds: int = 3,
                 memsys=None) -> list[DifferentialResult]:
    """The full differential matrix: kernels × levels × seeds."""
    results = []
    for name in names:
        results.extend(check_kernel(name, levels, seeds=seeds, memsys=memsys))
    return results
