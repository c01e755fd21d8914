"""Differential checking over perturbed schedules.

``TestKernelMatrix`` is the PR's acceptance property: five benchmark
kernels, both an unoptimized and a fully optimized graph, each executed
under three seeded shake-everything schedules (plus the unperturbed one)
— every schedule must agree with the sequential oracle on return value
and final memory image, and with the unperturbed run on which memory
operations executed.
"""

import pytest

from repro import compile_minic
from repro.api import SIM_ENGINES
from repro.resilience.differential import (
    check_kernel,
    check_matrix,
    differential_check,
)
from repro.resilience.faults import REORDER_ONLY, FaultPlan, default_plans
from repro.sim.memsys import REALISTIC_2PORT

# The five cheapest kernels by simulation cost: the matrix stays a
# seconds-scale test while still covering five distinct benchmarks.
MATRIX_KERNELS = ("mpeg2_d", "ijpeg", "mesa", "li", "vortex")

TINY_SOURCE = """
int acc[16];
int f(int n) {
    int i; int s = 0;
    for (i = 0; i < n; i++) acc[i & 15] += i;
    for (i = 0; i < n; i++) s += acc[i & 15];
    return s;
}
"""


class TestKernelMatrix:
    @pytest.mark.parametrize("name", MATRIX_KERNELS)
    def test_kernel_is_timing_robust(self, name):
        for result in check_kernel(name, levels=("none", "full"), seeds=3):
            assert result.ok, result.summary()
            assert len(result.schedules) == 4  # unperturbed + 3 seeds

    def test_check_matrix_flattens_kernels_and_levels(self):
        results = check_matrix(["mpeg2_d"], levels=("none",), seeds=2)
        assert len(results) == 1
        assert results[0].level == "none"
        assert results[0].ok


class TestDifferentialCheck:
    def test_schedules_genuinely_diverge_in_time(self):
        program = compile_minic(TINY_SOURCE, "f", opt_level="full")
        result = differential_check(program, [12], seeds=3,
                                    memsys=REALISTIC_2PORT)
        assert result.ok, result.summary()
        cycles = {outcome.cycles for outcome in result.schedules}
        assert len(cycles) > 1, "fault plans must actually perturb timing"

    def test_reorder_only_plans(self):
        program = compile_minic(TINY_SOURCE, "f", opt_level="medium")
        plans = [REORDER_ONLY.with_seed(seed) for seed in range(3)]
        result = differential_check(program, [9], plans=plans)
        assert result.ok, result.summary()

    def test_oracle_fields_are_recorded(self):
        program = compile_minic(TINY_SOURCE, "f", opt_level="none")
        oracle = program.run_sequential([6])
        result = differential_check(program, [6], seeds=1)
        assert result.oracle_return == oracle.return_value
        assert result.oracle_loads == oracle.loads
        assert result.oracle_stores == oracle.stores

    def test_schedule_errors_are_recorded_not_raised(self):
        program = compile_minic(TINY_SOURCE, "f", opt_level="none")
        result = differential_check(program, [8], seeds=1, event_limit=20)
        assert not result.ok
        assert any("EventLimitError" in mismatch
                   for mismatch in result.mismatches)
        assert "MISMATCH" in result.summary()

    def test_inert_plan_matches_reference_exactly(self):
        program = compile_minic(TINY_SOURCE, "f", opt_level="full")
        result = differential_check(program, [10], plans=[FaultPlan()])
        assert result.ok
        reference, inert = result.schedules
        assert inert.cycles == reference.cycles
        assert inert.loads == reference.loads

    @pytest.mark.parametrize("engine", SIM_ENGINES)
    def test_named_engine_runs_every_schedule(self, engine):
        program = compile_minic(TINY_SOURCE, "f", opt_level="full")
        plans = default_plans(2)
        result = differential_check(program, [10], plans=plans,
                                    engine=engine)
        assert result.ok, result.summary()
        for plan, outcome in zip([None, *plans], result.schedules):
            run = program.simulate([10], faults=plan, engine=engine)
            assert (outcome.cycles, outcome.return_value) \
                == (run.cycles, run.return_value)

    def test_summary_reports_spread_and_status(self):
        program = compile_minic(TINY_SOURCE, "f", opt_level="full")
        result = differential_check(program, [10], seeds=2)
        text = result.summary()
        assert text.startswith("f/full: OK over 3 schedules")
        assert "cycles" in text


class TestApiEntryPoint:
    def test_check_timing_robustness_on_compiled_program(self):
        program = compile_minic(TINY_SOURCE, "f", opt_level="full")
        result = program.check_timing_robustness([7], seeds=2)
        assert result.ok, result.summary()
        assert result.entry == "f"

    def test_default_plan_count_matches_seeds(self):
        program = compile_minic(TINY_SOURCE, "f", opt_level="basic")
        result = program.check_timing_robustness([5], seeds=4)
        assert len(result.schedules) == 5

    def test_explicit_plans_override_seeds(self):
        program = compile_minic(TINY_SOURCE, "f", opt_level="basic")
        result = program.check_timing_robustness(
            [5], plans=default_plans(2, base_seed=77))
        assert [outcome.seed for outcome in result.schedules] \
            == [None, 77, 78]
