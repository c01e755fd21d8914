"""Simulation engines vs reference interpreter: identical results, less time.

A Figure-19-style sweep (kernels x optimization levels x memory systems)
runs every cell on all three dataflow executors and asserts two things:

- **equivalence** — every observable ``DataflowResult`` field matches
  bit-for-bit across interp/compiled/codegen (the engines are faithful
  accelerators, not approximations);
- **speed** — the compiled engine beats the interpreter by at least 3x
  in the aggregate (typically > 5x), and the codegen engine beats the
  compiled engine by at least 1.5x geomean on top (typically ~2x). The
  floors sit below the typical numbers to keep CI robust on noisy
  shared runners.

Per-cell wall times and speedups land in
``benchmarks/results/sim_speed.json`` for trend tooling; the smoke test
is the one the CI ``perf-smoke`` job runs on its own.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.harness.cache import compiled
from repro.programs import get_kernel
from repro.sim.memsys import (
    MemorySystem,
    PERFECT_MEMORY,
    REALISTIC_2PORT,
)

from conftest import record_json

KERNELS = ("adpcm_e", "li", "mesa", "vortex")
LEVELS = ("none", "full")
SYSTEMS = (PERFECT_MEMORY, REALISTIC_2PORT)

#: Observable result surface compared across engines. ``memory_stats``
#: covers the memory hierarchy (accesses, hits, stalls); ``fire_counts``
#: covers per-node dynamic behavior.
RESULT_FIELDS = ("return_value", "cycles", "fired", "loads", "stores",
                 "skipped_memops", "fire_counts", "memory_stats")

def _measure(program, args, config, engine: str,
             repeats: int = 3) -> tuple[object, float]:
    """Best-of-``repeats`` wall time for one simulation cell.

    The first compiled/codegen call also builds (and caches) the graph's
    ``SimPlan`` — and, for codegen, generates and compiles the
    specialized module; taking the best of several runs reports the
    warm steady state, which is what sweeps pay.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        run = program.simulate(list(args), memsys=MemorySystem(config),
                               engine=engine)
        best = min(best, time.perf_counter() - start)
        result = run
    return result, best


def _assert_identical(interp, engine, label: str) -> None:
    for field in RESULT_FIELDS:
        got = getattr(engine, field)
        want = getattr(interp, field)
        assert got == want, (
            f"{label}: engine diverged on {field}: "
            f"{got!r} != {want!r}"
        )


def _cell(name: str, level: str, config) -> dict:
    kernel = get_kernel(name)
    program = compiled(name, level).program
    label = f"{name}/{level}/{config.name}"
    interp_run, interp_s = _measure(program, kernel.args, config, "interp",
                                    repeats=2)
    engine_run, engine_s = _measure(program, kernel.args, config, "compiled")
    codegen_run, codegen_s = _measure(program, kernel.args, config, "codegen")
    kernel.check(interp_run.return_value)
    _assert_identical(interp_run, engine_run, label + "/compiled")
    _assert_identical(interp_run, codegen_run, label + "/codegen")
    return {
        "kernel": name,
        "level": level,
        "memsys": config.name,
        "cycles": engine_run.cycles,
        "interp_seconds": round(interp_s, 6),
        "compiled_seconds": round(engine_s, 6),
        "codegen_seconds": round(codegen_s, 6),
        "speedup": round(interp_s / engine_s, 3) if engine_s else 0.0,
        "codegen_speedup": (round(interp_s / codegen_s, 3)
                            if codegen_s else 0.0),
        "codegen_vs_compiled": (round(engine_s / codegen_s, 3)
                                if codegen_s else 0.0),
    }


def test_sim_speed_smoke(benchmark):
    """The CI perf gate: one small kernel, exact 3-way match, floors."""
    cell = benchmark.pedantic(
        lambda: _cell("adpcm_e", "full", REALISTIC_2PORT),
        rounds=1, iterations=1,
    )
    record_json("sim_speed_smoke", cell)
    assert cell["speedup"] >= 2.0, (
        f"compiled engine only {cell['speedup']}x over the interpreter"
    )
    assert cell["codegen_vs_compiled"] >= 1.2, (
        f"codegen only {cell['codegen_vs_compiled']}x over the "
        "compiled engine"
    )


def test_sim_speed_sweep(benchmark):
    """The full sweep: every cell identical on all three engines;
    compiled >= 3x geomean over interp, codegen >= 1.5x over compiled."""
    cells = benchmark.pedantic(
        lambda: [_cell(name, level, config)
                 for name in KERNELS
                 for level in LEVELS
                 for config in SYSTEMS],
        rounds=1, iterations=1,
    )
    geomean = statistics.geometric_mean(
        max(cell["speedup"], 0.01) for cell in cells)
    codegen_geomean = statistics.geometric_mean(
        max(cell["codegen_speedup"], 0.01) for cell in cells)
    codegen_vs_compiled = statistics.geometric_mean(
        max(cell["codegen_vs_compiled"], 0.01) for cell in cells)
    payload = {
        "kernels": list(KERNELS),
        "levels": list(LEVELS),
        "memory_systems": [config.name for config in SYSTEMS],
        "cells": cells,
        "geomean_speedup": round(geomean, 3),
        "codegen_geomean_speedup": round(codegen_geomean, 3),
        "codegen_vs_compiled_geomean": round(codegen_vs_compiled, 3),
    }
    record_json("sim_speed", payload)
    assert geomean >= 3.0, (
        f"compiled aggregate speedup {geomean:.2f}x below the 3x floor"
    )
    assert codegen_vs_compiled >= 1.5, (
        f"codegen aggregate {codegen_vs_compiled:.2f}x over compiled, "
        "below the 1.5x floor"
    )

