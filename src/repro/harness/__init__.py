"""Experiment drivers: one module per table/figure of the paper.

- :mod:`repro.harness.loc` — Table 1 (implementation size per optimization);
- :mod:`repro.harness.table2` — Table 2 (program statistics, pragmas);
- :mod:`repro.harness.fig18` — Figure 18 (static and dynamic memory-op
  reduction per benchmark);
- :mod:`repro.harness.fig19` — Figure 19 (speedup per optimization set and
  memory system);
- :mod:`repro.harness.section2` — the §2 seven-compiler comparison;
- :mod:`repro.harness.ablation` — the §7.3 per-optimization findings.

Each driver returns plain data plus a rendered text table, so the pytest
benchmarks and the examples can share them.

Compilations are shared through :mod:`repro.harness.cache` — an
in-process layer over the persistent content-addressed store of
:mod:`repro.pipeline.cache` — and run at the ``final`` verification
policy (checked once per compile instead of after every pass).
"""

from repro.harness.cache import (
    KernelCompilation,
    compile_source_cached,
    compiled,
)

__all__ = ["KernelCompilation", "compile_source_cached", "compiled"]
