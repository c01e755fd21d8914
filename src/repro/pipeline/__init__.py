"""Staged compilation pipeline: driver, config, instrumentation, cache.

- :mod:`repro.pipeline.config` — :class:`PipelineConfig`, the immutable
  description of one compilation (opt level, verification policy, unroll
  limit, points-to), and its cache fingerprint;
- :mod:`repro.pipeline.driver` — :class:`CompilerDriver`, the explicit
  staged pipeline (parse → unroll → lower → inline → hyperblocks → build
  → verify → optimize) that ``compile_minic`` wraps;
- :mod:`repro.pipeline.report` — :class:`CompilationReport`, per-stage and
  per-pass wall time, change counts, and IR-size deltas;
- :mod:`repro.pipeline.cache` — :class:`CompilationCache`, the persistent
  content-addressed artifact store.

Parallel compilation is the ``compile`` jobs of the figure sweeps' job
DAGs (:mod:`repro.orchestrate`), which share artifacts through the cache.
"""

from repro.pipeline.config import (
    CACHE_SCHEMA,
    OPT_LEVELS,
    VERIFY_POLICIES,
    PipelineConfig,
)
from repro.pipeline.driver import STAGE_NAMES, STAGES, CompilerDriver, Stage
from repro.pipeline.report import CompilationReport, IRSnapshot, PassRecord, StageRecord
from repro.pipeline.cache import CompilationCache

__all__ = [
    "CACHE_SCHEMA",
    "OPT_LEVELS",
    "VERIFY_POLICIES",
    "PipelineConfig",
    "STAGE_NAMES",
    "STAGES",
    "CompilerDriver",
    "Stage",
    "CompilationReport",
    "IRSnapshot",
    "PassRecord",
    "StageRecord",
    "CompilationCache",
]
