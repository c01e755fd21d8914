"""Compilation cache shared by the experiment drivers.

Compiling a kernel under a given configuration is deterministic, so the
drivers for different figures reuse one compilation per *full
configuration* — the content-addressed fingerprint of (source, entry,
opt level, unroll limit, points-to), not the old ``(name, level)`` pair
that silently collided when two configs of the same kernel differed in
``unroll_limit`` or ``entry_points_to``.

Two layers back the fingerprint:

- an in-process dict, so repeated ``compiled(...)`` calls in one run
  return the *same* :class:`~repro.api.CompiledProgram` object;
- the persistent on-disk :class:`~repro.pipeline.cache.CompilationCache`
  (``$REPRO_CACHE_DIR`` or ``~/.cache/repro-pegasus``), so figure
  regeneration across processes and sessions is warm-cache cheap.

The harness compiles at the ``final`` verification policy — the graph is
checked once per compilation rather than after all ~17 passes of the
``full`` pipeline — which measurably cuts cold compile time (see
``benchmarks/bench_pipeline_overhead.py``); the test suite keeps the
strict ``every-pass`` default through ``compile_minic``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import CompiledProgram
from repro.pipeline.cache import CompilationCache
from repro.pipeline.config import PipelineConfig
from repro.pipeline.driver import CompilerDriver
from repro.programs import Kernel, all_kernels, get_kernel

# Verification policy for harness compilations (tests use "every-pass").
HARNESS_VERIFY = "final"

# In-process layer: fingerprint -> KernelCompilation / CompiledProgram.
_MEMORY: dict[str, "KernelCompilation"] = {}
_SOURCE_MEMORY: dict[str, CompiledProgram] = {}

# A default subset keeps figure regeneration affordable; pass
# ``kernels="all"`` to a driver for the full suite.
DEFAULT_SUBSET = (
    "adpcm_e", "adpcm_d", "compress", "ijpeg", "jpeg_e", "jpeg_d",
    "li", "mesa", "mpeg2_d", "vortex",
)


@dataclass
class KernelCompilation:
    kernel: Kernel
    program: CompiledProgram
    level: str


def _disk() -> CompilationCache:
    # Resolved per call so a changed $REPRO_CACHE_DIR takes effect.
    return CompilationCache()


def _config(level: str, unroll_limit: int,
            entry_points_to: dict | None) -> PipelineConfig:
    return PipelineConfig.make(opt_level=level, verify=HARNESS_VERIFY,
                               unroll_limit=unroll_limit,
                               entry_points_to=entry_points_to)


def compiled(name: str, level: str, *, unroll_limit: int = 0,
             entry_points_to: dict | None = None,
             use_disk: bool = True) -> KernelCompilation:
    """Compile (or fetch) one kernel under one full configuration."""
    kernel = get_kernel(name)
    config = _config(level, unroll_limit, entry_points_to)
    disk = _disk() if use_disk else None
    fingerprint = config.fingerprint(kernel.source, kernel.entry)
    hit = _MEMORY.get(fingerprint)
    if hit is not None:
        return hit
    program = CompilerDriver(config, cache=disk).compile(kernel.source,
                                                         kernel.entry)
    compilation = KernelCompilation(kernel=kernel, program=program,
                                    level=level)
    _MEMORY[fingerprint] = compilation
    return compilation


def compile_source_cached(source: str, entry: str, level: str = "full", *,
                          unroll_limit: int = 0,
                          entry_points_to: dict | None = None,
                          use_disk: bool = True) -> CompiledProgram:
    """Driver-compiled program for raw source (e.g. the §2 example),
    backed by the same two cache layers as :func:`compiled`."""
    config = _config(level, unroll_limit, entry_points_to)
    fingerprint = config.fingerprint(source, entry)
    hit = _SOURCE_MEMORY.get(fingerprint)
    if hit is not None:
        return hit
    disk = _disk() if use_disk else None
    program = CompilerDriver(config, cache=disk).compile(source, entry)
    _SOURCE_MEMORY[fingerprint] = program
    return program


def clear_memory() -> None:
    """Drop the in-process layer (tests; the disk layer is untouched)."""
    _MEMORY.clear()
    _SOURCE_MEMORY.clear()


def select_kernels(kernels) -> list[Kernel]:
    """Resolve a kernel selection: None = default subset, "all", or names."""
    if kernels is None:
        return [get_kernel(name) for name in DEFAULT_SUBSET]
    if kernels == "all":
        return all_kernels()
    return [get_kernel(name) for name in kernels]
