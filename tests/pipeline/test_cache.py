"""Persistent compilation cache: hits, misses, invalidation, collisions."""

from __future__ import annotations

import pytest

from repro.pegasus.printer import dump_text
from repro.pipeline import CompilationCache, CompilerDriver, PipelineConfig

SOURCE = """
int buf[8];

int g(int n)
{
    int i;
    for (i = 0; i < 4; i++) buf[i] = i + n;
    return buf[0] + buf[3];
}
"""


@pytest.fixture
def cache(tmp_path):
    return CompilationCache(tmp_path / "cc")


class TestHitMiss:
    def test_first_compile_misses_then_hits(self, cache):
        config = PipelineConfig.make(opt_level="full", verify="final")
        first = CompilerDriver(config, cache=cache).compile(SOURCE, "g")
        assert first.report.cache_status == "miss"
        assert cache.stats()["entries"] == 1
        second = CompilerDriver(config, cache=cache).compile(SOURCE, "g")
        assert second.report.cache_status == "hit"
        assert second is not first  # a fresh unpickled object...
        assert dump_text(second.graph) == dump_text(first.graph)  # ...same graph

    def test_cached_program_still_runs(self, cache):
        config = PipelineConfig.make(opt_level="full", verify="final")
        CompilerDriver(config, cache=cache).compile(SOURCE, "g")
        cached = CompilerDriver(config, cache=cache).compile(SOURCE, "g")
        assert cached.simulate([5]).return_value == \
            cached.run_sequential([5]).return_value

    def test_without_cache_report_is_uncached(self):
        program = CompilerDriver().compile(SOURCE, "g")
        assert program.report.cache_status == "uncached"


class TestKeying:
    def test_source_change_invalidates(self, cache):
        config = PipelineConfig.make()
        a = cache.key(SOURCE, "g", config)
        b = cache.key(SOURCE.replace("i + n", "i * n"), "g", config)
        assert a != b

    def test_every_output_relevant_knob_is_in_the_key(self, cache):
        base = PipelineConfig.make(opt_level="full")
        variants = [
            PipelineConfig.make(opt_level="medium"),
            PipelineConfig.make(opt_level="full", unroll_limit=8),
            PipelineConfig.make(opt_level="full",
                                entry_points_to={"p": ["buf"]}),
        ]
        keys = {cache.key(SOURCE, "g", cfg) for cfg in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_verify_policy_and_filename_do_not_fragment_the_cache(self, cache):
        strict = PipelineConfig.make(verify="every-pass", filename="a.c")
        relaxed = PipelineConfig.make(verify="final", filename="b.c")
        assert cache.key(SOURCE, "g", strict) == cache.key(SOURCE, "g", relaxed)


class TestRobustness:
    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        config = PipelineConfig.make()
        key = cache.key(SOURCE, "g", config)
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists()

    def test_clear_removes_everything(self, cache):
        config = PipelineConfig.make(verify="final")
        CompilerDriver(config, cache=cache).compile(SOURCE, "g")
        assert cache.stats()["entries"] == 1
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0


class TestHarnessCacheRegression:
    """The old harness cache keyed only (name, level): two configurations
    of the same kernel silently shared one artifact.  The fingerprint
    must separate them."""

    @pytest.fixture(autouse=True)
    def _isolated(self, tmp_path, monkeypatch):
        from repro.harness import cache as harness_cache
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "hc"))
        harness_cache.clear_memory()
        yield
        harness_cache.clear_memory()

    def test_unroll_limit_distinguishes_compilations(self):
        from repro.harness.cache import compiled
        rolled = compiled("adpcm_e", "full")
        unrolled = compiled("adpcm_e", "full", unroll_limit=8)
        assert rolled.program is not unrolled.program
        # And repeated lookups still share within each configuration.
        assert compiled("adpcm_e", "full").program is rolled.program
        assert compiled("adpcm_e", "full",
                        unroll_limit=8).program is unrolled.program

    def test_points_to_distinguishes_compilations(self):
        from repro.harness.cache import compile_source_cached
        source = """
        int table[16];
        int h(int *p, int n) { table[n] = *p + 1; return table[n]; }
        """
        plain = compile_source_cached(source, "h", level="medium")
        annotated = compile_source_cached(source, "h", level="medium",
                                          entry_points_to={"p": ["table"]})
        assert plain is not annotated
        # Same config again: in-process layer returns the same object.
        assert compile_source_cached(source, "h", level="medium") is plain

    def test_in_process_layer_survives_disk_layer(self):
        from repro.harness.cache import compiled
        first = compiled("li", "none")
        second = compiled("li", "none")
        assert first.program is second.program


class TestParallelCompile:
    """Figure-sweep compile jobs publish their artifacts to the cache."""

    @pytest.fixture(autouse=True)
    def _isolated(self, cache, monkeypatch):
        from repro.harness import cache as harness_cache
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache.root))
        harness_cache.clear_memory()
        yield
        harness_cache.clear_memory()

    def test_sequential_fallback_populates_cache(self, cache):
        from repro.harness.sweep import compile_warm, run_sweep
        from repro.orchestrate.dag import JobDAG
        dag = JobDAG("compile")
        for name in ("li", "adpcm_e"):
            dag.job(f"compile/{name}", compile_warm, name, ("none",),
                    category="compile")
        assert run_sweep(dag).ok
        assert cache.stats()["entries"] == 2

    def test_warm_results_load_from_cache(self, cache):
        from repro.harness import cache as harness_cache
        from repro.harness.sweep import compile_warm
        compile_warm("li", ("none",))
        harness_cache.clear_memory()
        again = harness_cache.compiled("li", "none")
        assert again.program.report.cache_status == "hit"
        assert cache.stats()["entries"] == 1
