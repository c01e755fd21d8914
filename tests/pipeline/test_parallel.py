"""Parallel sweeps: compile jobs over the shared on-disk cache, per-job
isolation, and failures that execute exactly once."""

import os

import pytest

from repro.errors import ReproError
from repro.harness import cache as harness_cache
from repro.harness.sweep import compile_warm, gather_rows, run_sweep
from repro.orchestrate.dag import JobDAG
from repro.pipeline.cache import CompilationCache
from repro.pipeline.config import PipelineConfig
from repro.pipeline.driver import CompilerDriver
from repro.programs import Kernel

GOOD_SOURCE = """
int f(int n) { return n * 3 + 1; }
"""

# Parses, but `return` disagrees with the declared void type: the
# compiler rejects it deterministically (a ReproError, not a crash).
BAD_SOURCE = """
void f(int n) { return n; }
"""


@pytest.fixture(autouse=True)
def disk(tmp_path, monkeypatch):
    """A private on-disk cache and an empty in-process layer."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    harness_cache.clear_memory()
    yield CompilationCache(tmp_path / "cache")
    harness_cache.clear_memory()


def fake_registry(monkeypatch):
    kernels = {
        "goodk": Kernel(name="goodk", family="synthetic",
                        source=GOOD_SOURCE, entry="f"),
        "badk": Kernel(name="badk", family="synthetic",
                       source=BAD_SOURCE, entry="f"),
    }
    monkeypatch.setattr(harness_cache, "get_kernel", kernels.__getitem__)
    return kernels


def compile_dag(names, levels=("none",)) -> JobDAG:
    """The compile stage of a figure DAG: one warm-up job per kernel."""
    dag = JobDAG("compile")
    for name in names:
        dag.job(f"compile/{name}", compile_warm, name, levels,
                category="compile")
    return dag


class TestBatchCompletion:
    def test_all_good_kernels_compile(self, monkeypatch):
        fake_registry(monkeypatch)
        sweep = run_sweep(compile_dag(["goodk"], ("none", "full")))
        assert sweep.ok
        for level in ("none", "full"):
            assert harness_cache.compiled("goodk", level).program.graph \
                is not None

    def test_one_bad_kernel_does_not_abort_the_batch(self, monkeypatch,
                                                     disk):
        fake_registry(monkeypatch)
        sweep = run_sweep(compile_dag(["badk", "goodk"]), strict=False)
        # Only the bad kernel failed; the good one ran after it and its
        # artifact landed in the cache.
        assert [result.name for result in sweep.degraded] == \
            ["compile/badk"]
        assert sweep["compile/goodk"].ok
        assert disk.stats()["entries"] == 1

    def test_failures_carry_the_original_exception(self, monkeypatch):
        fake_registry(monkeypatch)
        sweep = run_sweep(compile_dag(["badk"]), strict=False)
        failed = sweep["compile/badk"]
        assert isinstance(failed.exception, ReproError)
        assert str(failed.exception) in failed.error
        with pytest.raises(type(failed.exception)):
            run_sweep(compile_dag(["badk"]))

    def test_warm_cache_short_circuits(self, monkeypatch):
        fake_registry(monkeypatch)
        run_sweep(compile_dag(["goodk"]))
        harness_cache.clear_memory()
        again = harness_cache.compiled("goodk", "none")
        assert again.program.report.cache_status == "hit"


class TestRealRegistryParallel:
    def test_parallel_matches_serial(self, disk):
        # Real (tiny) kernels through the pool; in sandboxes without
        # process primitives the pool degrades to in-process execution,
        # and the outcome must be identical either way.
        names = ["mpeg2_d", "ijpeg"]
        parallel = run_sweep(compile_dag(names), parallel=True,
                             max_workers=2)
        assert parallel.ok
        assert disk.stats()["entries"] == 2
        harness_cache.clear_memory()
        serial = run_sweep(compile_dag(names))
        assert serial.ok
        assert [serial[name].status for name in serial.order] == \
            [parallel[name].status for name in parallel.order]


def _square(x):
    return x * x


def _touch_and_maybe_fail(workdir, index, bad):
    """Records its execution, then fails when ``index == bad``."""
    with open(os.path.join(workdir, f"ran-{index}"), "a") as handle:
        handle.write("x")
    if index == bad:
        raise ValueError(f"job {index} is bad")
    return index


def _compile_and_count(workdir, name, source, cache_root):
    """Compile job that records each execution in a marker file."""
    with open(os.path.join(workdir, f"compiled-{name}"), "a") as handle:
        handle.write("x")
    config = PipelineConfig.make(opt_level="none", verify="final")
    CompilerDriver(config, cache=CompilationCache(cache_root)).compile(
        source, "f")
    return name


def job_dag(fn, argument_tuples) -> JobDAG:
    dag = JobDAG("jobs")
    names = []
    for index, args in enumerate(argument_tuples):
        names.append(f"job/{index}")
        dag.job(names[-1], fn, *args)
    dag.job("jobs/aggregate", gather_rows, deps=tuple(names),
            category="aggregate", tolerant=True, pass_deps=True,
            transient=True)
    return dag


class TestRunJobs:
    def test_results_in_input_order(self):
        sweep = run_sweep(job_dag(_square, [(3,), (1,), (2,)]),
                          parallel=True, max_workers=2)
        assert sweep.value("jobs/aggregate") == [9, 1, 4]

    def test_serial_fallback_matches(self):
        jobs = [(i,) for i in range(5)]
        serial = run_sweep(job_dag(_square, jobs))
        parallel = run_sweep(job_dag(_square, jobs), parallel=True,
                             max_workers=2)
        assert serial.value("jobs/aggregate") == \
            parallel.value("jobs/aggregate")

    def test_failed_jobs_execute_exactly_once(self, tmp_path):
        """A worker-raised job is reported, never re-run in-process.

        With no retry budget, a job that raises runs once on the pool
        while its siblings complete; the marker files count actual
        executions.
        """
        jobs = [(str(tmp_path), index, 2) for index in range(4)]
        with pytest.raises(ValueError, match="job 2 is bad"):
            run_sweep(job_dag(_touch_and_maybe_fail, jobs), parallel=True,
                      max_workers=2)
        for index in range(4):
            marker = tmp_path / f"ran-{index}"
            assert marker.read_text() == "x", \
                f"job {index} executed {len(marker.read_text())} times"

    def test_failure_raises_but_batch_drains_first(self, tmp_path):
        jobs = [(str(tmp_path), index, 0) for index in range(4)]
        with pytest.raises(ValueError, match="job 0 is bad"):
            run_sweep(job_dag(_touch_and_maybe_fail, jobs), parallel=True,
                      max_workers=2)
        # Every job after the failing one still ran (no aborted tail).
        for index in range(4):
            assert (tmp_path / f"ran-{index}").exists()

    def test_serial_path_raises_too(self, tmp_path):
        jobs = [(str(tmp_path), index, 1) for index in range(2)]
        with pytest.raises(ValueError, match="job 1 is bad"):
            run_sweep(job_dag(_touch_and_maybe_fail, jobs))


class TestCompileFailuresNotRerun:
    def test_worker_compile_failure_not_recompiled_in_process(
            self, tmp_path, disk):
        """A kernel that failed in a worker is reported, not re-run."""
        jobs = [(str(tmp_path), "badk", BAD_SOURCE, str(disk.root)),
                (str(tmp_path), "goodk", GOOD_SOURCE, str(disk.root))]
        sweep = run_sweep(job_dag(_compile_and_count, jobs), parallel=True,
                          max_workers=2, strict=False)
        bad, good = sweep["job/0"], sweep["job/1"]
        assert bad.status == "error" and bad.attempts == 1
        assert isinstance(bad.exception, ReproError)
        assert good.ok
        for name in ("badk", "goodk"):
            assert (tmp_path / f"compiled-{name}").read_text() == "x"


class TestErrorFormatting:
    def test_message_lists_every_failure(self):
        dag = JobDAG("batch")
        dag.job("go/full", _raise, ValueError("boom"))
        dag.job("li/none", _raise, RuntimeError("bang"))
        report = run_sweep(dag, strict=False).report()
        assert "go/full: ERROR after 1 attempt: ValueError: boom" in report
        assert "li/none: ERROR after 1 attempt: RuntimeError: bang" in report
        assert report.splitlines()[-1].startswith("2 error;")


def _raise(error):
    raise error
