"""Experiment drivers: smoke coverage of every table/figure harness."""

import pytest

from repro.harness import loc, section2, table2, fig18, fig19
from repro.harness.cache import DEFAULT_SUBSET, compiled, select_kernels
from repro.harness.sweep import run_sweep
from repro.orchestrate.scheduler import JobResult
from repro.programs import all_kernels


class TestCache:
    def test_compilations_are_cached(self):
        first = compiled("li", "none")
        second = compiled("li", "none")
        assert first.program is second.program

    def test_select_kernels_modes(self):
        assert [k.name for k in select_kernels(None)] == list(DEFAULT_SUBSET)
        assert len(select_kernels("all")) == len(all_kernels())
        assert [k.name for k in select_kernels(["mesa"])] == ["mesa"]


class TestLoc:
    def test_rows_cover_paper_table(self):
        rows = loc.table1()
        assert len(rows) == 8
        names = [row.optimization for row in rows]
        assert "Loop decoupling+monotone loops" in names

    def test_render_mentions_both_columns(self):
        text = loc.render()
        assert "paper LOC" in text and "ours LOC" in text


class TestSection2:
    def test_result_shape(self):
        result = section2.section2()
        assert result.loads_removed == 1
        assert result.stores_removed == 2


class TestTable2:
    def test_rows_for_subset(self):
        rows = table2.table2(kernels=("li", "mesa"))
        assert [row.name for row in rows] == ["li", "mesa"]
        assert all(row.coverage_percent == 100.0 for row in rows)

    def test_render_has_total_row(self):
        text = table2.render(kernels=("li",))
        assert "Total" in text


class TestFig18:
    def test_single_kernel_row(self):
        (row,) = fig18.figure18(kernels=("li",))
        assert row.dynamic_before >= row.dynamic_after
        assert 0 <= row.static_loads_removed_pct <= 100


class TestFig19:
    def test_single_cell(self):
        rows = fig19.figure19(kernels=("li",),
                              memory_systems=(fig19.MEMORY_SYSTEMS[0],))
        (row,) = rows
        assert row.baseline_cycles > 0
        assert set(row.cycles) == set(fig19.LEVELS)
        assert row.speedup("full") > 0

    def test_attribution_columns(self):
        rows = fig19.figure19(kernels=("li",),
                              memory_systems=(fig19.MEMORY_SYSTEMS[0],),
                              attribution=True)
        (row,) = rows
        for level in fig19.LEVELS:
            # The critical-path invariant carries into the harness rows:
            # the per-category cycles sum to the level's cycle count.
            assert sum(row.attribution[level].values()) == row.cycles[level]
        shares = [row.category_share("full", category)
                  for category in ("memory", "compute", "token", "control")]
        assert abs(sum(shares) - 1.0) < 1e-9


class TestHardenedHarness:
    """Figure sweeps degrade a failed cell instead of aborting."""

    def test_fig19_job_keys_name_kernel_and_memsys(self):
        dag = fig19.build_dag(kernels=("li",),
                              memory_systems=(fig19.MEMORY_SYSTEMS[0],))
        sweep = run_sweep(dag)
        cells = [name for name in sweep.order
                 if sweep[name].category == "cell"]
        assert cells == ["fig19/li/perfect"]

    def test_degraded_rows_render_instead_of_aborting(self):
        failed = JobResult(name="fig18/go", status="timeout",
                           error="wall limit", attempts=1, category="cell")
        text = fig18.render_rows([], degraded=[failed])
        assert "DEGRADED" in text
        assert f"degraded fig18/go: {failed.describe()}" in text
        assert "TIMEOUT after 1 attempt: wall limit" in text

    def test_fig19_degraded_render(self):
        failed = JobResult(name="fig19/go/perfect", status="error",
                           error="deadlock", attempts=1, category="cell")
        text = fig19.render_rows([], degraded=[failed])
        assert "DEGRADED" in text
        assert f"degraded fig19/go/perfect: {failed.describe()}" in text

    def test_section2_degraded_render(self, monkeypatch, tmp_path, capsys):
        from repro.errors import ReproError
        from repro.orchestrate.sweeps import sweep_main

        def boom(*args, **kwargs):
            raise ReproError("compiler exploded")

        monkeypatch.setattr(section2, "compile_source_cached", boom)
        code = sweep_main(["run", "section2",
                           "--journal", str(tmp_path / "s2.journal")])
        assert code == 1
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("Section 2 example:")]
        assert line == ("Section 2 example: DEGRADED — ERROR after 1 "
                        "attempt: ReproError: compiler exploded")
