"""Telemetry sessions, the persistent store, and the regression differ.

The acceptance criteria of the telemetry subsystem:

- a session wraps compile+simulate into schema-versioned RunRecords and
  persists them content-addressed under the store root;
- ``repro-telemetry compare`` flags an artificially injected >= 10%
  cycle regression on a fig19 kernel (same kernel, same nominal config,
  degraded memory timings) and reports no regression for a same-config
  re-run;
- the watchdog replays committed baselines and turns regressions into a
  failing verdict.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.cache import compiled, get_kernel
from repro.observe.diff import (
    Thresholds,
    compare,
    diff_runs,
    load_baselines,
    make_baselines,
    perturbed,
    save_baselines,
    watchdog,
)
from repro.observe.store import TelemetryStore, TelemetryStoreError
from repro.observe.telemetry import (
    SCHEMA_VERSION,
    RunRecord,
    TelemetrySession,
    build_run_record,
    current_session,
    telemetry_tags,
)
from repro.sim.memsys import MemorySystem, PERFECT_MEMORY, REALISTIC_2PORT

KERNEL = "li"  # small fig19 kernel: fast to simulate, realistic shape


@pytest.fixture()
def store(tmp_path):
    return TelemetryStore(tmp_path / "telemetry")


def _run_kernel(name, level, config, *, profile=False, telemetry=None):
    kernel = get_kernel(name)
    entry = compiled(name, level)
    result = entry.program.simulate(
        list(kernel.args), memsys=MemorySystem(config), profile=profile,
        telemetry=telemetry)
    kernel.check(result.return_value)
    return entry.program, result, kernel


class TestStore:
    def test_round_trip_and_content_address(self, store):
        program, result, kernel = _run_kernel(KERNEL, "full",
                                              PERFECT_MEMORY,
                                              telemetry=False)
        record = build_run_record(program, result, engine="compiled",
                                  memsys_name="perfect",
                                  args=list(kernel.args),
                                  tags={"kernel": KERNEL})
        run_id = store.append(record)
        assert record.run_id == run_id and len(run_id) == 64

        loaded = store.get(run_id)
        assert loaded.schema == SCHEMA_VERSION
        assert loaded.kind == "run"
        assert loaded.cycles == result.cycles
        assert loaded.kernel == KERNEL
        assert loaded.comparison_key() == record.comparison_key()
        # Unique prefixes resolve like git short hashes.
        assert store.get(run_id[:12]).run_id == run_id

    def test_identical_payload_dedupes(self, store):
        record = RunRecord(kind="run", entry="f", created_at=1.0,
                           result={"cycles": 10})
        first = store.append(record)
        again = store.append(RunRecord(kind="run", entry="f",
                                       created_at=1.0,
                                       result={"cycles": 10}))
        assert first == again
        assert len(store.index()) == 1

    def test_unknown_and_ambiguous_ids_raise(self, store):
        with pytest.raises(TelemetryStoreError):
            store.get("deadbeef")

    def test_gc_drops_old_sessions(self, store):
        for session_no in range(3):
            with TelemetrySession(store=store, label=f"s{session_no}"):
                _run_kernel(KERNEL, "none", PERFECT_MEMORY)
        assert len(store.sessions()) == 3
        removed = store.gc(keep_sessions=1)
        assert removed
        assert len(store.sessions()) == 1
        # The survivor is intact and readable.
        (survivor,) = store.sessions()
        assert store.records(session=survivor)


class TestShards:
    """One journal shard per writing process, read through the journal
    loader."""

    def test_torn_shard_tail_still_serves_reads_and_appends(self, store,
                                                           capsys):
        from repro.__main__ import telemetry_main
        with TelemetrySession(store=store, label="torn") as session:
            for i in range(3):
                session.record(RunRecord(kind="run", entry=f"f{i}",
                                         result={"cycles": i}))
        (shard,) = store.root.glob("shard-*.jsonl")
        with open(shard, "a") as handle:
            handle.write('{"key": "half-written", "status": "rec')

        records = store.records()
        assert [r.entry for r in records] == ["f0", "f1", "f2"]
        assert store.get(records[0].run_id[:12]).entry == "f0"
        # A writer after the crash gets its own shard; both read back.
        later = store.append(RunRecord(kind="run", entry="later",
                                       session="after-crash"))
        assert store.get(later).entry == "later"
        assert len(store.records()) == 4
        capsys.readouterr()
        assert telemetry_main(["--store", str(store.root), "list"]) == 0
        assert "f1" in capsys.readouterr().out

    def test_appends_open_no_store_file_for_reading(self, store,
                                                    monkeypatch):
        import builtins
        import io
        reads = []
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            if "r" in mode and str(store.root) in str(file):
                reads.append((str(file), mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        with TelemetrySession(store=store, label="many") as session:
            for i in range(500):
                session.record(RunRecord(kind="run", entry=f"f{i}"))
        assert reads == []
        monkeypatch.undo()
        assert len(store.records()) == 500

    def test_forked_worker_and_parent_share_one_session(self, store):
        import multiprocessing
        session = TelemetrySession(store=store, label="fork")
        shared = dict(kind="run", entry="shared", created_at=1.0)
        session.record(RunRecord(**shared))
        session.record(RunRecord(kind="run", entry="parent"))

        def child():
            # The inherited store switches to the child's own shard.
            session.record(RunRecord(kind="run", entry="child"))
            session.record(RunRecord(**shared))

        worker = multiprocessing.get_context("fork").Process(target=child)
        worker.start()
        worker.join(timeout=60)
        assert worker.exitcode == 0
        assert len(list(store.root.glob("shard-*.jsonl"))) == 2
        entries = sorted(record.entry for record
                         in store.records(session=session.session_id))
        assert entries == ["child", "parent", "shared"]


class TestSession:
    def test_ambient_session_records_runs_and_compiles(self, store):
        with TelemetrySession(store=store, label="amb") as session:
            with telemetry_tags(kernel=KERNEL, figure="test"):
                _run_kernel(KERNEL, "full", REALISTIC_2PORT)
        assert current_session() is None
        records = session.records()
        kinds = {record.kind for record in records}
        assert "run" in kinds
        run = next(r for r in records if r.kind == "run")
        assert run.tags["kernel"] == KERNEL
        assert run.tags["figure"] == "test"
        assert run.session == session.session_id
        assert run.memsys == "realistic-2port"
        assert run.cycles and run.cycles > 0
        assert run.result["memory_stats"]["accesses"] > 0
        assert run.host["python"]

    def test_telemetry_false_suppresses(self, store):
        with TelemetrySession(store=store) as session:
            _run_kernel(KERNEL, "none", PERFECT_MEMORY, telemetry=False)
        assert [r for r in session.records() if r.kind == "run"] == []

    def test_explicit_sink_without_ambient_session(self, store):
        with TelemetrySession(store=store) as session:
            pass  # session exists but is no longer ambient
        _run_kernel(KERNEL, "none", PERFECT_MEMORY, telemetry=session)
        assert [r for r in session.records() if r.kind == "run"]

    def test_profiled_run_carries_attribution(self, store):
        with TelemetrySession(store=store) as session:
            _run_kernel(KERNEL, "full", REALISTIC_2PORT, profile=True)
        run = next(r for r in session.records() if r.kind == "run")
        assert run.profile["opcode_fires"]
        shares = run.attribution_shares()
        assert shares and abs(sum(shares.values()) - 1.0) < 1e-6

    def test_compile_record_has_stage_and_pass_telemetry(self, store):
        from repro.api import compile_minic
        source = "int f(int n) { return n + 1; }"
        with TelemetrySession(store=store) as session:
            compile_minic(source, "f", opt_level="full")
        compiles = [r for r in session.records() if r.kind == "compile"]
        assert compiles
        compilation = compiles[-1].compilation
        assert compilation["stages"] and compilation["passes"]
        assert compiles[-1].source_sha and len(compiles[-1].source_sha) == 64


class TestDiff:
    def test_injected_regression_is_flagged(self, store):
        """The headline acceptance: >= 10% cycle regression on a fig19
        kernel, injected by degrading memory timings under the same
        config name, is flagged; a same-config re-run compares clean."""
        with TelemetrySession(store=store, label="base") as base:
            _run_kernel(KERNEL, "full", REALISTIC_2PORT, profile=True)
        with TelemetrySession(store=store, label="same") as same:
            _run_kernel(KERNEL, "full", REALISTIC_2PORT, profile=True)
        with TelemetrySession(store=store, label="hurt") as hurt:
            _run_kernel(KERNEL, "full", perturbed(REALISTIC_2PORT),
                        profile=True)

        clean = compare(base.records(), same.records())
        assert clean.ok
        assert "no regression" in clean.render()

        report = compare(base.records(), hurt.records())
        assert not report.ok
        (delta,) = report.regressions
        assert delta.cycle_pct >= 0.10
        assert "REGRESSION" in report.render()

    def test_noise_floor_swallows_tiny_deltas(self):
        base = RunRecord(result={"cycles": 1000}, tags={"kernel": "k"})
        tiny = RunRecord(result={"cycles": 1010}, tags={"kernel": "k"})
        big = RunRecord(result={"cycles": 1200}, tags={"kernel": "k"})
        assert not diff_runs(base, tiny).regression
        assert diff_runs(base, big).regression

    def test_thresholds_are_configurable(self):
        base = RunRecord(result={"cycles": 1000}, tags={"kernel": "k"})
        worse = RunRecord(result={"cycles": 1100}, tags={"kernel": "k"})
        strict = Thresholds(cycle_pct=0.01, cycle_floor=1)
        lax = Thresholds(cycle_pct=0.50, cycle_floor=1)
        assert diff_runs(base, worse, strict).regression
        assert not diff_runs(base, worse, lax).regression

    def test_schema_skew_refused(self):
        from repro.observe.diff import TelemetryDiffError
        old = RunRecord(schema=SCHEMA_VERSION + 1)
        with pytest.raises(TelemetryDiffError):
            diff_runs(old, RunRecord())

    def test_engine_excluded_from_comparison_key(self):
        compiled_run = RunRecord(engine="compiled", tags={"kernel": "k"},
                                 result={"cycles": 5})
        interp_run = RunRecord(engine="interp", tags={"kernel": "k"},
                               result={"cycles": 5})
        assert compiled_run.comparison_key() == interp_run.comparison_key()


class TestBaselinesAndWatchdog:
    def test_baseline_round_trip_and_clean_watchdog(self, tmp_path):
        records = make_baselines([KERNEL], levels=("full",),
                                 memory_systems=(PERFECT_MEMORY,))
        written = save_baselines(records, tmp_path / "baselines")
        assert written and all(path.exists() for path in written)
        loaded = load_baselines(tmp_path / "baselines")
        assert [r.comparison_key() for r in loaded] == \
            [r.comparison_key() for r in records]

        report = watchdog(tmp_path / "baselines")
        assert report.ok, report.render()

    def test_watchdog_catches_doctored_baseline(self, tmp_path):
        """A baseline claiming fewer cycles than the tree delivers reads
        as a regression when replayed."""
        records = make_baselines([KERNEL], levels=("full",),
                                 memory_systems=(REALISTIC_2PORT,))
        (record,) = records
        record.result["cycles"] = int(record.result["cycles"] * 0.5)
        save_baselines(records, tmp_path / "baselines")
        report = watchdog(tmp_path / "baselines")
        assert not report.ok

    def test_replay_skips_unknown_kernels(self, tmp_path):
        stranger = RunRecord(tags={"kernel": "no_such_kernel"},
                             result={"cycles": 1},
                             memsys="perfect")
        path = tmp_path / "b.json"
        path.write_text(json.dumps([stranger.to_dict()]))
        report = watchdog(path)
        # Nothing replayable: the stranger ends up baseline-only.
        assert not report.deltas
        assert report.unmatched_baseline
