"""Journal: append-only records, torn tails, compaction, shard merge."""

from repro.orchestrate.journal import (
    Journal,
    merge_shards,
    read_shards,
    shard_path,
)


class TestRoundtrip:
    def test_values_survive_reload(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.record("a", value={"cycles": 10})
        journal.record("b", value=[1, 2, 3])
        reloaded = Journal(tmp_path / "j")
        assert reloaded.value("a") == {"cycles": 10}
        assert reloaded.value("b") == [1, 2, 3]
        assert len(reloaded) == 2

    def test_latest_event_wins(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.record("a", value=1)
        journal.record("a", value=2)
        assert Journal(tmp_path / "j").value("a") == 2

    def test_failure_statuses_carry_no_value(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.record("a", status="error", value="ignored")
        reloaded = Journal(tmp_path / "j")
        assert not reloaded.has_value("a")
        assert reloaded.value("a") is None
        assert reloaded.get("a")["status"] == "error"
        assert len(reloaded) == 0

    def test_appends_not_rewrites(self, tmp_path):
        """Recording N values costs O(N) bytes total, not O(N^2)."""
        path = tmp_path / "j"
        journal = Journal(path)
        journal.record("k0", value="x" * 100)
        first = path.stat().st_size
        for i in range(1, 50):
            journal.record(f"k{i}", value="x" * 100)
        # 50 similar records: the file grows linearly (each append is
        # about the size of the first record, not the whole prefix).
        assert path.stat().st_size < first * 55


class TestCrashTolerance:
    def test_torn_tail_is_discarded_on_load(self, tmp_path):
        path = tmp_path / "j"
        journal = Journal(path)
        journal.record("a", value=1)
        journal.record("b", value=2)
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # kill mid-write of the last record
        reloaded = Journal(path)
        assert reloaded.value("a") == 1
        assert not reloaded.has_value("b")
        assert reloaded.tail_dropped > 0

    def test_next_append_truncates_the_torn_tail(self, tmp_path):
        path = tmp_path / "j"
        journal = Journal(path)
        journal.record("a", value=1)
        with open(path, "ab") as handle:
            handle.write(b'{"key": "torn')
        reloaded = Journal(path)
        reloaded.record("b", value=2)
        # The file is clean again: every line parses.
        final = Journal(path)
        assert final.value("a") == 1
        assert final.value("b") == 2
        assert final.tail_dropped == 0

    def test_corrupt_middle_line_stops_trust_there(self, tmp_path):
        path = tmp_path / "j"
        journal = Journal(path)
        journal.record("a", value=1)
        good = path.read_bytes()
        path.write_bytes(good + b"not json at all\n" + good.replace(b'"a"', b'"b"'))
        reloaded = Journal(path)
        assert reloaded.value("a") == 1
        assert not reloaded.has_value("b")

    def test_garbage_file_heals(self, tmp_path):
        path = tmp_path / "j"
        path.write_bytes(b"\x00\x01binary garbage")
        journal = Journal(path)
        assert len(journal) == 0
        journal.record("a", value=1)
        assert Journal(path).value("a") == 1


class TestCompaction:
    def test_explicit_compact_drops_dead_lines(self, tmp_path):
        path = tmp_path / "j"
        journal = Journal(path)
        for _ in range(20):
            journal.record("a", value="x" * 50)
        size_before = path.stat().st_size
        journal.compact()
        assert path.stat().st_size < size_before
        assert Journal(path).value("a") == "x" * 50

    def test_auto_compaction_bounds_dead_weight(self, tmp_path):
        path = tmp_path / "j"
        journal = Journal(path)
        for _ in range(200):
            journal.record("a", value=1)
        # 200 rewrites of one key auto-compacted: far fewer lines remain.
        lines = path.read_bytes().count(b"\n")
        assert lines < 150
        assert Journal(path).value("a") == 1
        # Appends and compactions leave no temp files behind.
        assert [p.name for p in tmp_path.iterdir()] == ["j"]

    def test_clear_removes_file(self, tmp_path):
        path = tmp_path / "j"
        journal = Journal(path)
        journal.record("a", value=1)
        journal.clear()
        assert not path.exists()
        assert len(Journal(path)) == 0


class TestShardMerge:
    """merge_shards: fold per-worker shards into the main journal,
    last-write-wins per job key by event timestamp."""

    def _shard(self, tmp_path, worker):
        return Journal(shard_path(tmp_path / "shards", worker))

    def test_shard_values_recovered_into_main_journal(self, tmp_path):
        journal = Journal(tmp_path / "j")
        shard = self._shard(tmp_path, "host-1")
        shard.record("a", value=1, worker="host-1")
        shard.record("b", value=2, worker="host-1")
        merged = merge_shards(journal, tmp_path / "shards")
        assert merged == 2
        assert journal.value("a") == 1
        assert journal.value("b") == 2
        # Provenance rides along verbatim.
        assert journal.get("a")["worker"] == "host-1"
        # Durable: a reload sees the merged values too.
        assert Journal(tmp_path / "j").value("b") == 2

    def test_latest_timestamp_wins_across_shards(self, tmp_path):
        journal = Journal(tmp_path / "j")
        self._shard(tmp_path, "w1").record("a", value="old", ts=100.0)
        self._shard(tmp_path, "w2").record("a", value="new", ts=200.0)
        assert merge_shards(journal, tmp_path / "shards") == 1
        assert journal.value("a") == "new"

    def test_newer_main_journal_entry_is_kept(self, tmp_path):
        journal = Journal(tmp_path / "j")
        journal.record("a", value="mine", ts=300.0)
        self._shard(tmp_path, "w1").record("a", value="stale", ts=100.0)
        assert merge_shards(journal, tmp_path / "shards") == 0
        assert journal.value("a") == "mine"

    def test_leased_and_error_entries_are_not_merged(self, tmp_path):
        journal = Journal(tmp_path / "j")
        shard = self._shard(tmp_path, "w1")
        shard.record("held", status="leased", worker="w1", lease="L0")
        shard.record("bad", status="error", error="boom")
        assert merge_shards(journal, tmp_path / "shards") == 0
        assert journal.get("held") is None
        assert journal.get("bad") is None

    def test_cleanup_unlinks_consumed_shards(self, tmp_path):
        journal = Journal(tmp_path / "j")
        self._shard(tmp_path, "w1").record("a", value=1)
        self._shard(tmp_path, "w2").record("b", value=2)
        merge_shards(journal, tmp_path / "shards")
        assert not list((tmp_path / "shards").glob("shard-*.jsonl"))

    def test_cleanup_false_keeps_shards(self, tmp_path):
        journal = Journal(tmp_path / "j")
        self._shard(tmp_path, "w1").record("a", value=1)
        merge_shards(journal, tmp_path / "shards", cleanup=False)
        assert len(list((tmp_path / "shards").glob("shard-*.jsonl"))) == 1

    def test_torn_shard_tail_heals_like_the_main_journal(self, tmp_path):
        journal = Journal(tmp_path / "j")
        shard = self._shard(tmp_path, "w1")
        shard.record("a", value=1)
        shard.record("b", value=2)
        data = shard.path.read_bytes()
        shard.path.write_bytes(data[:-5])  # worker died mid-write
        assert merge_shards(journal, tmp_path / "shards") == 1
        assert journal.value("a") == 1
        assert not journal.has_value("b")

    def test_missing_shard_dir_is_a_noop(self, tmp_path):
        journal = Journal(tmp_path / "j")
        assert merge_shards(journal, tmp_path / "nowhere") == 0

    def test_shard_path_sanitizes_worker_ids(self, tmp_path):
        path = shard_path(tmp_path, "host/../evil:9")
        assert path.parent == tmp_path
        assert path.name == "shard-host-..-evil-9.jsonl"

    def test_read_shards_overlays_any_status(self, tmp_path):
        shard = self._shard(tmp_path, "w1")
        shard.record("a", status="leased", worker="w1", lease="L3",
                     ts=100.0)
        shard.record("b", value=2, ts=100.0)
        self._shard(tmp_path, "w2").record("a", value=1, ts=200.0)
        view = read_shards(tmp_path / "shards")
        assert view["a"]["status"] == "ok"  # newest event wins
        assert view["b"]["status"] == "ok"
        assert read_shards(tmp_path / "nowhere") == {}
