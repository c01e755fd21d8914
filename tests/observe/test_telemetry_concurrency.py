"""Concurrent writers into one TelemetrySession.

The compile service records from many asyncio tasks (and from worker
threads entered via ``asyncio.to_thread``) into a single session. Tags
live in a ContextVar, so each task's overlay must stay isolated from
its siblings, every record must survive the interleaved appends, and
the store's shard must read back clean.
"""

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

from repro.observe.store import TelemetryStore
from repro.observe.telemetry import RunRecord, TelemetrySession

TASKS = 24


def test_concurrent_asyncio_tasks_tag_isolation(tmp_path):
    session = TelemetrySession(store=TelemetryStore(tmp_path),
                               label="concurrency")

    async def one(i: int) -> None:
        with session.tags(task=f"t{i}"):
            # Yield inside the tagged block so tasks interleave while
            # their overlays are live.
            await asyncio.sleep(0.001 * (i % 3))
            session.record(RunRecord(kind="run", entry=f"loop-{i}"))
            # The overlay must follow into to_thread (context copy).
            await asyncio.to_thread(
                session.record,
                RunRecord(kind="run", entry=f"thread-{i}"))

    async def main() -> None:
        await asyncio.gather(*(one(i) for i in range(TASKS)))

    with session:
        asyncio.run(main())

    records = session.records()
    assert len(records) == 2 * TASKS
    for record in records:
        flavor, _, i = record.entry.partition("-")
        assert record.tags["task"] == f"t{i}", \
            f"{record.entry} cross-talked: {record.tags}"
    # No task leaked its overlay into the session default.
    assert session._tags == {}


def test_concurrent_thread_writers_no_lost_records(tmp_path):
    session = TelemetrySession(store=TelemetryStore(tmp_path),
                               label="threads")
    per_thread = 20

    def writer(i: int) -> None:
        with session.tags(writer=f"w{i}"):
            for j in range(per_thread):
                session.record(RunRecord(kind="run", entry=f"w{i}-{j}"))

    with session:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(writer, range(8)))

    records = session.records()
    assert len(records) == 8 * per_thread
    entries = {record.entry for record in records}
    assert len(entries) == 8 * per_thread
    for record in records:
        assert record.entry.startswith(record.tags["writer"] + "-")

    # The shard file itself parses line-by-line: interleaved appends
    # never tore a line.
    (shard,) = tmp_path.glob("shard-*.jsonl")
    entries = [json.loads(line)
               for line in shard.read_text().splitlines() if line]
    assert len(entries) == 8 * per_thread
    assert {entry["status"] for entry in entries} == {"record"}
