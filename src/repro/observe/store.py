"""Persistent telemetry store: one append-only journal shard per writer.

Every :class:`~repro.observe.telemetry.RunRecord` a
:class:`~repro.observe.telemetry.TelemetrySession` produces lands here,
content-addressed and durable, so any two runs — today's and last
month's, one kernel and a whole figure sweep — can be diffed with
:mod:`repro.observe.diff` long after the processes that made them exited.

Layout (``$REPRO_TELEMETRY_DIR`` or ``.repro/telemetry/`` under the
current directory; no dependencies beyond the standard library)::

    .repro/telemetry/
        shard-<session>-<host>-<pid>.jsonl   # one file per session and process

Each line is a :mod:`repro.orchestrate.journal` entry,
``{"key": run_id, "status": "record", "ts": created_at, "record": payload}``,
and each shard has exactly one writing process, so appends never
interleave and never read anything back. Reads merge every shard through
the journal loader, which stops at a torn tail (a writer killed
mid-append) instead of failing. Records are identified by ``run_id`` —
the SHA-256 of the record's canonical JSON — so identical payloads
count once however many shards hold them. :meth:`gc` is the one
compaction path: it deletes whole shard files by age or recency.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
from pathlib import Path

from repro.errors import ReproError

#: Environment override for the store root.
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"
DEFAULT_ROOT = Path(".repro") / "telemetry"

#: Journal status of a record line.
RECORD_STATUS = "record"


class TelemetryStoreError(ReproError):
    """A malformed store, unknown run id, or ambiguous prefix."""


def content_address(payload: dict) -> str:
    """The run id of a record payload: SHA-256 of its canonical JSON.

    The ``run_id`` key itself is excluded so the address is stable
    whether or not the payload already carries one.
    """
    scrubbed = {k: v for k, v in payload.items() if k != "run_id"}
    canonical = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class TelemetryStore:
    """The on-disk run-record store (see the module docstring)."""

    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            root = os.environ.get(TELEMETRY_DIR_ENV) or DEFAULT_ROOT
        self.root = Path(root)
        self.host = socket.gethostname()
        # Serializes appends from concurrent threads/asyncio tasks of
        # one process: the duplicate check and the append are one
        # atomic step, so lines never interleave and an identical
        # record racing itself is still written exactly once.
        self._append_lock = threading.Lock()
        self._pid: int | None = None
        self._written: set[str] = set()

    # ------------------------------------------------------------------
    # Writing

    def append(self, record) -> str:
        """Persist one record; returns its (content-addressed) run id.

        ``record`` is a :class:`~repro.observe.telemetry.RunRecord` or an
        equivalent payload dict. A record this process already wrote is
        not re-appended (same content, same id).
        """
        from repro.orchestrate.journal import append_entry, shard_path
        payload = record if isinstance(record, dict) else record.to_dict()
        run_id = content_address(payload)
        payload = dict(payload, run_id=run_id)
        if not isinstance(record, dict):
            record.run_id = run_id
        with self._append_lock:
            pid = os.getpid()
            if pid != self._pid:
                # A forked child inherits this object: it starts its own
                # shards and its own duplicate set.
                self._pid, self._written = pid, set()
            if run_id in self._written:
                return run_id
            session = payload.get("session") or "adhoc"
            append_entry(shard_path(self.root, f"{session}-{self.host}-{pid}"),
                         {"key": run_id, "status": RECORD_STATUS,
                          "ts": payload.get("created_at") or 0.0,
                          "record": payload})
            self._written.add(run_id)
        return run_id

    # ------------------------------------------------------------------
    # Reading

    def records(self, *, session: str | None = None,
                kind: str | None = None,
                kernel: str | None = None) -> list:
        """Full records matching the filters, oldest first."""
        from repro.observe.telemetry import RunRecord
        from repro.orchestrate.journal import read_shards
        selected = []
        for key, entry in read_shards(self.root).items():
            if entry.get("status") != RECORD_STATUS:
                continue
            if not isinstance(entry.get("record"), dict):
                raise TelemetryStoreError(
                    f"record line {key!r} in a shard under {self.root} "
                    f"carries no payload")
            record = RunRecord.from_dict(dict(entry["record"], run_id=key))
            if session is not None and record.session != session:
                continue
            if kind is not None and record.kind != kind:
                continue
            if kernel is not None and record.tags.get("kernel") != kernel:
                continue
            selected.append(record)
        selected.sort(key=lambda record: record.created_at)
        return selected

    def index(self) -> list[dict]:
        """One summary per record, oldest first ([] for a fresh store)."""
        return [{"run_id": record.run_id, "kind": record.kind,
                 "session": record.session, "kernel": record.kernel,
                 "opt_level": record.opt_level, "engine": record.engine,
                 "memsys": record.memsys, "cycles": record.cycles,
                 "created_at": record.created_at}
                for record in self.records()]

    def get(self, run_id: str):
        """The full record for a run id (unique prefixes accepted)."""
        matches = [record for record in self.records()
                   if record.run_id.startswith(run_id)]
        exact = [record for record in matches if record.run_id == run_id]
        if exact:
            return exact[0]
        if not matches:
            raise TelemetryStoreError(f"no run {run_id!r} in {self.root}")
        if len(matches) > 1:
            raise TelemetryStoreError(
                f"run id prefix {run_id!r} is ambiguous "
                f"({len(matches)} matches)")
        return matches[0]

    def sessions(self) -> dict[str, int]:
        """session id -> record count, oldest session first."""
        counts: dict[str, int] = {}
        for record in self.records():
            session = record.session or "-"
            counts[session] = counts.get(session, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Compaction

    def gc(self, *, keep_sessions: int | None = None,
           max_age_days: float | None = None,
           now: float | None = None,
           dry_run: bool = False) -> list[str]:
        """Delete whole shard files.

        A shard survives if any of its records is newer than the age
        cutoff or belongs to one of the ``keep_sessions`` most recent
        sessions. Returns the names of the shards removed (or, with
        ``dry_run``, the ones that would be).
        """
        from repro.orchestrate.journal import SHARD_GLOB, Journal
        if keep_sessions is None and max_age_days is None:
            return []
        now = time.time() if now is None else now
        recent_sessions: set[str] = set()
        if keep_sessions is not None:
            newest_first = dict.fromkeys(
                record.session or "-" for record in reversed(self.records()))
            recent_sessions = set(list(newest_first)[:keep_sessions])
        doomed = []
        for path in sorted(self.root.glob(SHARD_GLOB)):
            payloads = [entry["record"]
                        for entry in Journal(path).statuses().values()
                        if entry.get("status") == RECORD_STATUS
                        and isinstance(entry.get("record"), dict)]
            keep = any(
                (payload.get("session") or "-") in recent_sessions
                or (max_age_days is not None
                    and (now - (payload.get("created_at") or 0)) / 86400.0
                    <= max_age_days)
                for payload in payloads)
            if not keep:
                doomed.append(path)
        if not dry_run:
            for path in doomed:
                path.unlink(missing_ok=True)
        return [path.name for path in doomed]
