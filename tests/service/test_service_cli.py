"""The service through its real process boundary: ``repro serve`` as a
subprocess, driven by ``repro submit`` / ``repro cache stat`` and the
client library — including the ungraceful death the stream contract is
designed to surface cleanly."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError

SRC = str(Path(__file__).resolve().parents[2] / "src")

SOURCE = """
int a[64];
int kernel(int n)
{
    int i; int s = 0;
    for (i = 0; i < n; i++) { a[i] = i * 2; s = s + a[i]; }
    return s;
}
"""

# Pure-arithmetic spin loop: long-running for large n, no memory
# traffic, so a mid-simulation kill test has seconds of runway.
SPIN_SOURCE = """
int spin(int n)
{
    int i; int s = 0;
    for (i = 0; i < n; i++) { s = s + i; }
    return s;
}
"""


def start_server(tmp_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(tmp_path / "cache"),
         "--telemetry-dir", str(tmp_path / "telemetry"),
         "--drain-grace", "10", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True)
    line = proc.stdout.readline()
    assert "listening on" in line, line
    port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, port


def live_group_members(pgid: int) -> list[int]:
    """Pids of process group ``pgid`` that are not zombies."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        state, _, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry.name))
    return members


def run_cli(tmp_path, *argv, timeout=180):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(SOURCE)
    return str(path)


def test_serve_submit_cache_roundtrip(tmp_path, source_file):
    proc, port = start_server(tmp_path)
    try:
        submit = run_cli(tmp_path, "submit", source_file,
                         "--entry", "kernel", "--args", "6",
                         "--port", str(port), "--client", "cli-test")
        assert submit.returncode == 0, submit.stdout + submit.stderr
        assert "result  : 30" in submit.stdout
        assert "cache=miss" in submit.stdout

        # Same job again: answered from the shared artifact store.
        again = run_cli(tmp_path, "submit", source_file,
                        "--entry", "kernel", "--args", "6",
                        "--port", str(port), "--json")
        assert again.returncode == 0
        events = [json.loads(line)
                  for line in again.stdout.splitlines() if line.strip()]
        assert [event["event"] for event in events] == \
            ["accepted", "compile", "result", "done"]
        assert events[1]["cache"] == "warm"

        # Remote warmth probe (exit 0 = warm).
        stat = run_cli(tmp_path, "cache", "stat", source_file,
                       "--entry", "kernel", "--host", "127.0.0.1",
                       "--port", str(port))
        assert stat.returncode == 0, stat.stdout + stat.stderr
        assert "WARM" in stat.stdout

        # Local probe against the same store, JSON form.
        local = run_cli(tmp_path, "cache", "stat", source_file,
                        "--entry", "kernel",
                        "--cache-dir", str(tmp_path / "cache"), "--json")
        assert local.returncode == 0
        payload = json.loads(local.stdout)
        assert payload["probe"]["warm"] is True
        assert payload["entries"] >= 1
        assert payload["stale_tmp"] == 0

        # A cold probe exits 1 without compiling anything.
        other = tmp_path / "other.c"
        other.write_text(SOURCE.replace("i * 2", "i * 5"))
        cold = run_cli(tmp_path, "cache", "stat", str(other),
                       "--entry", "kernel",
                       "--cache-dir", str(tmp_path / "cache"))
        assert cold.returncode == 1
        assert "cold" in cold.stdout

        ServiceClient(port=port).shutdown(drain=True)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "drained" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_sigterm_drains_and_exits_zero(tmp_path, source_file):
    proc, port = start_server(tmp_path)
    try:
        submit = run_cli(tmp_path, "submit", source_file,
                         "--entry", "kernel", "--port", str(port))
        assert submit.returncode == 0
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "drained" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_killed_server_yields_clean_client_error(tmp_path):
    proc, port = start_server(tmp_path)
    try:
        client = ServiceClient(port=port, timeout=60)
        spin = client.compile(SPIN_SOURCE, "spin")
        assert spin.cache == "miss"
        # A simulation with seconds of runway; SIGKILL the server while
        # its stream is open. The client must fail with a clean
        # ServiceError, not a hang or a half-parsed mystery.
        killer = threading.Timer(1.0, proc.kill)
        killer.start()
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(SPIN_SOURCE, "spin", args=[500_000_000],
                            event_limit=10**15)
        killer.cancel()
        message = str(excinfo.value)
        assert ("ended before the job completed" in message
                or "failed mid-stream" in message), message
        # wait(), not communicate(): the SIGKILLed server's pool/
        # forkserver children inherited its stdout pipe, so waiting for
        # pipe EOF could outlive the server process itself.
        assert proc.wait(timeout=10) != 0
        # Nothing the server started may outlive it: its compile-pool
        # workers, the forkserver and the resource tracker all exit.
        deadline = time.monotonic() + 10
        while live_group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.2)
        assert live_group_members(proc.pid) == []
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
