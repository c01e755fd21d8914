"""CI smoke for the compile service (`.github/workflows/ci.yml`,
``service-smoke`` job).

Four acts against a real ``repro serve`` subprocess:

1. 16 concurrent mixed requests — half identical — all succeed, the
   telemetry provenance proves the identical half cost exactly one
   compile execution (one ``cache_status="miss"`` record), and a
   ``/v1/metrics`` scrape shows live dedup and batch counters agreeing;
2. one of those requests sent again is answered from its stored row:
   the same row, no new simulation, and the reuse visible on
   ``/v1/health``, ``/v1/metrics`` and in the telemetry store;
3. a drained shutdown exits 0 after finishing in-flight work;
4. a second server is SIGKILLed mid-request and the client surfaces a
   clean ServiceError instead of hanging or mis-parsing.

Import-safe on purpose: the server's process pool uses a forkserver
context, whose workers re-import the main module.
"""

import os
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.observe.metrics import parse_prometheus, sum_series  # noqa: E402
from repro.observe.store import TelemetryStore            # noqa: E402
from repro.service.client import ServiceClient            # noqa: E402
from repro.service.protocol import ServiceError           # noqa: E402

SOURCE = """
int a[64];
int kernel(int n)
{
    int i; int s = 0;
    for (i = 0; i < n; i++) { a[i] = i * 2; s = s + a[i]; }
    return s;
}
"""

OTHER_SOURCE = SOURCE.replace("i * 2", "i * 3").replace("kernel", "other")

SPIN_SOURCE = """
int spin(int n)
{
    int i; int s = 0;
    for (i = 0; i < n; i++) { s = s + i; }
    return s;
}
"""


def start_server(root: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(root / "cache"),
         "--telemetry-dir", str(root / "telemetry"),
         "--drain-grace", "15"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    line = proc.stdout.readline()
    assert "listening on" in line, f"server did not start: {line!r}"
    port = int(line.split("listening on", 1)[1]
               .split()[0].rsplit(":", 1)[1])
    print(f"server up on port {port}")
    return proc, port


def mixed_load_with_dedup(root: Path, port: int) -> list:
    """16 concurrent requests, 8 identical + 8 distinct; prove dedup.
    Returns the outcomes."""

    def one(i: int):
        client = ServiceClient(port=port, client_id=f"smoke-{i}")
        if i < 8:   # the identical half
            return client.simulate(SOURCE, "kernel", args=[6], wait=True)
        return client.simulate(OTHER_SOURCE, "other", args=[i - 4],
                               wait=True)

    with ThreadPoolExecutor(max_workers=16) as pool:
        outcomes = list(pool.map(one, range(16)))

    assert len(outcomes) == 16
    identical = outcomes[:8]
    assert {o.value for o in identical} == {30}, identical
    assert len({o.request_id for o in outcomes}) == 16, \
        "request ids must be unique (no duplicated jobs)"
    for i, outcome in enumerate(outcomes[8:], start=8):
        n = i - 4
        assert outcome.value == 3 * n * (n - 1) // 2, (n, outcome.value)

    # Provenance: the identical half cost exactly one compile.
    store = TelemetryStore(root / "telemetry")
    records = store.records()
    misses = [r for r in records
              if r.kind == "compile" and r.entry == "kernel"
              and (r.compilation or {}).get("cache_status") == "miss"]
    assert len(misses) == 1, \
        f"{len(misses)} miss records for 8 identical submissions"
    coalesced = [r for r in records
                 if r.kind == "compile" and r.entry == "kernel"
                 and (r.compilation or {}).get("cache_status")
                 in ("deduped", "warm")]
    assert len(coalesced) == 7, f"{len(coalesced)} coalesced records"
    health = ServiceClient(port=port).health()
    assert health["stats"]["failed"] == 0
    assert health["stats"]["compiles_executed"] == 2  # kernel + other

    # The live metrics endpoint must agree with the provenance trail.
    text, content_type = ServiceClient(port=port).metrics()
    assert content_type.startswith("text/plain"), content_type
    assert "version=0.0.4" in content_type, content_type
    parsed = parse_prometheus(text)
    # Only jobs count as requests; health and metrics scrapes do not.
    assert sum_series(parsed, "repro_requests_total") == 16
    dedup = sum_series(parsed, "repro_compile_dedup_total")
    assert dedup > 0, "no dedup counted on /v1/metrics"
    batches = sum_series(parsed, "repro_compile_batches_total")
    assert batches > 0, "no compile batches counted on /v1/metrics"
    assert sum_series(parsed, "repro_compiles_executed_total") == 2
    print("mixed load ok: 16/16 completed, dedup proven "
          f"(1 miss, {len(coalesced)} coalesced), metrics scrape ok "
          f"(dedup={dedup:g}, batches={batches:g})")
    return outcomes


def repeat_from_stored_row(root: Path, port: int, earlier) -> None:
    """Send an answered request again: it must come back from the
    stored row without a new simulation."""
    client = ServiceClient(port=port, client_id="smoke-repeat")
    executed = client.health()["stats"]["sims_executed"]
    outcome = client.simulate(OTHER_SOURCE, "other", args=[4])
    row = dict(outcome.result)
    assert row.pop("deduped") is True, outcome.result
    earlier_row = dict(earlier.result)
    earlier_row.pop("deduped", None)
    assert row == earlier_row, (row, earlier_row)
    stats = client.health()["stats"]
    assert stats["sims_executed"] == executed, (stats, executed)
    assert stats["sim_reused"] >= 1, stats
    reused = sum_series(parse_prometheus(client.metrics()[0]),
                        "repro_sim_reuse_total")
    assert reused >= 1, "no reuse counted on /v1/metrics"
    stored = [r for r in TelemetryStore(root / "telemetry").records()
              if r.tags.get("request") == outcome.request_id
              and r.tags.get("dedup") == "stored"]
    assert len(stored) == 1, f"{len(stored)} dedup=stored records"
    print(f"repeat ok: answered from the stored row, sims_executed "
          f"still {executed}, sim_reused={stats['sim_reused']}")


def drained_shutdown(proc, port: int) -> None:
    reply = ServiceClient(port=port).shutdown(drain=True)
    assert reply["ok"] is True
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0, \
        f"drained shutdown exited {proc.returncode}:\n{out}"
    assert "drained" in out
    print("drained shutdown ok: exit 0")


def kill_mid_request(root: Path) -> None:
    proc, port = start_server(root)
    try:
        client = ServiceClient(port=port, timeout=60)
        client.compile(SPIN_SOURCE, "spin")
        killer = threading.Timer(1.0, proc.kill)
        killer.start()
        try:
            client.simulate(SPIN_SOURCE, "spin", args=[500_000_000],
                            event_limit=10**15)
        except ServiceError as error:
            message = str(error)
            assert ("ended before the job completed" in message
                    or "failed mid-stream" in message), message
            print(f"kill mid-request ok: clean client error ({message})")
        else:
            raise AssertionError("client reported success from a "
                                 "SIGKILLed server")
        finally:
            killer.cancel()
        assert proc.wait(timeout=15) != 0
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=15)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="svc-smoke-") as tmp:
        root = Path(tmp)
        proc, port = start_server(root)
        try:
            outcomes = mixed_load_with_dedup(root, port)
            # outcomes[8] answered OTHER_SOURCE with args=[4].
            repeat_from_stored_row(root, port, outcomes[8])
            drained_shutdown(proc, port)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)
        kill_mid_request(root / "second")
    print("service smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
