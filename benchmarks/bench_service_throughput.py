"""Service throughput: jobs/sec and latency percentiles under load.

Drives an in-process server (ephemeral port, private cache/telemetry)
with 1, 8, and 64 concurrent clients issuing simulation jobs against
one warm artifact. Every request carries its own ``k`` argument, so no
two share a simulate key and each one executes a simulation: the
ladder measures executed simulations under load, not stored-row reuse.
It then proves the dedup invariant at full concurrency: 64 identical
submissions cost exactly one compile execution, shown by RunRecord
provenance, with zero dropped and zero duplicated jobs.

A final ``/v1/metrics`` scrape must be Prometheus-parseable and its
request counter must equal the jobs the server says it received — the
live metrics path is exercised by the same load the bench measures.
"""

import shutil
import statistics
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.observe.metrics import parse_prometheus, sum_series
from repro.service.client import ServiceClient
from repro.service.server import CompileService, ServiceConfig

from conftest import record_json

SOURCE = """
int a[64];
int kernel(int n, int k)
{
    int i; int s = 0;
    for (i = 0; i < n; i++) { a[i] = i * 2; s = s + a[i]; }
    return s + k;
}
"""

# A distinct program for the dedup proof, so its provenance trail is
# not mixed with the throughput traffic.
DEDUP_SOURCE = SOURCE.replace("kernel", "dedup_kernel")

#: (clients, jobs) per load level.
LEVELS = ((1, 24), (8, 96), (64, 192))


@pytest.fixture(scope="module")
def service():
    tmp = Path(tempfile.mkdtemp(prefix="repro-svc-bench-"))
    config = ServiceConfig(
        port=0, name="svc-bench",
        cache_root=str(tmp / "cache"),
        telemetry_root=str(tmp / "telemetry"),
        drain_grace=15.0)
    svc = CompileService(config).start_in_thread()
    yield svc
    svc.stop(drain=True)
    shutil.rmtree(tmp, ignore_errors=True)


def run_level(service, clients: int, jobs: int, first: int) -> dict:
    """``jobs`` simulations of the warm artifact over ``clients``
    concurrent connections; returns throughput and latency stats.

    Request ``i`` sends ``k = first + i``, a request index global to the
    bench, so none of them repeats a simulate key seen before and every
    one executes a simulation.
    """
    latencies = []
    outcomes = []
    executed_before = service.stats.sims_executed

    def one(index: int):
        n, k = index % 60 + 1, first + index
        client = ServiceClient(port=service.port,
                               client_id=f"bench-{clients}")
        started = time.perf_counter()
        outcome = client.simulate(SOURCE, "kernel", args=[n, k], wait=True)
        return time.perf_counter() - started, n, k, outcome

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        for latency, n, k, outcome in pool.map(one, range(jobs)):
            latencies.append(latency)
            outcomes.append((n, k, outcome))
    elapsed = time.perf_counter() - started

    # Zero dropped: every submission completed with the right answer.
    assert len(outcomes) == jobs
    for n, k, outcome in outcomes:
        assert outcome.value == n * (n - 1) + k, (n, k, outcome.value)
    # Zero duplicated: every job kept its own request identity.
    request_ids = {outcome.request_id for _, _, outcome in outcomes}
    assert len(request_ids) == jobs
    # No stored-row answers: each request ran its own simulation.
    executed = service.stats.sims_executed - executed_before
    assert executed == jobs, f"{executed} simulations for {jobs} jobs"

    centile = statistics.quantiles(latencies, n=100)
    return {
        "clients": clients,
        "jobs": jobs,
        "elapsed_s": round(elapsed, 4),
        "jobs_per_sec": round(jobs / elapsed, 2),
        "p50_ms": round(centile[49] * 1e3, 3),
        "p99_ms": round(centile[98] * 1e3, 3),
        "max_ms": round(max(latencies) * 1e3, 3),
    }


def test_service_throughput(benchmark, service):
    # Warm the artifact once so the levels measure service overhead +
    # simulation, not repeated compilation.
    warmup = ServiceClient(port=service.port, client_id="warmup")
    assert warmup.compile(SOURCE, "kernel").cache == "miss"

    levels = []
    first = 0
    for clients, jobs in LEVELS:
        levels.append(run_level(service, clients, jobs, first))
        first += jobs
    benchmark.pedantic(lambda: run_level(service, 1, 8, first),
                       rounds=1, iterations=1)

    # ------------------------------------------------------------------
    # Dedup proof at full concurrency: 64 identical submissions.
    clients = 64
    before = service.stats.compiles_executed

    def identical(i: int):
        client = ServiceClient(port=service.port, client_id=f"dup-{i}")
        return client.simulate(DEDUP_SOURCE, "dedup_kernel", args=[6, 0],
                               wait=True)

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        outcomes = list(pool.map(identical, range(clients)))
    dedup_elapsed = time.perf_counter() - started

    assert len(outcomes) == clients
    assert {outcome.value for outcome in outcomes} == {30}
    assert len({outcome.request_id for outcome in outcomes}) == clients
    executed = service.stats.compiles_executed - before
    assert executed == 1, f"{executed} compiles for 64 identical jobs"

    # The provenance trail agrees with the counters: exactly one
    # cache_status="miss" record for the dedup kernel.
    records = service.session.records()
    misses = [record for record in records
              if record.kind == "compile" and record.entry == "dedup_kernel"
              and (record.compilation or {}).get("cache_status") == "miss"]
    assert len(misses) == 1
    answered_without_compile = [
        record for record in records
        if record.kind == "compile" and record.entry == "dedup_kernel"
        and (record.compilation or {}).get("cache_status")
        in ("deduped", "warm")]
    assert len(answered_without_compile) == clients - 1

    # ------------------------------------------------------------------
    # Live metrics under load: one scrape, standard exposition format,
    # and the request counter agrees with the server's own accounting.
    text, content_type = warmup.metrics()
    assert content_type.startswith("text/plain")
    assert "version=0.0.4" in content_type
    parsed = parse_prometheus(text)
    scraped_requests = sum_series(parsed, "repro_requests_total")
    assert scraped_requests == service.stats.received, \
        (scraped_requests, service.stats.received)
    assert parsed["repro_request_seconds_count"] == scraped_requests
    assert sum_series(parsed, "repro_requests_failed_total") == 0.0
    assert sum_series(parsed, "repro_requests_in_flight") == 0.0

    stats = service.stats.to_dict()
    payload = {
        "levels": levels,
        "dedup": {
            "clients": clients,
            "elapsed_s": round(dedup_elapsed, 4),
            "compiles_executed": executed,
            "miss_records": len(misses),
            "coalesced_records": len(answered_without_compile),
        },
        "server_stats": stats,
        "metrics_scrape": {
            "requests_total": scraped_requests,
            "request_seconds_count":
                parsed["repro_request_seconds_count"],
        },
    }
    record_json("service_throughput", payload)
    for level in levels:
        print(f"{level['clients']:3d} clients: "
              f"{level['jobs_per_sec']:8.1f} jobs/s  "
              f"p50 {level['p50_ms']:7.2f} ms  "
              f"p99 {level['p99_ms']:7.2f} ms")
    assert stats["failed"] == 0
    assert stats["rejected"] == 0
