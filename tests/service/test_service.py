"""End-to-end tests of the in-process compile/simulate service.

Each test gets its own server on an ephemeral port with a private
artifact cache and telemetry store, talking over real sockets through
:class:`~repro.service.client.ServiceClient`.
"""

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import compile_minic
from repro.service import jobs, server
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError
from repro.service.server import CompileService, ServiceConfig

SOURCE = """
int a[64];
int kernel(int n)
{
    int i; int s = 0;
    for (i = 0; i < n; i++) { a[i] = i * 2; s = s + a[i]; }
    return s;
}
"""

OTHER_SOURCE = SOURCE.replace("i * 2", "i * 3")


def make_service(tmp_path, **overrides):
    config = ServiceConfig(
        port=0, name="svc-test",
        cache_root=str(tmp_path / "cache"),
        telemetry_root=str(tmp_path / "telemetry"),
        workers=2, drain_grace=5.0,
        **overrides)
    return CompileService(config).start_in_thread()


@pytest.fixture
def service(tmp_path):
    svc = make_service(tmp_path)
    yield svc
    svc.stop(drain=True)


@pytest.fixture
def client(service):
    return ServiceClient(port=service.port, client_id="pytest")


def test_health_reports_identity(service, client):
    health = client.health()
    assert health["service"] == "svc-test"
    assert health["protocol"] == 1
    assert health["draining"] is False
    assert health["session"] == service.session.session_id
    assert health["stats"]["received"] == 0


def test_compile_miss_then_warm(service, client):
    first = client.compile(SOURCE, "kernel")
    assert first.cache == "miss"
    assert first.key
    assert first.compile["nodes"] > 0
    second = client.compile(SOURCE, "kernel")
    assert second.cache == "warm"
    assert second.key == first.key
    assert service.stats.compiles_executed == 1
    assert service.stats.cache_warm == 1
    assert service.cache.contains(first.key)


def test_simulate_matches_local_pipeline(service, client, tmp_path):
    outcome = client.simulate(SOURCE, "kernel", args=[7])
    local = compile_minic(SOURCE, "kernel").simulate([7])
    assert outcome.value == local.return_value
    assert outcome.result["cycles"] == local.cycles
    assert outcome.result["engine"] == "compiled"
    assert outcome.request_id is not None
    names = [event["event"] for event in outcome.events]
    assert names == ["accepted", "compile", "result", "done"]


@pytest.mark.parametrize("server_engine", [None, "codegen"])
def test_missing_engine_resolves_on_the_server(tmp_path, monkeypatch,
                                               server_engine):
    """A request without an engine runs on the server's engine
    ($REPRO_SIM_ENGINE, else compiled): its row names that engine, and
    it has the simulate key of a request naming the engine outright."""
    if server_engine is None:
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
    else:
        monkeypatch.setenv("REPRO_SIM_ENGINE", server_engine)
    engine = server_engine or "compiled"
    svc = make_service(tmp_path)
    try:
        client = ServiceClient(port=svc.port, client_id="engines")
        implicit = client.simulate(SOURCE, "kernel", args=[5])
        explicit = client.simulate(SOURCE, "kernel", args=[5], engine=engine)
        assert implicit.result["engine"] == engine
        assert explicit.result["engine"] == engine
        # Equal simulate keys: the second request is answered from the
        # first one's stored row.
        assert svc.stats.sims_executed == 1
        assert svc.stats.sim_reused == 1
    finally:
        svc.stop(drain=True)


def test_sequential_repeat_is_answered_from_the_stored_row(service,
                                                           client):
    first = client.simulate(SOURCE, "kernel", args=[7])
    second = client.simulate(SOURCE, "kernel", args=[7])
    assert service.stats.sims_executed == 1
    assert service.stats.sim_reused == 1
    assert "deduped" not in first.result
    assert second.result.pop("deduped") is True
    assert second.result == first.result
    # Provenance: one executed run (the scheduler tags it with its
    # job), and one answered from the stored row.
    runs = [record for record in service.session.records()
            if record.kind == "run"]
    assert len([run for run in runs if "job" in run.tags]) == 1
    assert len([run for run in runs
                if run.tags.get("dedup") == "stored"]) == 1


def test_failed_simulation_is_not_stored(service, client):
    for _ in range(2):
        with pytest.raises(ServiceError):
            client.simulate(SOURCE, "kernel", args=[7], event_limit=0)
    stats = service.stats
    assert stats.failed == 2
    assert stats.sim_reused == stats.sim_deduped == 0


def test_stored_rows_are_bounded(service, client, monkeypatch):
    monkeypatch.setattr(server, "SIM_ROWS_LIMIT", 2)
    for n in (1, 2, 3, 1):
        client.simulate(SOURCE, "kernel", args=[n])
    # The third key pushed the first out, so the first ran again.
    assert service.stats.sims_executed == 4
    assert service.stats.sim_reused == 0
    # Least recently used goes first. The store now holds 3, then 1;
    # the hit on 3 moves it behind 1, so 2 pushes out 1, not 3.
    for n in (3, 2, 3):
        client.simulate(SOURCE, "kernel", args=[n])
    assert service.stats.sims_executed == 5
    assert service.stats.sim_reused == 2
    client.simulate(SOURCE, "kernel", args=[1])
    assert service.stats.sims_executed == 6


def test_repeat_during_the_run_coalesces_onto_it(service, monkeypatch):
    """A request whose key is still simulating awaits that execution.
    The simulation is held until the second request has joined it, so
    the coalescing does not depend on timing."""
    release = threading.Event()
    simulate_row = jobs.simulate_row

    @functools.wraps(simulate_row)
    def held(*args, **kwargs):
        release.wait(timeout=60)
        return simulate_row(*args, **kwargs)

    monkeypatch.setattr(jobs, "simulate_row", held)

    def one(i):
        client = ServiceClient(port=service.port, client_id=f"c{i}")
        return client.simulate(SOURCE, "kernel", args=[7])

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(one, i) for i in range(2)]
        deadline = time.monotonic() + 60
        while service.stats.sim_deduped < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()
        rows = [future.result().result for future in futures]
    stats = service.stats
    assert (stats.sims_executed, stats.sim_deduped,
            stats.sim_reused) == (1, 1, 0)
    assert sorted("deduped" in row for row in rows) == [False, True]
    for row in rows:
        row.pop("deduped", None)
    assert rows[0] == rows[1]
    runs = [record for record in service.session.records()
            if record.kind == "run"]
    assert len([run for run in runs if "job" in run.tags]) == 1
    assert [run.tags.get("dedup") for run in runs
            if "dedup" in run.tags] == ["in-flight"]


def test_concurrent_identical_requests_compile_once(service):
    """The acceptance proof: N identical submissions -> one compile
    execution, demonstrated by provenance, not just counters."""
    N = 12

    def one(i):
        client = ServiceClient(port=service.port, client_id=f"c{i}")
        return client.simulate(SOURCE, "kernel", args=[6], wait=True)

    with ThreadPoolExecutor(max_workers=N) as pool:
        outcomes = list(pool.map(one, range(N)))

    assert len(outcomes) == N
    assert {outcome.value for outcome in outcomes} == {30}
    assert len({outcome.key for outcome in outcomes}) == 1
    # No dropped or duplicated jobs: every submission got its own
    # request id and completed.
    assert len({outcome.request_id for outcome in outcomes}) == N

    stats = service.stats
    assert stats.compiles_executed == 1
    assert stats.cache_warm + stats.compile_deduped == N - 1
    assert stats.sims_executed == 1
    assert stats.sims_executed + stats.sim_deduped + stats.sim_reused == N

    records = service.session.records()
    misses = [record for record in records
              if record.kind == "compile"
              and (record.compilation or {}).get("cache_status") == "miss"]
    assert len(misses) == 1
    # Every request is accounted for in the compile provenance trail.
    compile_requests = {record.tags.get("request") for record in records
                        if record.kind == "compile"}
    assert len(compile_requests) == N
    clients = {record.tags.get("client") for record in records
               if record.kind == "compile"}
    assert clients == {f"c{i}" for i in range(N)}


def test_distinct_requests_all_execute(service):
    def one(n):
        client = ServiceClient(port=service.port, client_id="distinct")
        return client.simulate(SOURCE, "kernel", args=[n], wait=True)

    with ThreadPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(one, [1, 2, 3, 4]))
    # kernel(n) sums 2*i for i < n.
    assert [outcome.value for outcome in outcomes] == [0, 2, 6, 12]
    assert service.stats.compiles_executed == 1
    assert service.stats.sims_executed == 4
    assert service.stats.sim_deduped == 0


def test_engines_dedup_separately(service, client):
    """codegen and compiled submissions are distinct sim identities —
    they dedup within an engine, never across engines — and return
    identical rows (the engines are bit-identical by construction)."""
    codegen = client.simulate(SOURCE, "kernel", args=[7], engine="codegen")
    compiled_run = client.simulate(SOURCE, "kernel", args=[7],
                                   engine="compiled")
    assert service.stats.sims_executed == 2
    assert service.stats.sim_deduped == 0
    assert codegen.result["engine"] == "codegen"
    assert compiled_run.result["engine"] == "compiled"
    stripped = {key: value for key, value in codegen.result.items()
                if key != "engine"}
    assert stripped == {key: value
                        for key, value in compiled_run.result.items()
                        if key != "engine"}

    # Identical concurrent codegen submissions DO dedup, keyed by
    # simulate_key, which includes the engine: one execution, and the
    # rest coalesce onto it in flight or reuse its stored row.
    N = 8

    def one(i):
        peer = ServiceClient(port=service.port, client_id=f"cg{i}")
        return peer.simulate(SOURCE, "kernel", args=[9],
                             engine="codegen", wait=True)

    with ThreadPoolExecutor(max_workers=N) as pool:
        outcomes = list(pool.map(one, range(N)))
    assert {outcome.value for outcome in outcomes} == {72}
    executed_now = service.stats.sims_executed - 2
    assert executed_now == 1
    assert executed_now + service.stats.sim_deduped \
        + service.stats.sim_reused == N


def test_cache_only_probe_never_compiles(service, client):
    probe = client.cache_stat(SOURCE, "kernel")
    assert probe["warm"] is False
    cold = client.compile(SOURCE, "kernel", cache_only=True)
    assert cold.cache == "cold"
    assert service.stats.compiles_executed == 0

    client.compile(SOURCE, "kernel")
    probe = client.cache_stat(SOURCE, "kernel")
    assert probe["warm"] is True
    warm = client.compile(SOURCE, "kernel", cache_only=True)
    assert warm.cache == "warm"
    assert warm.key == probe["key"]
    assert service.stats.compiles_executed == 1


def test_bad_request_is_400(service, client):
    with pytest.raises(ServiceError) as excinfo:
        client.simulate(SOURCE, "kernel", args=["six"])
    assert excinfo.value.status == 400
    # Server-side validation too, not just the client's.
    with pytest.raises(ServiceError) as excinfo:
        client._request_json("POST", "/v1/compile", {"source": SOURCE})
    assert excinfo.value.status == 400
    assert service.stats.completed == 0


def test_unknown_path_is_404(service, client):
    with pytest.raises(ServiceError) as excinfo:
        client._request_json("POST", "/v1/transmogrify", {})
    assert excinfo.value.status == 404


def test_backpressure_429(tmp_path):
    service = make_service(tmp_path / "svc", max_queue=0, record=False)
    try:
        client = ServiceClient(port=service.port)
        with pytest.raises(ServiceError) as excinfo:
            client.compile(SOURCE, "kernel")
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after > 0
        assert service.stats.rejected == 1
        assert service.stats.received == 0
    finally:
        service.stop(drain=False)


def test_drained_shutdown(tmp_path):
    service = make_service(tmp_path / "svc")
    client = ServiceClient(port=service.port)
    client.compile(SOURCE, "kernel")
    reply = client.shutdown(drain=True)
    assert reply["ok"] is True
    # New jobs are refused while draining / once stopped.
    with pytest.raises(ServiceError) as excinfo:
        client.compile(OTHER_SOURCE, "kernel")
    assert excinfo.value.status in (503, None)
    service._thread.join(timeout=10)
    assert not service._thread.is_alive()
    assert service.stats.completed == 1


def test_in_flight_job_survives_drain(tmp_path):
    """A drained shutdown finishes the job that was in flight."""
    service = make_service(tmp_path / "svc")
    client = ServiceClient(port=service.port)
    outcomes = []

    def run():
        outcomes.append(client.simulate(SOURCE, "kernel", args=[5]))

    worker = threading.Thread(target=run)
    worker.start()
    # Wait for admission, then shut down while the job is in flight.
    deadline = time.monotonic() + 10
    while service.stats.received < 1 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert service.stats.received == 1
    ServiceClient(port=service.port).shutdown(drain=True)
    worker.join(timeout=30)
    service._thread.join(timeout=15)
    assert not service._thread.is_alive()
    assert outcomes and outcomes[0].value == 20
