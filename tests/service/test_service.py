"""End-to-end tests of the in-process compile/simulate service.

Each test gets its own server on an ephemeral port with a private
artifact cache and telemetry store, talking over real sockets through
:class:`~repro.service.client.ServiceClient`.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import compile_minic
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
        # The scheduler names each simulation job after its simulate key.
        jobs = [record.tags["job"] for record in svc.session.records()
                if record.kind == "run"]
        assert len(jobs) == 2 and jobs[0] == jobs[1], jobs
    finally:
        svc.stop(drain=True)


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
    assert stats.sims_executed >= 1
    assert stats.sims_executed + stats.sim_deduped == N

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

    # Identical concurrent codegen submissions DO dedup (in-flight
    # collapse keyed by simulate_key, which includes the engine).
    N = 8

    def one(i):
        peer = ServiceClient(port=service.port, client_id=f"cg{i}")
        return peer.simulate(SOURCE, "kernel", args=[9],
                             engine="codegen", wait=True)

    with ThreadPoolExecutor(max_workers=N) as pool:
        outcomes = list(pool.map(one, range(N)))
    assert {outcome.value for outcome in outcomes} == {72}
    executed_now = service.stats.sims_executed - 2
    assert executed_now + service.stats.sim_deduped == N
    assert service.stats.sim_deduped >= 1


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
