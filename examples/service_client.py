"""Drive the compile service end to end, in one process.

Starts an in-process server on an ephemeral port (exactly what
``repro serve`` runs), then walks the client library through the
service's guarantees:

- first compile is a miss, the identical one is answered warm from the
  shared artifact store;
- eight concurrent identical simulations cost one execution: the rest
  coalesce onto it in flight or reuse its stored row (watch
  ``compiles_executed`` and ``sims_executed`` stay at 1);
- the warmth probe never compiles;
- shutdown drains cleanly.

Run with::

    PYTHONPATH=src python examples/service_client.py

The ``__main__`` guard matters: the server's process pool uses a
forkserver context whose workers re-import the main module.
"""

import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.service.client import ServiceClient
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


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-service-demo-") as tmp:
        service = CompileService(ServiceConfig(
            port=0, name="demo-service",
            cache_root=f"{tmp}/cache",
            telemetry_root=f"{tmp}/telemetry")).start_in_thread()
        try:
            client = ServiceClient(port=service.port, client_id="demo")

            print("-- compile: miss, then warm")
            first = client.compile(SOURCE, "kernel")
            print(f"   {first.key[:16]}  cache={first.cache}  "
                  f"{first.compile['wall_time'] * 1e3:.0f} ms")
            again = client.compile(SOURCE, "kernel")
            print(f"   {again.key[:16]}  cache={again.cache}")

            print("-- 8 identical concurrent simulations, one execution")
            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(
                    lambda i: ServiceClient(
                        port=service.port, client_id=f"demo-{i}"
                    ).simulate(SOURCE, "kernel", args=[20], wait=True),
                    range(8)))
            values = {outcome.value for outcome in outcomes}
            stats = client.health()["stats"]
            print(f"   8 results, values={values}, "
                  f"cycles={outcomes[0].result['cycles']}")
            print(f"   compiles_executed={stats['compiles_executed']}  "
                  f"sims_executed={stats['sims_executed']}  "
                  f"sim_deduped={stats['sim_deduped']}  "
                  f"sim_reused={stats['sim_reused']}")

            print("-- warmth probe (never compiles)")
            probe = client.cache_stat(SOURCE, "kernel")
            print(f"   {probe['key'][:16]}  warm={probe['warm']}")

            print("-- provenance: one miss record for all that traffic")
            misses = [record for record in service.session.records()
                      if record.kind == "compile"
                      and (record.compilation or {}).get("cache_status")
                      == "miss"]
            print(f"   cache_status=miss records: {len(misses)}")

            print("-- drained shutdown")
            client.shutdown(drain=True)
        finally:
            service.stop(drain=True)
        print(f"   done: {service.stats.completed} jobs completed, "
              f"{service.stats.failed} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
