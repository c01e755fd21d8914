"""The four end-to-end workloads.

Each workload has the same life cycle, driven by :func:`measure`:

1. ``setup`` runs :data:`SETUP_REPEATS` times, each timed (``setup_s`` is
   their median); ``reset`` undoes one set-up between repeats, untimed.
2. Rounds repeat until at least ``seconds`` of round time have passed.
   A round is a fixed multiset of operations; the seed orders it (and,
   for ``serve-fresh``, picks the program constants), so every seed does
   the same work and throughput compares across seeds. ``prepare``
   builds the next round's inputs untimed; ``run_round`` is timed.
3. ``check`` verifies outputs against references the compiler under
   test did not produce: kernel goldens, the committed Figure 19 rows,
   and closed-form answers.

With a :class:`~spans.SpanRecorder`, ``instrument`` wraps each layer's
public functions for the rounds and ``layers`` turns the workload's own
counters into per-layer metrics, normalised per round.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext, suppress
from pathlib import Path

SETUP_REPEATS = 3
LEVELS = ("none", "medium", "full")
REFERENCE = Path(__file__).resolve().parents[2] / "benchmarks" / "results" \
    / "fig19_speedup.json"


class BenchError(Exception):
    """The benchmark could not run (as opposed to the system answering
    wrongly, which counts as a failed operation)."""


def peak_rss_mb() -> float:
    """Peak resident set size of this process or of the largest child it
    has waited for (a compile service), whichever is larger."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def _report_error(what: str, error: BaseException) -> None:
    detail = "".join(traceback.format_exception_only(type(error), error))
    print(f"e2e: {what} failed: {detail.strip()}", file=sys.stderr)


def fig19_reference() -> dict:
    """(kernel, memsys) -> committed Figure 19 row."""
    with open(REFERENCE) as handle:
        return {(row["kernel"], row["memsys"]): row
                for row in json.load(handle)}


class Workload:
    """Base: no set-up, no checks, one caller."""

    name = ""
    #: Client threads issuing operations at once.
    concurrency = 1
    #: Rounds run even when ``seconds`` has already passed.
    min_rounds = 1

    def __init__(self, seed: int, smoke: bool, state: Path):
        self.rng = random.Random(seed)
        self.state = state
        self.problems: list[str] = []

    def setup(self, index: int) -> None:
        pass

    def reset(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def run_round(self, recorder) -> tuple[list[float], int, int]:
        """One timed round: (latency of each operation in ms,
        operations attempted, operations failed)."""
        raise NotImplementedError

    @contextmanager
    def instrument(self, recorder):
        yield

    def check(self, traced: bool) -> int:
        """Untimed output checks; returns how many were made. Each
        failure appends to ``self.problems``."""
        return 0

    def layers(self, recorder, rounds: int) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# kernel-cold: the compiler alone


#: Driver stage -> layer name.
STAGE_LAYERS = {
    "parse": "frontend.parse", "unroll": "frontend.unroll",
    "lower": "cfg.lower", "inline": "cfg.inline",
    "hyperblocks": "cfg.hyperblocks", "build": "pegasus.build",
    "verify": "pegasus.verify", "optimize": "opt.manager",
}


def pass_layers():
    """(pass class, layer name) for every optimization pass."""
    from repro.opt import passes
    opt = (passes.ConstantFold, passes.Cleanup, passes.ImmutableLoads,
           passes.TokenRemoval, passes.LoadAfterStore,
           passes.StoreBeforeStore, passes.DeadMemOps,
           passes.MergeEquivalent, passes.LoopInvariantLoads)
    return ([(cls, "opt." + cls.name.replace("-", "_")) for cls in opt]
            + [(cls, "looppipe." + cls.name.replace("-", "_"))
               for cls in passes._looppipe_passes()])


def _signature(report) -> tuple:
    """What must not change between two compiles of one program."""
    return (tuple((stage.name, stage.after) for stage in report.stages),
            tuple((record.name, record.changes, record.after)
                  for record in report.passes),
            tuple(sorted(report.counters.items())))


class KernelCold(Workload):
    """Every suite kernel compiled cold at three levels, once per round."""

    name = "kernel-cold"
    #: Two rounds at least, so every program's IR is compared once.
    min_rounds = 2
    WARMUP_KERNEL = "vortex"
    SMOKE_KERNELS = ("vortex", "mpeg2_e")
    GOLDEN_SAMPLE = 6
    SMOKE_GOLDEN_SAMPLE = 2

    def __init__(self, seed, smoke, state):
        super().__init__(seed, smoke, state)
        from repro.programs import all_kernels, get_kernel
        kernels = ([get_kernel(name) for name in self.SMOKE_KERNELS]
                   if smoke else all_kernels())
        self.programs = [(kernel, level) for kernel in kernels
                         for level in LEVELS]
        self.sample = {(kernel.name, level) for kernel, level in
                       self.rng.sample(self.programs,
                                       self.SMOKE_GOLDEN_SAMPLE if smoke
                                       else self.GOLDEN_SAMPLE)}
        self.kept: dict = {}
        self.signatures: dict = {}
        self.changes = self.nodes = 0
        self.order: list = []
        self.drivers = self._drivers()

    @staticmethod
    def _drivers(stages=None):
        from repro.harness.cache import HARNESS_VERIFY
        from repro.pipeline.config import PipelineConfig
        from repro.pipeline.driver import STAGES, CompilerDriver
        return {level: CompilerDriver(
                    PipelineConfig.make(opt_level=level,
                                        verify=HARNESS_VERIFY),
                    stages=stages or STAGES)
                for level in LEVELS}

    def setup(self, index):
        from repro.programs import get_kernel
        kernel = get_kernel(self.WARMUP_KERNEL)
        for driver in self._drivers().values():
            driver.compile(kernel.source, kernel.entry)

    def prepare(self):
        self.order = list(self.programs)
        self.rng.shuffle(self.order)

    def run_round(self, recorder):
        latencies, failed = [], 0
        for kernel, level in self.order:
            started = time.perf_counter()
            try:
                program = self.drivers[level].compile(kernel.source,
                                                      kernel.entry)
            except Exception as error:  # noqa: BLE001 — counted, reported
                _report_error(f"compile {kernel.name}@{level}", error)
                failed += 1
                continue
            latencies.append((time.perf_counter() - started) * 1e3)
            report = program.report
            key = (kernel.name, level)
            signature = _signature(report)
            if self.signatures.setdefault(key, signature) != signature:
                self.problems.append(f"{kernel.name}@{level}: IR snapshots "
                                     f"or pass counters changed between "
                                     f"rounds")
                failed += 1
            self.changes += report.total_changes
            self.nodes += report.final_snapshot.nodes
            if key in self.sample:
                self.kept.setdefault(key, (kernel, program))
        return latencies, len(self.order), failed

    @contextmanager
    def instrument(self, recorder):
        if recorder is None:
            yield
            return
        from repro.opt import passes
        from repro.pegasus import verify
        from repro.pipeline.driver import STAGES, CompilerDriver, Stage
        self.drivers = self._drivers(tuple(
            Stage(stage.name, recorder.wrap(STAGE_LAYERS[stage.name],
                                            stage.run))
            for stage in STAGES))
        recorder.patch(CompilerDriver, "compile", "pipeline.driver")
        recorder.patch(verify, "verify_graph", "pegasus.verify")
        recorder.patch(passes, "verify_graph", "pegasus.verify")
        for cls, layer in pass_layers():
            recorder.patch(cls, "run", layer)
        try:
            yield
        finally:
            recorder.restore()
            self.drivers = self._drivers()

    def check(self, traced):
        for (name, level), (kernel, program) in sorted(self.kept.items()):
            value = program.simulate(list(kernel.args),
                                     engine="codegen").return_value
            if value != kernel.golden:
                self.problems.append(f"{name}@{level}: returned {value}, "
                                     f"golden is {kernel.golden}")
        return len(self.kept)

    def layers(self, recorder, rounds):
        return {"opt.changes": self.changes / rounds,
                "ir.nodes": self.nodes / rounds}


# ----------------------------------------------------------------------
# fig19-sweep: simulator and memory model behind the sweep orchestrator


class _AccessRecorder:
    """Probe-bus listener keeping each memory access with its timing."""

    def __init__(self):
        self.stream: list[tuple] = []

    def on_mem_access(self, now, start, done, addr, width, is_write,
                      level, tlb_miss):
        self.stream.append((now, addr, width, is_write, start, done))


class Fig19Sweep(Workload):
    """Figure 19 over the kernels with committed rows, from warm artifacts."""

    name = "fig19-sweep"
    SMOKE_KERNELS = ("mpeg2_d", "ijpeg")
    SMOKE_MEMSYS = ("realistic-2port",)
    REPLAY_MEMSYS = "realistic-2port"

    def __init__(self, seed, smoke, state):
        super().__init__(seed, smoke, state)
        from repro.harness.fig19 import MEMORY_SYSTEMS
        self.reference = fig19_reference()
        names = {memsys for _, memsys in self.reference}
        self.kernels = sorted({kernel for kernel, _ in self.reference})
        self.systems = [config for config in MEMORY_SYSTEMS
                        if config.name in names]
        if smoke:
            self.kernels = list(self.SMOKE_KERNELS)
            self.systems = [config for config in self.systems
                            if config.name in self.SMOKE_MEMSYS]
        self.runs: list[float] = []
        self.fired = self.cycles = 0
        self.replay: dict[str, float] = {}

    def setup(self, index):
        from repro.harness.cache import clear_memory, compiled
        os.environ["REPRO_CACHE_DIR"] = str(self.state / f"cache{index}")
        clear_memory()
        for kernel in self.kernels:
            for level in LEVELS:
                compiled(kernel, level)

    def prepare(self):
        from repro.harness.cache import clear_memory
        from repro.sim.plan import clear_plan_cache
        self.rng.shuffle(self.kernels)
        self.rng.shuffle(self.systems)
        clear_memory()
        clear_plan_cache()
        self.runs = []

    def run_round(self, recorder):
        from repro.harness import fig19
        from repro.harness.sweep import run_sweep
        with (recorder.span("orchestrate.overhead") if recorder
              else nullcontext()):
            dag = fig19.build_dag(self.kernels, tuple(self.systems))
            sweep = run_sweep(dag, strict=False)
        rows = {(row.name, row.memsys): row
                for row in sweep.value(fig19.AGGREGATE) or []}
        failed = sum(self._row_failures(kernel, config.name,
                                        rows.get((kernel, config.name)))
                     for kernel in self.kernels for config in self.systems)
        return (list(self.runs),
                len(self.kernels) * len(self.systems) * len(LEVELS), failed)

    def _row_failures(self, kernel, memsys, row) -> int:
        """Simulations of one row that failed or disagree with the
        committed reference."""
        expected = self.reference[(kernel, memsys)]
        if row is None:
            self.problems.append(f"{kernel}/{memsys}: row missing")
            return len(LEVELS)
        got = [row.baseline_cycles, row.cycles.get("medium"),
               row.cycles.get("full")]
        want = [expected["baseline_cycles"], expected["cycles"]["medium"],
                expected["cycles"]["full"]]
        wrong = sum(a != b for a, b in zip(got, want))
        if wrong:
            self.problems.append(f"{kernel}/{memsys}: cycles {got}, "
                                 f"reference {want}")
        return wrong

    @contextmanager
    def instrument(self, recorder):
        import repro.api
        from repro.api import CompiledProgram
        original = CompiledProgram.simulate

        def timed(program, *args, **kwargs):
            started = time.perf_counter()
            result = original(program, *args, **kwargs)
            self.runs.append((time.perf_counter() - started) * 1e3)
            self.fired += result.fired
            self.cycles += result.cycles
            return result

        CompiledProgram.simulate = timed
        if recorder is not None:
            from repro.pipeline.cache import CompilationCache
            from repro.pipeline.driver import CompilerDriver
            from repro.sim import codegen
            recorder.patch(CompiledProgram, "simulate", "sim.run")
            recorder.patch(repro.api, "plan_for", "sim.plan")
            recorder.patch(codegen, "generated_for", "sim.codegen")
            recorder.patch(CompilerDriver, "compile", "pipeline.driver")
            recorder.patch(CompilationCache, "get", "pipeline.cache_load")
        try:
            yield
        finally:
            if recorder is not None:
                recorder.restore()
            CompiledProgram.simulate = original

    def check(self, traced):
        return self.replay_memory() if traced else 0

    def replay_memory(self) -> int:
        """Price the memory model by replay.

        Each kernel's full-level cell on the replay memory system is
        simulated once plainly (timed: the ``sim.run_s`` of the same
        cells) and once with a ``mem_access`` listener recording every
        access. The recorded ``(now, addr, width, is_write)`` stream is
        replayed, in order, through a fresh ``MemorySystem.issue``; only
        that loop is timed, and every ``(start, done)`` must equal the
        recorded one.
        """
        from repro.harness.cache import compiled
        from repro.observe.probes import ProbeBus
        from repro.programs import get_kernel
        from repro.sim.memsys import MemorySystem, named_system
        config = named_system(self.REPLAY_MEMSYS)
        run_s = replay_s = 0.0
        accesses = 0
        for name in sorted(self.kernels):
            kernel = get_kernel(name)
            program = compiled(name, "full").program
            started = time.perf_counter()
            program.simulate(list(kernel.args), memsys=MemorySystem(config))
            run_s += time.perf_counter() - started
            bus = ProbeBus()
            recorded = bus.subscribe(_AccessRecorder()).stream
            program.simulate(list(kernel.args), memsys=MemorySystem(config),
                             probes=bus)
            issue = MemorySystem(config).issue
            started = time.perf_counter()
            replayed = [issue(now, addr, width, is_write)
                        for now, addr, width, is_write, _, _ in recorded]
            replay_s += time.perf_counter() - started
            accesses += len(recorded)
            wrong = sum(got != (access[4], access[5])
                        for got, access in zip(replayed, recorded))
            if wrong:
                self.problems.append(f"{name}: {wrong} of {len(recorded)} "
                                     f"replayed accesses differ")
        self.replay = {"memsys.replay_s": replay_s,
                       "memsys.accesses": accesses,
                       "memsys.share": replay_s / run_s}
        return len(self.kernels)

    def layers(self, recorder, rounds):
        counts = recorder.counts()
        return {"sim.runs": counts.get("sim.run", 0) / rounds,
                "sim.plans": counts.get("sim.plan", 0) / rounds,
                "pipeline.cache_loads":
                    counts.get("pipeline.cache_load", 0) / rounds,
                "sim.fired": self.fired / rounds,
                "sim.cycles": self.cycles / rounds,
                **self.replay}


# ----------------------------------------------------------------------
# serve-*: the compile service, driven over HTTP by a closed loop


def zipf_counts(keys: int, total: int, exponent: float) -> list[int]:
    """About ``total`` requests split over ``keys`` popularity ranks by
    Zipf's law (largest remainder; every rank gets at least one)."""
    weights = [rank ** -exponent for rank in range(1, keys + 1)]
    raw = [weight * total / sum(weights) for weight in weights]
    counts = [max(1, int(value)) for value in raw]
    by_remainder = sorted(range(keys), key=lambda i: int(raw[i]) - raw[i])
    for index in by_remainder[:max(0, total - sum(counts))]:
        counts[index] += 1
    return counts


class _Serve(Workload):
    """A ``repro serve`` subprocess with private cache and telemetry,
    loaded by :attr:`concurrency` closed-loop client threads."""

    concurrency = 2
    PER_CLIENT = 0
    SMOKE_PER_CLIENT = 5
    PHASES = ("accept", "compile", "sim", "done")

    def __init__(self, seed, smoke, state):
        super().__init__(seed, smoke, state)
        self.per_client = self.SMOKE_PER_CLIENT if smoke else self.PER_CLIENT
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.queues: list[list] = []
        self.records: list[dict] = []
        self.issued = self.distinct = 0
        self.before: dict = {}
        self.after: dict = {}

    # -- server lifetime ------------------------------------------------

    def setup(self, index):
        root = self.state / f"server{index}"
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--name", self.name, "--workers", str(self.concurrency),
             "--cache-dir", str(root / "cache"),
             "--telemetry-dir", str(root / "telemetry")],
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        ready, _, _ = select.select([self.process.stdout], [], [], 60)
        line = self.process.stdout.readline() if ready else ""
        if "listening on" not in line:
            self.reset()
            raise BenchError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on ")[1].split()[0]
                        .rsplit(":", 1)[1])
        self.warm(self._client("warmup"))

    def warm(self, client) -> None:
        raise NotImplementedError

    def reset(self):
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            from repro.service.protocol import ServiceError
            try:
                self._client("shutdown").shutdown(drain=True)
                process.wait(timeout=30)
            except (ServiceError, subprocess.TimeoutExpired):
                process.kill()
                process.wait()
        # The server's compile pool and fork server live in its session;
        # none may outlive the run, even when the server had to be killed.
        with suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.stdout.close()

    close = reset

    def _client(self, identity: str):
        from repro.service.client import ServiceClient
        return ServiceClient(port=self.port, client_id=f"e2e-{identity}")

    # -- one round --------------------------------------------------------

    def requests(self) -> list[tuple]:
        """This round's ``(payload, expected value, expected cycles)``;
        ``None`` cycles are not checked."""
        raise NotImplementedError

    def prepare(self):
        from repro.service.protocol import JobRequest
        jobs = self.requests()
        self.issued += len(jobs)
        self.distinct += len({(payload["source"], tuple(payload["args"]),
                               payload["memsys"]) for payload, _, _ in jobs})
        self.queues = [
            [(JobRequest.from_payload(dict(payload, client=f"e2e-{lane}"),
                                      "simulate"), value, cycles)
             for payload, value, cycles in jobs[lane::self.concurrency]]
            for lane in range(self.concurrency)]

    def run_round(self, recorder):
        outcomes: list[list[dict]] = [[] for _ in self.queues]
        threads = [threading.Thread(target=self._drive,
                                    args=(queue, outcomes[lane], recorder))
                   for lane, queue in enumerate(self.queues)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done = [record for lane in outcomes for record in lane]
        self.records.extend(done)
        attempted = sum(len(queue) for queue in self.queues)
        return ([record["latency_ms"] for record in done], attempted,
                attempted - len(done))

    def _drive(self, queue, out, recorder) -> None:
        """One closed-loop client: the next request leaves when the
        previous one's stream has ended. Appends a record per correctly
        answered request."""
        from repro.service.protocol import ServiceError
        client = self._client("load")
        for request, value, cycles in queue:
            events, marks = {}, {}
            started = time.perf_counter_ns()
            try:
                for event in client.events(request):
                    events[event.get("event")] = event
                    marks[event.get("event")] = time.perf_counter_ns()
            except (ServiceError, ValueError) as error:
                _report_error(f"request {request.entry}", error)
                continue
            ended = time.perf_counter_ns()
            row = events.get("result", {})
            if "done" not in events or row.get("return_value") != value \
                    or (cycles is not None and row.get("cycles") != cycles):
                self.problems.append(
                    f"{request.entry}/{request.memsys}: events "
                    f"{sorted(events)}, value {row.get('return_value')} in "
                    f"{row.get('cycles')} cycles, expected {value} in "
                    f"{cycles}")
                continue
            points = [started, marks["accepted"], marks["compile"],
                      marks["result"], ended]
            if recorder is not None:
                root = recorder.add("service.request", started, ended,
                                    memsys=request.memsys)
                for index, phase in enumerate(self.PHASES):
                    recorder.add(f"service.{phase}", points[index],
                                 points[index + 1], parent=root)
            compiled = events["compile"]
            out.append({
                "latency_ms": (ended - started) / 1e6,
                "phases_ms": {phase: (points[i + 1] - points[i]) / 1e6
                              for i, phase in enumerate(self.PHASES)},
                "deduped": bool(row.get("deduped")),
                "compile_wall_s": (compiled.get("wall_time", 0.0)
                                   if compiled.get("cache") == "miss"
                                   else 0.0)})

    # -- instrumentation ------------------------------------------------

    def _scrape(self) -> dict:
        from repro.observe.metrics import parse_prometheus, sum_series
        client = self._client("scrape")
        parsed = parse_prometheus(client.metrics()[0])
        return {**client.health()["stats"], "engine_s": sum_series(
            parsed, "repro_simulation_seconds_sum")}

    @contextmanager
    def instrument(self, recorder):
        if recorder is None:
            yield
            return
        self.before = self._scrape()
        yield
        self.after = self._scrape()

    def layers(self, recorder, rounds):
        def delta(key):
            return self.after[key] - self.before[key]

        def p50(phase):
            return statistics.median(record["phases_ms"][phase]
                                     for record in self.records)

        executed = delta("sims_executed")
        engine_s = delta("engine_s")
        leader_sim_ms = sum(record["phases_ms"]["sim"]
                            for record in self.records
                            if not record["deduped"])
        return {
            **{f"service.{phase}_ms": p50(phase) for phase in self.PHASES},
            "service.sim_engine_s": engine_s / rounds,
            "service.sim_overhead_ms":
                (leader_sim_ms - engine_s * 1e3) / max(executed, 1),
            "service.sims_executed": executed / rounds,
            "service.sim_reuse": 1 - executed / self.issued,
            "service.repeat_share": 1 - self.distinct / self.issued,
            "service.compiles_executed": delta("compiles_executed") / rounds,
            "service.compile_batches": delta("compile_batches") / rounds,
            "service.compile_wall_s":
                sum(record["compile_wall_s"] for record in self.records)
                / rounds,
        }


class ServeRepeat(_Serve):
    """Zipf-popular simulate requests over warm artifacts."""

    name = "serve-repeat"
    PER_CLIENT = 50
    KERNELS = ("li", "mesa", "vortex", "ijpeg", "jpeg_d", "mpeg2_d")
    MEMSYS = ("perfect", "realistic-2port", "realistic-4port")
    SMOKE_KERNELS = ("mpeg2_d", "ijpeg")
    SMOKE_MEMSYS = ("realistic-2port",)
    ZIPF_EXPONENT = 1.1

    def __init__(self, seed, smoke, state):
        super().__init__(seed, smoke, state)
        from repro.programs import get_kernel
        reference = fig19_reference()
        self.kernels = [get_kernel(name) for name in
                        (self.SMOKE_KERNELS if smoke else self.KERNELS)]
        # Popularity rank is fixed (memory system major), so the request
        # multiset, and with it the work, is the same for every seed.
        ranked = [(kernel, memsys)
                  for memsys in (self.SMOKE_MEMSYS if smoke else self.MEMSYS)
                  for kernel in self.kernels]
        counts = zipf_counts(len(ranked), self.per_client * self.concurrency,
                             self.ZIPF_EXPONENT)
        self.multiset = [
            ({"source": kernel.source, "entry": kernel.entry,
              "opt_level": "full", "args": list(kernel.args),
              "memsys": memsys},
             kernel.golden,
             reference[(kernel.name, memsys)]["cycles"]["full"])
            for (kernel, memsys), count in zip(ranked, counts)
            for _ in range(count)]

    def warm(self, client):
        for kernel in self.kernels:
            client.compile(kernel.source, kernel.entry, opt_level="full")

    def requests(self):
        jobs = list(self.multiset)
        self.rng.shuffle(jobs)
        return jobs


FRESH_TEMPLATE = """
int fresh(int n)
{
    int i;
    int s = %d;
    for (i = 0; i < n; i++) {
        s = s + 2 * i;
    }
    return s;
}
"""


class ServeFresh(_Serve):
    """Every request a program the service has never seen."""

    name = "serve-fresh"
    PER_CLIENT = 100
    #: Trip counts cycle through 1..MAX_N, so each round simulates the
    #: same total work whatever the seed.
    MAX_N = 40

    def __init__(self, seed, smoke, state):
        super().__init__(seed, smoke, state)
        self.used: set[int] = set()

    @staticmethod
    def _payload(constant: int, n: int) -> dict:
        return {"source": FRESH_TEMPLATE % constant, "entry": "fresh",
                "opt_level": "full", "args": [n], "memsys": "perfect"}

    def warm(self, client):
        # A constant the seeded draws never use: the pool's workers start.
        payload = self._payload(-1, 3)
        client.simulate(payload.pop("source"), payload.pop("entry"),
                        **payload)

    def requests(self):
        jobs = []
        for index in range(self.per_client * self.concurrency):
            constant = self.rng.randrange(1, 1 << 30)
            while constant in self.used:
                constant = self.rng.randrange(1, 1 << 30)
            self.used.add(constant)
            n = 1 + index % self.MAX_N
            jobs.append((self._payload(constant, n), constant + n * (n - 1),
                         None))
        self.rng.shuffle(jobs)
        return jobs


WORKLOADS = {cls.name: cls for cls in
             (KernelCold, Fig19Sweep, ServeRepeat, ServeFresh)}


# ----------------------------------------------------------------------


def measure(workload: Workload, seconds: float, recorder=None) -> dict:
    """Set up, run rounds for at least ``seconds``, check; the raw result.

    With a ``recorder`` the rounds are traced and the result carries the
    per-layer values, normalised per round.
    """
    setups = []
    for index in range(SETUP_REPEATS):
        if index:
            workload.reset()
        started = time.perf_counter()
        workload.setup(index)
        setups.append(time.perf_counter() - started)
    wall = 0.0
    rounds = attempted = failed = 0
    latencies: list[float] = []
    with workload.instrument(recorder):
        while rounds < workload.min_rounds or wall < seconds:
            workload.prepare()
            gc.collect()
            started = time.perf_counter()
            round_latencies, round_attempted, round_failed = \
                workload.run_round(recorder)
            wall += time.perf_counter() - started
            latencies.extend(round_latencies)
            attempted += round_attempted
            failed += round_failed
            rounds += 1
    # Stopping a server waits for it, which adds its peak to this
    # process's RUSAGE_CHILDREN; the checks below must not count.
    workload.close()
    result = {"setup_s": statistics.median(setups), "wall_s": wall,
              "rounds": rounds, "ops": attempted, "latencies_ms": latencies,
              "peak_rss_mb": peak_rss_mb()}
    before = len(workload.problems)
    attempted += workload.check(recorder is not None)
    failed += len(workload.problems) - before
    if recorder is not None:
        self_seconds = recorder.self_seconds()
        layers = {f"{name}_s": total / rounds
                  for name, total in self_seconds.items()
                  if not name.startswith("service.")}
        layers.update(workload.layers(recorder, rounds))
        layers["residual_share"] = 1 - sum(self_seconds.values()) / (
            wall * workload.concurrency)
        result["layers"] = layers
    result.update(attempted=attempted, failed=failed,
                  problems=list(workload.problems))
    return result
