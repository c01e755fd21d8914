"""End-to-end benchmark: compile, sweep and serve, timed whole and by layer.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload kernel-cold --seed 1
    python3 benchmarks/e2e/run.py --workload fig19-sweep --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --repeat 5            # every workload
    python3 benchmarks/e2e/run.py --smoke --seconds 1   # seconds, not minutes

With one ``--workload`` and no ``--repeat`` the workload runs in this
process and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 198, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics instead, from a run whose
layers are wrapped in spans (written as Perfetto JSON under
``.e2e/traces/``), after an untraced child run of the same workload and
seed that gives ``trace_overhead``.

With several workloads (the default is all) or ``--repeat``, every run
happens in a fresh child process, so no run warms or burdens the next,
and the per-metric median, quartiles and spreads are printed against
each metric's bound.

Exit status: 0 when every output was correct, 1 when some output was
wrong (the result line says which count failed), 2 when the benchmark
could not run at all; then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
STATE = ROOT / ".e2e"


def fail(message: str) -> None:
    print(f"e2e: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")


def prepare_environment(state: Path) -> None:
    """Keep every file the system writes inside ``state``, and give child
    processes the package and no inherited ``REPRO_*`` settings."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ.update(
        PYTHONPATH=str(SRC), TMPDIR=str(tmp),
        REPRO_CACHE_DIR=str(state / "cache"),
        REPRO_TELEMETRY_DIR=str(state / "telemetry"),
        REPRO_TRACE_DIR=str(state / "traces"))


def child_command(workload: str, seed: int, seconds: float, trace: int,
                  smoke: bool) -> list[str]:
    return ([sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)]
            + (["--smoke"] if smoke else []))


def run_child(command: list[str]) -> dict:
    """Run one child benchmark; its result line, or a BenchError."""
    from workloads import BenchError
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=900)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode not in (0, 1) or not lines:
        raise BenchError(f"{' '.join(command[2:])} exited "
                         f"{completed.returncode} without a result")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# One workload, in this process


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of every order statistic, the i-th (of n) weighted by
    the Beta((n+1)q, (n+1)(1-q)) mass on [(i-1)/n, i/n]. Where operation
    costs fall into clusters (Figure 19's per-simulation times do), the
    sample median jumps across the gap between two clusters from one run
    to the next; this estimate moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_scale = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8  # midpoint rule inside each order statistic's interval
    weights = [
        sum(math.exp(log_scale + (a - 1) * math.log(t)
                     + (b - 1) * math.log1p(-t))
            for t in ((i + (k + 0.5) / steps) / n for k in range(steps)))
        for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def end_to_end(raw: dict) -> dict[str, float]:
    latencies = raw["latencies_ms"]
    return {
        "setup_s": raw["setup_s"],
        "ops_per_s": raw["ops"] / raw["wall_s"],
        "latency_ms.p50": quantile(latencies, 0.5),
        "latency_ms.p90": quantile(latencies, 0.9),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def run_one(spec: dict, options) -> int:
    from spans import SpanRecorder
    from workloads import WORKLOADS, measure
    from repro.observe.export import validate_trace_events

    trace = bool(options.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    untraced = None
    if trace:
        untraced = run_child(child_command(
            options.workload[0], options.seed, options.seconds, 0,
            options.smoke))
    state = STATE / f"run-{os.getpid()}"
    prepare_environment(state)
    try:
        workload = WORKLOADS[options.workload[0]](options.seed,
                                                  options.smoke, state)
        recorder = SpanRecorder() if trace else None
        try:
            raw = measure(workload, options.seconds, recorder)
        finally:
            workload.close()
    finally:
        shutil.rmtree(state, ignore_errors=True)
    failed, attempted = raw["failed"], raw["attempted"]
    problems = raw["problems"]
    if trace:
        ops_per_s = raw["ops"] / raw["wall_s"]
        values = {metric["name"]: 0.0 for metric in wanted}
        values.update(raw["layers"])
        values["trace_overhead"] = (
            untraced["metrics"]["ops_per_s"]["value"] / ops_per_s)
        path = STATE / "traces" / f"{workload.name}-seed{options.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        trace_problems = validate_trace_events(recorder.write_perfetto(path))
        print(f"trace: {path} ({len(recorder.spans)} spans)",
              file=sys.stderr)
        problems += [f"trace: {problem}" for problem in trace_problems]
        if not untraced["correct"]:
            problems.append("the untraced run answered wrongly")
        attempted += 2
        failed += bool(trace_problems) + (not untraced["correct"])
    else:
        values = end_to_end(raw)
    unknown = set(values) - {metric["name"] for metric in wanted}
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    print(f"{workload.name} seed={options.seed} rounds={raw['rounds']} "
          f"ops={raw['ops']} wall={raw['wall_s']:.2f}s "
          f"{'traced' if trace else 'untraced'}")
    for metric in wanted:
        print(f"  {metric['name']:28s} {values[metric['name']]:14.6f} "
              f"{metric['unit']}")
    if not trace:
        print(f"  latency samples: {len(raw['latencies_ms'])}")
    for problem in problems[:20]:
        print(f"e2e: wrong output: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in wanted}}))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# Several workloads or repeats, one child process each


def spread_table(spec: dict, name: str, results: list[dict],
                 trace: bool) -> list[str]:
    """Per metric: median, quartiles, and two spreads relative to the
    median — interquartile and max/min — beside the metric's bound."""
    lines = [f"{name}: {len(results)} run(s)",
             f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
             f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}"]
    for metric in spec["per_layer" if trace else "end_to_end"]:
        values = [result["metrics"][metric["name"]]["value"]
                  for result in results]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        scale = abs(median) or 1.0
        bound = metric.get("bound")
        iqr = (q3 - q1) / scale
        flag = "  OVER" if bound is not None and iqr > bound else ""
        lines.append(
            f"  {metric['name']:28s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
            f"{iqr:8.3f} {(max(values) - min(values)) / scale:9.3f} "
            f"{'' if bound is None else bound:>6}{flag}")
    return lines


def run_many(spec: dict, options) -> int:
    summary: dict[str, dict] = {}
    attempted = failed = 0
    for name in options.workload:
        results = []
        for offset in range(options.repeat):
            seed = options.seed + offset
            result = run_child(child_command(
                name, seed, options.seconds, options.trace, options.smoke))
            print(f"{name} seed={seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{metric}={entry['value']:.4g}"
                      for metric, entry in result["metrics"].items()),
                  flush=True)
            attempted += result["attempted"]
            failed += result["failed"]
            results.append(result)
        print("\n".join(spread_table(spec, name, results,
                                     bool(options.trace))), flush=True)
        for metric, entry in results[0]["metrics"].items():
            summary[f"{name}/{metric}"] = {
                "value": statistics.median(
                    result["metrics"][metric]["value"]
                    for result in results),
                "unit": entry["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"the package is not at {SRC}; run from a full checkout")
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed for the generated inputs (default 1)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="least round time measured per run "
                             f"(default {spec['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1, each "
                             "in a fresh process")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to a few operations")
    options = parser.parse_args(argv)
    options.workload = options.workload or names
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import BenchError
    try:
        if len(options.workload) == 1 and options.repeat == 1:
            return run_one(spec, options)
        return run_many(spec, options)
    except (BenchError, subprocess.TimeoutExpired) as error:
        fail(str(error))


if __name__ == "__main__":
    sys.exit(main())
