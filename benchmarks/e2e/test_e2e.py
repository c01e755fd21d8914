"""Self-tests of the end-to-end benchmark (about a minute in all).

Run from the repository root::

    python3 -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
RUN = Path("benchmarks") / "e2e" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(root: Path, *args: str) -> tuple[int, str]:
    completed = subprocess.run(
        [sys.executable, str(RUN), "--seed", "3", "--seconds", "0.5",
         *args], cwd=root, stdout=subprocess.PIPE, text=True, timeout=300)
    return completed.returncode, completed.stdout


def result_line(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    from repro.observe.export import validate_trace_events

    code, stdout = bench(ROOT, "--workload", workload, "--smoke",
                         "--trace", str(trace))
    result = result_line(stdout)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        metric["name"]: {"value": result["metrics"][metric["name"]]["value"],
                         "unit": metric["unit"]}
        for metric in wanted}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace:
        path = ROOT / ".e2e" / "traces" / f"{workload}-seed3.json"
        assert validate_trace_events(json.loads(path.read_text())) == []
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def copy_checkout(target: Path) -> Path:
    """The files a checkout of the repository holds that the benchmark
    reads: the package, the benchmark and the Figure 19 reference."""
    ignore = shutil.ignore_patterns("__pycache__", ".e2e")
    shutil.copytree(ROOT / "src", target / "src", ignore=ignore)
    shutil.copytree(ROOT / "benchmarks" / "e2e",
                    target / "benchmarks" / "e2e", ignore=ignore)
    (target / "benchmarks" / "results").mkdir()
    shutil.copy(ROOT / "benchmarks" / "results" / "fig19_speedup.json",
                target / "benchmarks" / "results")
    shutil.copy(ROOT / "BENCHMARK.json", target)
    return target


def test_a_doctored_reference_fails_the_run(tmp_path):
    checkout = copy_checkout(tmp_path)
    reference = checkout / "benchmarks" / "results" / "fig19_speedup.json"
    rows = json.loads(reference.read_text())
    for row in rows:
        if (row["kernel"], row["memsys"]) == ("mpeg2_d", "realistic-2port"):
            row["cycles"]["full"] += 1
    reference.write_text(json.dumps(rows))

    code, stdout = bench(checkout, "--workload", "fig19-sweep", "--smoke")

    result = result_line(stdout)
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def test_without_the_package_it_exits_nonzero_and_prints_no_result(
        tmp_path):
    checkout = copy_checkout(tmp_path)
    shutil.rmtree(checkout / "src")
    shutil.rmtree(checkout / "benchmarks" / "results")

    code, stdout = bench(checkout, "--workload", "kernel-cold")

    assert code not in (0, 1)
    assert stdout == ""
