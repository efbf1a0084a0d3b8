"""Tests of the benchmark harness itself, on the tiny smoke workloads.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def scratch(name: str) -> Path:
    """An empty directory under the checkout's gitignored work area."""
    path = ROOT / ".perfbench" / "tests" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))


def test_refuses_to_run_without_the_program():
    bare = scratch("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "readme", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _span(name, start, end, parent):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "run_id": "r", "counts": {}}


def test_self_times_and_accounting():
    spans = [_span("cli.main", 0, 100, None), _span("a", 10, 40, 0),
             _span("b", 15, 25, 1), _span("c", 50, 90, 0)]
    assert tracing.self_times(spans) == [30e-9, 20e-9, 10e-9, 40e-9]
    assert tracing.accounting_errors(spans, 100e-9) == []
    overlapping = spans[:3] + [_span("c", 35, 90, 0)]
    assert tracing.accounting_errors(overlapping, 100e-9)
    assert tracing.accounting_errors(spans, 0.5)  # main timed far longer than its span


def test_ledger_flags_a_run_that_disagrees():
    work = scratch("ledger")
    ledger = work / "ledger.json"
    runs = [run.Run(work, work, "r") for _ in range(3)]
    run.check_ledger(runs[0], ledger, "k", {"masks_sha256": "x", "deletion_ratio": 0.1})
    run.check_ledger(runs[1], ledger, "k", {"masks_sha256": "x", "deletion_ratio": 0.1})
    run.check_ledger(runs[2], ledger, "k", {"masks_sha256": "y", "deletion_ratio": 0.1})
    assert [len(r.failures) for r in runs] == [0, 0, 1]
