"""Smoke test of the benchmark harness on the smallest inputs.

Runs every workload for about half a second per mode and checks that each
metric BENCHMARK.json names is printed with its unit, that the outputs
pass their checks, and that the deterministic counters repeat across
processes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--smoke", "--seconds", "0.5", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _result(workload, trace):
    path = ROOT / ".bench_out" / f"result-{workload}-seed1-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, kind):
    proc = _bench("--workload", "all", "--seed", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["attempted"] >= len(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for metric in run.SPEC[kind]:
            emitted = final["metrics"][f"{workload}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"], (workload, metric)
            assert isinstance(emitted["value"], (int, float))
    if trace == 0:
        for name in ("failed_frac", "success_frac"):
            assert any(line.split()[:1] == [name] for line in proc.stdout.splitlines())


def test_counters_repeat_across_processes():
    counters = []
    for _ in range(2):
        proc = _bench("--workload", "lattice_hnp", "--seed", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        counters.append(_result("lattice_hnp", 1)["record"]["counters_per_op"][0])
    assert counters[0] == counters[1]
    assert counters[0]["recover.lattice_dim"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "attack_p521", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _ops(n, failed=0, success=True):
    return [
        {"failed": i < failed, "wrong": False, "success": None if i < failed else success}
        for i in range(n)
    ]


def test_run_is_incorrect_without_recovered_keys():
    assert run.problems("lattice_hnp", _ops(30), []) == []
    assert run.problems("lattice_hnp", _ops(30, success=False), [])
    assert run.problems("attack_p521", _ops(10, success=False), [])
    assert run.problems("curve_roundtrip", _ops(10, success=None), []) == []


def test_run_is_incorrect_when_many_ops_fail():
    assert run.problems("attack_p521", _ops(10, failed=1), []) == []
    assert run.problems("attack_p521", _ops(10, failed=3), [])
    wrong = _ops(30)
    wrong[0]["wrong"] = True
    assert run.problems("lattice_hnp", wrong, [])
