"""Smoke tests of the benchmark: tiny inputs, the full output schema and the gate.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # A stray seed in the environment must not reach haloflow: the golden
    # fingerprints of seed 0 would no longer match.
    env = dict(os.environ, HALOFLOW_SEED="12345")
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0.5",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] > 0.9


@pytest.fixture()
def haloflow_modules():
    sys.path.insert(0, str(HERE))
    import run

    run.import_haloflow()
    import workloads

    return run, workloads


def test_gate_fails_every_repetition_on_a_wrong_golden(haloflow_modules):
    run, workloads = haloflow_modules
    wl = workloads.WORKLOADS["halo_steps"]("smoke", 0, ROOT)
    r = run.Run(wl, {"checksums_sha256": "0" * 64})
    r.repeat(0.2, trace=False)
    assert r.attempted >= 1
    assert r.failed == r.attempted


def test_a_repetition_that_raises_is_counted_and_the_run_goes_on(haloflow_modules):
    run, workloads = haloflow_modules
    wl = workloads.WORKLOADS["halo_steps"]("smoke", 0, ROOT)
    real_run = wl.run
    calls = []

    def run_failing_second(inputs, tr):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return real_run(inputs, tr)

    wl.run = run_failing_second
    r = run.Run(wl)
    r.repeat(0.3, trace=False)
    assert r.attempted == len(calls) >= 3
    assert r.failed == 1
    assert len(r.plain) == r.attempted - 1


def test_a_run_in_which_every_repetition_raises_stops(haloflow_modules):
    run, workloads = haloflow_modules
    wl = workloads.WORKLOADS["halo_steps"]("smoke", 0, ROOT)

    def always_fails(inputs, tr):
        raise RuntimeError("injected")

    wl.run = always_fails
    r = run.Run(wl)
    r.repeat(0.0, trace=True)
    assert r.attempted == r.failed == run.MAX_FAILED_IN_A_ROW
    assert not r.complete(trace=True)


def test_halo_checksums_are_checked_against_one_rank(haloflow_modules):
    _run, workloads = haloflow_modules
    wl = workloads.WORKLOADS["halo_steps"]("smoke", 0, ROOT)
    from spans import NULL

    inputs = wl.setup(NULL)
    outcome = wl.run(inputs, NULL)
    assert wl.check(inputs, outcome)[1] == []
    wl._reference = [c + 1.0 for c in wl._reference]
    assert wl.check(inputs, outcome)[1] == ["checksums differ from the one-rank run"]


def test_direct_flows_below_their_latency_bandwidth_bound_are_caught(haloflow_modules):
    _run, workloads = haloflow_modules
    wl = workloads.WORKLOADS["a2a_concurrent"]("smoke", 0, ROOT)
    from spans import NULL

    inputs = wl.setup(NULL)
    result = wl.run(inputs, NULL)
    assert wl.check(inputs, result)[1] == []
    result.flow_completion = dict.fromkeys(result.flow_completion, 0.0)
    assert len(wl.check(inputs, result)[1]) == len(inputs[2])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
