"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from worker import HostProbe, Tally  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,listed", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_appears_with_its_unit(workload, trace, listed):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC[listed]:
        assert metric["name"] in result["metrics"], metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"], metric["name"]
    assert len(result["metrics"]) == len(SPEC[listed])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _corrupt(out):
    """Nudge a kernel entry (or the first of a list) by a relative 1e-6."""
    if isinstance(out, list):
        return [_corrupt(out[0])] + out[1:]
    return dataclasses.replace(out, value=out.value * (1 + 1e-6))


@pytest.mark.parametrize("seed", [0, 1])
def test_corrupted_output_raises_fail_ratio(seed):
    wl = workloads.build("green-sweep", seed, "tiny")
    probe = HostProbe()
    clean = Tally(probe)
    clean.run_cycle(wl.cycle)
    assert clean.gate_failed == 0 and clean.claim_failed == 0

    first = wl.cycle[0]
    bad = workloads.Op(first.kind, lambda: _corrupt(first.call()), first.check)
    dirty = Tally(probe)
    dirty.run_cycle((bad,) + wl.cycle[1:])
    assert dirty.gate_failed == 1
    assert dirty.gate_failed / dirty.runs > clean.gate_failed / clean.runs
