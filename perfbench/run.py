"""cmvkit benchmark: one workload, closed loop, one caller at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload green-sweep --seed 1 --seconds 15 --trace 0

Workloads: verify-ref, spectral-grid, green-sweep. See
perfbench/README.md for their sizes, ops and checks, why each was chosen,
and what every metric means.

With --trace 0 the run starts one fresh interpreter that sets up (import
cmvkit, build the inputs, run the warm-up op) and then measures: it
repeats whole cycles of ops for --seconds, and at least three times,
checking every op. A fixed speed probe runs between ops (worker.py), and
latency metrics use each op's latency *scaled* by the probes around it:
wall latency x PROBE_REF_S / mean of the two probes, the latency on a host
where the probe takes PROBE_REF_S. The same metrics from unscaled wall
time are printed in the diagnostics line. Set-up-only interpreters run
before and after it; set-up is the median over all of them. Spreading
them over the run keeps one slow stretch of the host from moving every
sample.

With --trace 1 one interpreter runs a cycle untraced, installs the
wrappers of spans.py and runs the cycle again; the result carries the
per-layer metrics, and the spans are written under .perfbench_traces/.

Before either, one discarded warm-up process compiles bytecode and fills
the page cache. A fixed numpy LU plus a pure-Python loop is timed before
and after the run (host.calib_s); it is printed beside the metrics and
never used to rescale them. BLAS and OpenMP run one thread everywhere.
"""

import os

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"   # before numpy is imported, here and in every child

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-ref", "spectral-grid", "green-sweep")
SETUP_SAMPLES = 6         # set-up-only processes, half before and half after
                          # the measuring one, which adds a seventh sample
DEADLINE_S = 170.0       # the whole run, warm-up and calibration included
PROBE_REF_S = 0.003      # probe time that sets the scale of scaled latencies

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class RunFailed(RuntimeError):
    """A worker failed, timed out, or imported cmvkit from the wrong place."""


def calibrate() -> float:
    """Median of three timings of a fixed 400x400 LU solve plus a Python loop."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((400, 400)) + 400 * np.eye(400)
    b = np.ones(400)
    times = []
    for _ in range(3):
        t = time.perf_counter()
        np.linalg.solve(a, b)
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_worker(args, mode: str, deadline: float, budget: float = 0.0,
               size: str | None = None, trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--budget", repr(budget),
           "--size", size or args.size]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["cmvkit_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RunFailed(f"cmvkit was imported from {out['cmvkit_file']}, not {SRC}")
    return out


def setup_sample(args, deadline: float, i: int) -> dict:
    """Set-up sample i, pinned to the i-th allowed CPU in turn.

    The measuring process alternates CPUs between cycles; set-up samples
    alternate the same way, so a neighbour slowing one CPU moves at most
    half of them.
    """
    allowed = os.sched_getaffinity(0)
    ordered = sorted(allowed)
    os.sched_setaffinity(0, {ordered[i % len(ordered)]})   # inherited by the child
    try:
        return run_worker(args, "setup", deadline)
    finally:
        os.sched_setaffinity(0, allowed)


def scaled(measured: dict) -> list:
    """Each op latency as it would be on a host where the probe takes PROBE_REF_S."""
    return [[lat * PROBE_REF_S / probe for lat, probe in zip(lats, probes)]
            for lats, probes in zip(measured["latency"], measured["probe_s"])]


def latency_metrics(per_op: list) -> dict:
    """per_op: one list of latencies per op of the cycle, one per repeat.

    ops_per_s is one caller's rate through a cycle at each op's median
    latency; op_p50_s and op_p90_s pool every latency of the run.
    """
    pooled = [x for op in per_op for x in op]
    return {"ops_per_s": len(per_op) / sum(statistics.median(op) for op in per_op),
            "op_p50_s": statistics.median(pooled),
            "op_p90_s": percentile(pooled, 0.9)}


def end_to_end(setups: list, measured: dict) -> dict:
    values = latency_metrics(scaled(measured))
    values["setup_s"] = statistics.median(w["setup_s"] for w in setups + [measured])
    values["peak_rss_mb"] = measured["maxrss_kb"] / 1024.0
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small windows for the smoke test")
    args = p.parse_args(argv)

    if not (SRC / "cmvkit" / "__init__.py").is_file():
        print(f"error: no cmvkit sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    try:
        run_worker(args, "warmup", deadline, size="tiny")
        calib_before = calibrate()
        if args.trace:
            trace_dir = ROOT / ".perfbench_traces"
            trace_dir.mkdir(exist_ok=True)
            measured = run_worker(args, "trace", deadline, trace_out=trace_dir
                                  / f"{args.workload}-seed{args.seed}.json")
        else:
            half = SETUP_SAMPLES // 2
            setups = [setup_sample(args, deadline, i) for i in range(half)]
            measured = run_worker(args, "measure", deadline, budget=args.seconds)
            setups += [setup_sample(args, deadline, i) for i in range(half, SETUP_SAMPLES)]
        calib_after = calibrate()
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = measured["runs"], measured["claim_failed"]
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sizes": measured["sizes"], "cycles": measured["cycles"],
        "threads": {v: os.environ[v] for v in PINNED_THREADS},
        "host.calib_s": {"before": calib_before, "after": calib_after},
        "host.probe_s": {"median": statistics.median(measured["probes"]),
                         "min": min(measured["probes"]), "max": max(measured["probes"])},
        "fail_ratio": measured["gate_failed"] / attempted,
        "wall_ops_per_s": attempted / measured["elapsed_s"],
        "wall_latency": latency_metrics(measured["latency"]),
        "setup_samples_s": [w["setup_s"] for w in setups + [measured]],
    }
    if args.trace:
        traced = measured["traced"]
        metrics = dict(measured["layers"])
        metrics["host.calib_s"] = {"value": (calib_before + calib_after) / 2, "unit": "s"}
        # One cycle each way: traced over untraced ops_per_s, from the
        # summed op latencies, so neither checks nor probes count.
        untraced_s = sum(map(sum, measured["latency"]))
        metrics["trace.overhead_ratio"] = {
            "value": untraced_s / sum(map(sum, traced["latency"])), "unit": "ratio"}
        metrics["fail_ratio"] = {"value": traced["gate_failed"] / traced["runs"],
                                 "unit": "ratio"}
        attempted += traced["runs"]
        failed += traced["claim_failed"]
    else:
        metrics = end_to_end(setups, measured)
    correct = failed == 0 and measured["warmup_ok"]
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
