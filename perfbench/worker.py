"""One benchmark process, started by run.py in a fresh interpreter.

cmvkit's ``src`` is on PYTHONPATH and BLAS threads are pinned by run.py.
Every mode first sets up: import cmvkit, build the inputs from the seed,
run the warm-up op. Set-up is timed from before ``import cmvkit`` to the
end of the warm-up call. The process prints one JSON line.

Modes:
  setup    set up, without checking the warm-up op, and stop.
  warmup   set up and run one cycle; run.py discards the numbers.
  measure  set up, then run whole cycles until --budget seconds have
           passed and at least MIN_REPEATS cycles have run.
  trace    set up, run one cycle untraced, install the tracer and run the
           same cycle on freshly built inputs; report per-layer metrics
           and write the spans to --trace-out.

Between any two ops of an untraced cycle, and before the first and after
the last, the process times a fixed *speed probe* (``HostProbe``). The
probe is benchmark code, not cmvkit, so no change to the library moves
it; it moves only with the speed the host gives the process at that
moment. Each op latency is kept with the mean of the two probes around
it; run.py scales the latency by it (see run.py).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

MIN_REPEATS = 3     # every op runs at least this many times
BUCKETS = (("d0-6", 0, 6), ("d7-20", 7, 20), ("d21-up", 21, math.inf))


def run_checked(op, call=None):
    """Call the op, timing the call alone, then check its output untimed."""
    from workloads import RAISED
    call = call or op.call
    t = time.perf_counter()
    try:
        out = call()
    except Exception:  # a failing op is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t, RAISED
    latency = time.perf_counter() - t
    try:
        return latency, op.check(out)
    except Exception:  # the oracle itself may raise
        traceback.print_exc(file=sys.stderr)
        return latency, RAISED


def bucket_of(d):
    return next(name for name, lo, hi in BUCKETS if lo <= d <= hi)


def log10_or_sentinel(err):
    """log10 of a relative error; -300 when no entry was checked, 400 when non-finite."""
    if err is None:
        return -300.0
    if not math.isfinite(err):
        return 400.0
    return math.log10(max(err, 1e-300))


class HostProbe:
    """A fixed few milliseconds of the kind of work cmvkit does.

    Small Hermitian eigenproblems and products, one dense solve, and a
    pure-Python loop. Its time tracks how fast the host runs the process
    right now: on a shared host a neighbour slows every core-bound task by
    up to 1.7x for seconds at a time.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        blocks = rng.standard_normal((50, 4, 4)) + 1j * rng.standard_normal((50, 4, 4))
        self.np = np
        self.blocks = list(blocks + blocks.conj().transpose(0, 2, 1))
        self.dense = rng.standard_normal((160, 160)) + 160 * np.eye(160)
        self.rhs = np.ones(160)

    def time(self) -> float:
        np = self.np
        t = time.perf_counter()
        acc = 0.0
        for a in self.blocks:
            w, v = np.linalg.eigh(a)
            acc += float((v @ np.diag(w) @ v.conj().T).real[0, 0])
        acc += float(np.linalg.solve(self.dense, self.rhs)[0])
        for i in range(20000):
            acc += i * 0.5
        return time.perf_counter() - t


class Tally:
    """Latencies of every op of a cycle over its repeats, and check outcomes."""

    def __init__(self, probe=None):
        self.probe = probe
        self.latency = {}        # op index in the cycle -> wall latency per repeat
        self.probe_s = {}        # op index -> mean probe time around each repeat
        self.probes = []         # every probe time
        self.runs = 0
        self.gate_failed = 0     # missed the suite tolerance anywhere
        self.claim_failed = 0    # missed it where the library's suites certify it
        self.worst = {}          # distance bucket -> worst relative error

    def add(self, i, latency, verdict, probe_s=None):
        self.runs += 1
        self.latency.setdefault(i, []).append(latency)
        if probe_s is not None:
            self.probe_s.setdefault(i, []).append(probe_s)
        self.gate_failed += not verdict.passed
        self.claim_failed += not verdict.in_claim_ok
        for d, err in verdict.entries:
            bucket = bucket_of(d)
            self.worst[bucket] = max(self.worst.get(bucket, 0.0), err)

    def run_cycle(self, cycle):
        before = self.probe.time()
        self.probes.append(before)
        for i, op in enumerate(cycle):
            latency, verdict = run_checked(op)
            after = self.probe.time()
            self.probes.append(after)
            self.add(i, latency, verdict, (before + after) / 2)
            before = after

    def summary(self) -> dict:
        return {"latency": [self.latency[i] for i in sorted(self.latency)],
                "probe_s": [self.probe_s[i] for i in sorted(self.probe_s)],
                "probes": self.probes, "runs": self.runs,
                "gate_failed": self.gate_failed, "claim_failed": self.claim_failed}


def trace_cycle(args, workloads, tracer) -> dict:
    """Run one cycle, built afresh so oracles are recomputed, under the tracer."""
    wl = workloads.build(args.workload, args.seed, args.size)
    tracer.install()
    traced = Tally()
    for i, op in enumerate(wl.cycle):
        traced.add(i, *run_checked(
            op, lambda: tracer.run_op(i, f"op.{op.kind}", op.call)))
    layers = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
    for name, _, _ in BUCKETS:
        layers[f"greens.log10_relerr.{name}"] = {
            "value": log10_or_sentinel(traced.worst.get(name)), "unit": "log10"}
    if args.trace_out:
        tracer.write(args.trace_out)
    return {"layers": layers, "traced": traced.summary()}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "warmup", "measure", "trace"),
                   required=True)
    p.add_argument("--budget", type=float, default=0.0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)

    import cmvkit
    import workloads

    wl = workloads.build(args.workload, args.seed, args.size)
    result = {"sizes": wl.sizes, "cmvkit_file": cmvkit.__file__}
    if args.mode == "setup":
        # Unchecked: the measuring process checks this same op.
        wl.warmup.call()
        result["setup_s"] = time.perf_counter() - T_START
    else:
        t_call = time.perf_counter()
        latency, verdict = run_checked(wl.warmup)
        result.update(setup_s=t_call + latency - T_START, warmup_ok=verdict.in_claim_ok)
        tally = Tally(HostProbe())
        # Successive cycles run on alternate CPUs: on a shared host one CPU
        # is often slowed by a neighbour while the other is not, and each
        # op's times should not depend on which one the process got.
        cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
        t0 = time.perf_counter()
        cycles = 0
        while True:
            os.sched_setaffinity(0, {next(cpus)})
            tally.run_cycle(wl.cycle)
            cycles += 1
            if args.mode != "measure" or (cycles >= MIN_REPEATS and
                                          time.perf_counter() - t0 >= args.budget):
                break
        result.update(tally.summary(), cycles=cycles,
                      elapsed_s=time.perf_counter() - t0)
    if args.mode == "trace":
        from spans import Tracer
        result.update(trace_cycle(args, workloads, Tracer()))

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
