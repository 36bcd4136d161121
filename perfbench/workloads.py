"""Workloads of the cmvkit benchmark.

A workload turns a seed into a *cycle*: a fixed list of ops. An op is one
call into cmvkit's public API together with a check of its output against
the tolerance the library's own verify suites use. The measuring process
repeats whole cycles, so the share of failing ops depends on the seed
alone and not on how many cycles fit into a run, and every op has the
same number of latencies in a run. A green op computes its dense oracle once
and checks every repeat against it; the oracle is deterministic. The
oracle block is copied: it is a view into a dense n x n inverse.

Library functions are looked up on their modules at call time
(``cmvkit.spectral_sample``, ``suites.run_suite``), so the tracer's
wrappers, which replace those module attributes, see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import cmvkit
from cmvkit.cli import ensembles, suites

M = 2
KERNEL_TOL = 1e-8   # green-half / green-full suites: kernel vs dense oracle
FLAG_TOL = 1e-10    # spectral_sample's own default for its validity flags
CERTIFIED_D = 6     # the green suites sample pairs within 6 sites of k0
HALF_STRATUM = 20    # half kernels: one row site per 20-site block
FULL_STRATUM = 5     # full kernels: one row site per 5-site block
GREEN_PAIRS_PER_FULL_OP = 20
SPECTRAL_RADII = (0.5, 0.9, 0.99, 1.01, 1.1, 2.0)
GREEN_RADII = (0.5, 2.0, 0.8, 1.25)

# Window sizes. "tiny" exists for the smoke test: same code paths, small n.
SIZES = {
    "full": {"ref_window": 40, "window": 200, "spectral_angles": 4},
    "tiny": {"ref_window": 16, "window": 20, "spectral_angles": 2},
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of one op's check.

    passed: every value is finite and within its suite tolerance.
    in_claim_ok: no value failed where the library's suites certify it
        (for kernels: both sites within CERTIFIED_D of k0).
    entries: (distance from k0, relative error) per kernel entry checked.
    """

    passed: bool
    in_claim_ok: bool
    entries: tuple = ()


RAISED = Verdict(passed=False, in_claim_ok=False)


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: Op          # first op of every process; counted in setup_s
    cycle: tuple        # ops the measuring process repeats whole
    sizes: dict         # recorded in the run's diagnostics line


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _verify_op(window: int, seed: int, suite: str) -> Op:
    spec = ensembles.EnsembleSpec(m=M, k_min=0, k_max=window, seed=seed)

    def check(report) -> Verdict:
        return Verdict(passed=report.passed, in_claim_ok=report.passed)

    return Op("verify", lambda: suites.run_suite([suite], spec), check)


def _verify(seed: int, window: int) -> Workload:
    # One run_suite call per suite rather than one over all ten: short
    # calls repeat often enough in a run for their median to settle.
    # A cycle still runs every suite.
    suite_seed = int(_rng(seed, 1).integers(0, 2 ** 31))
    cycle = tuple(_verify_op(window, suite_seed, suite) for suite in suites.SUITES)
    return Workload("verify-ref", cycle[0], cycle,
                    {"m": M, "window": [0, window], "suite_seed": suite_seed,
                     "ops_per_cycle": len(cycle)})


def _sequence(seed: int, window: int):
    seq = ensembles.generate(
        ensembles.EnsembleSpec(m=M, k_min=0, k_max=window, seed=seed))
    gamma = ensembles.random_unitary(_rng(seed, 2), M)
    return seq, window // 2, gamma


def _spectral(seed: int, size: dict) -> Workload:
    seq, k0, gamma = _sequence(seed, size["window"])
    n_theta = size["spectral_angles"]
    grid = [r * np.exp(2j * np.pi * (j + 0.5) / n_theta)
            for r in SPECTRAL_RADII for j in range(n_theta)]

    def check(s) -> Verdict:
        values = (s.m_plus, s.m_minus, s.M_plus, s.M_minus, s.Phi_plus, s.Phi_minus)
        ok = (s.caratheodory_plus and s.anti_caratheodory_minus
              and s.schur_plus and s.anti_schur_minus
              and all(np.all(np.isfinite(v)) for v in values))
        return Verdict(passed=ok, in_claim_ok=ok)

    def op(z) -> Op:
        return Op("sample", lambda: cmvkit.spectral_sample(seq, k0, gamma, z,
                                                           tol=FLAG_TOL), check)

    cycle = tuple(op(z) for z in grid)
    return Workload("spectral-grid", cycle[0], cycle,
                    {"m": M, "window": [0, size["window"]], "k0": k0,
                     "radii": list(SPECTRAL_RADII), "angles": n_theta,
                     "ops_per_cycle": len(cycle)})


def _strata(rng, k0: int, lo: int, hi: int, up: bool, width: int) -> list:
    """One site drawn uniformly from each width-wide block of [lo, hi].

    Blocks are aligned at k0 and run away from it. With width 5 the block
    next to k0 always yields a pair inside the suites' certified range.
    """
    sites = []
    if up:
        for start in range(k0, hi + 1, width):
            sites.append(int(rng.integers(start, min(start + width, hi + 1))))
    else:
        for end in range(k0, lo - 1, -width):
            sites.append(int(rng.integers(max(end - width + 1, lo), end + 1)))
    return sites


def _pairs(rng, sites: list, lo: int, hi: int) -> list:
    """Near-diagonal pairs (k, k + s), s in {-1, 0, 1}, clipped to [lo, hi]."""
    return [(k, min(max(k + int(rng.integers(-1, 2)), lo), hi)) for k in sites]


def _relerr(value, oracle) -> float:
    """Relative error as the suites define it (cli.suites._rel)."""
    scale = max(float(np.linalg.norm(oracle)), 1e-30)
    return float(np.linalg.norm(value - oracle) / scale)


def _judge(entries: list) -> Verdict:
    """entries: (distance, relerr) with relerr = inf for a non-finite value."""
    passed = all(err <= KERNEL_TOL for _, err in entries)
    in_claim_ok = all(err <= KERNEL_TOL or (d > CERTIFIED_D and np.isfinite(err))
                      for d, err in entries)
    return Verdict(passed=passed, in_claim_ok=in_claim_ok, entries=tuple(entries))


def _entry_error(value, oracle) -> float:
    return _relerr(value, oracle) if np.all(np.isfinite(value)) else float("inf")


def _green(seed: int, size: dict) -> Workload:
    window = size["window"]
    seq, k0, gamma = _sequence(seed, window)
    rng = _rng(seed, 3)
    angles = rng.uniform(0.0, 2 * np.pi, len(GREEN_RADII))
    zs = [r * np.exp(1j * a) for r, a in zip(GREEN_RADII, angles)]

    def dist(k, kp):
        return max(abs(k - k0), abs(kp - k0))

    def half_op(i, sign, k, kp) -> Op:
        z = zs[i % len(zs)]
        oracle = []

        def check(entry) -> Verdict:
            if not oracle:
                oracle.append(cmvkit.dense_resolvent_entry(
                    seq, z, k, kp, half=sign, k0=k0, gamma=gamma).copy())
            return _judge([(dist(k, kp), _entry_error(entry.value, oracle[0]))])

        return Op("half", lambda: cmvkit.half_lattice_green(
            seq, k0, gamma, z, k, kp, sign), check)

    def full_op(i, pairs) -> Op:
        z = zs[i % len(zs)]
        oracles = []

        def check(entries) -> Verdict:
            if not oracles:
                oracles.extend(cmvkit.dense_resolvent_entry(seq, z, k, kp).copy()
                               for k, kp in pairs)
            return _judge([(dist(e.k, e.kp), _entry_error(e.value, o))
                           for e, o in zip(entries, oracles)])

        return Op("full", lambda: cmvkit.full_green_entries(
            seq, k0, gamma, z, pairs), check)

    # Half windows: plus covers [k0, k_max - 1], minus covers [k_min, k0].
    plus = _pairs(rng, _strata(rng, k0, k0, window - 1, True, HALF_STRATUM),
                  k0, window - 1)
    minus = _pairs(rng, _strata(rng, k0, 0, k0, False, HALF_STRATUM), 0, k0)
    full = _pairs(rng, _strata(rng, k0, 0, window - 1, True, FULL_STRATUM)
                  + _strata(rng, k0 - 1, 0, window - 1, False, FULL_STRATUM),
                  0, window - 1)
    full = [full[i] for i in rng.permutation(len(full))]
    ops = [half_op(i, cmvkit.PLUS, k, kp) for i, (k, kp) in enumerate(plus)]
    ops += [half_op(i, cmvkit.MINUS, k, kp) for i, (k, kp) in enumerate(minus)]
    step = GREEN_PAIRS_PER_FULL_OP
    ops += [full_op(j, full[i:i + step]) for j, i in enumerate(range(0, len(full), step))]
    cycle = tuple(ops[i] for i in rng.permutation(len(ops)))
    return Workload("green-sweep", cycle[0], cycle,
                    {"m": M, "window": [0, window], "k0": k0,
                     "z_radii": list(GREEN_RADII), "half_entries": len(plus) + len(minus),
                     "full_entries": len(full), "ops_per_cycle": len(cycle)})


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's cycle for one seed; same seed, same inputs."""
    sz = SIZES[size]
    if name == "verify-ref":
        return _verify(seed, sz["ref_window"])
    if name == "spectral-grid":
        return _spectral(seed, sz)
    if name == "green-sweep":
        return _green(seed, sz)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-ref", "spectral-grid", "green-sweep")
