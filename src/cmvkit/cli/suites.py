"""Named verification suites run by the command-line tool.

Each suite regenerates its own data from the ensemble parameters,
evaluates a handful of identities, and returns each identity's raw
residuals with its default tolerance. run_suite makes every verdict:
one check is its worst residual (_worst), and a non-finite residual
fails. Suites are pure functions of those parameters, so reports
are reproducible byte for byte;
wall-clock timing lives in the report's meta block, never in results.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .. import __version__
from ..analytic import (
    herglotz_eval,
    inverse_cayley,
    is_caratheodory,
    cayley,
    uniform_grid_measure,
    AtomicMeasure,
)
from ..assembly import SplitSpec, assemble, assemble_split, band_block, block_diag
from ..coefficients import BoundaryUnitary, factorize_svd, gauge_transform, principal_unitary_sqrt
from ..decoupling import (
    decoupling_report,
    det_criterion,
    minimal_phases,
)
from ..errors import OutOfRange, SingularWronskian, UnknownSuite, require_tolerance, solve
from ..greens import (
    dense_resolvent_entries,
    full_green_entries,
    half_green_entries,
    wronskian,
    wronskian_symmetry_check,
)
from ..laurent import (
    MINUS,
    PLUS,
    _unit_scale,
    connection,
    quadratic_identities,
    conjugation_symmetry,
    window_family,
)
from ..weyl import (
    _herm_eigs,
    M_function,
    M_gamma_transform,
    M_minus_at_zero,
    M_minus_from_m_minus,
    M_minus_via_connection,
    m_from_edge_condition,
    m_function,
    m_minus_from_M_minus,
    schur_from_M,
    schur_gamma_conjugation,
    spectral_sample,
    weyl_solutions,
)
from .ensembles import EnsembleSpec, generate, random_unitary


@dataclass(frozen=True)
class Tolerances:
    """Rank threshold plus an optional override for identity residuals.

    identity = None keeps each check's own default; a number replaces
    every nonzero one (to demonstrate tolerance sensitivity, for instance),
    and the exact checks, default 0, stay exact. OutOfRange unless identity
    is None or finite and >= 0, and 0 < rank < 1.
    """

    rank: float = 1e-8
    identity: float | None = None

    def __post_init__(self):
        if not 0.0 < self.rank < 1.0:
            raise OutOfRange(f"rank tolerance must lie in (0, 1), got {self.rank}")
        if self.identity is not None:
            require_tolerance(self.identity, "identity tolerance")

    def pick(self, default: float) -> float:
        return default if self.identity is None or default == 0 else self.identity


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check: str
    residual: float
    tol: float
    passed: bool


def _worst(residuals) -> float:
    """The largest of residuals (a number or array-like) floored at 0; if one is not
    finite, the first such, as nan or +inf, which fails any tolerance."""
    r = np.asarray(residuals, dtype=float).ravel()
    bad = r[~np.isfinite(r)]
    return float(abs(bad[0]) if bad.size else r.max(initial=0.0))


def _rel(diff: np.ndarray, reference: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(reference)), 1e-30)
    return float(np.linalg.norm(diff) / scale)


def _mid_site(spec: EnsembleSpec) -> int:
    return (spec.k_min + spec.k_max) // 2


def _sub_seed(spec: EnsembleSpec, suite_index: int, draw: int) -> int:
    rng = np.random.default_rng([spec.seed, suite_index, draw])
    return int(rng.integers(0, 2 ** 62))


def _suite_data(spec: EnsembleSpec, suite_index: int):
    """A suite's sequence, its mid site k0, its random stream and the first
    boundary unitary drawn from that stream."""
    seq = generate(replace(spec, seed=_sub_seed(spec, suite_index, 0)))
    rng = np.random.default_rng([spec.seed, suite_index, 1])
    return seq, _mid_site(spec), rng, BoundaryUnitary(random_unitary(rng, spec.m))


def _pair_samples(rng, lo, hi, count, max_sep):
    """Index pairs with bounded separation, where oracles stay sharp."""
    pairs = []
    for _ in range(count):
        k = int(rng.integers(lo, hi + 1))
        sep = int(rng.integers(-max_sep, max_sep + 1))
        kp = min(max(k + sep, lo), hi)
        pairs.append((k, kp))
    return pairs


def suite_unitarity(spec: EnsembleSpec, tol: Tolerances):
    seq = generate(spec)
    ops = assemble(seq)
    n = ops.U.shape[0]
    V, W_star = (band_block(a, range(n), range(n)) for a in seq.bands)   # what every solve reads
    site = np.arange(n) // spec.m                 # the site of each row and column
    far = np.abs(site[:, None] - site) > 2
    out = [("U-star-U", np.linalg.norm(ops.U.conj().T @ ops.U - np.eye(n)), 1e-10),
           ("U-equals-VW", np.linalg.norm(ops.U - V @ W_star.conj().T), 1e-12),
           ("band-zeros", np.abs(ops.U[far]), 0.0)]
    if spec.m == 1:
        diagonal = []
        for k in range(seq.k_min + 1, seq.k_max - 1):
            want = -np.conj(seq.alpha(k)[0, 0]) * seq.alpha(k + 1)[0, 0]
            diagonal.append(abs(ops.block(k, k)[0, 0] - want))
        out.append(("scalar-diagonal", diagonal, 1e-12))
    return out


def suite_decoupling(spec: EnsembleSpec, tol: Tolerances):
    k0 = _mid_site(spec)
    rng = np.random.default_rng([spec.seed, 2, 0])
    z_samples = tuple(r * np.exp(1j * th)
                      for r in (0.5, 2.0)
                      for th in (np.pi / 8, 9 * np.pi / 8))

    seq1 = generate(replace(spec, m=1, seed=_sub_seed(spec, 2, 1)))
    alpha = seq1.alpha(k0)
    s = float(rng.uniform(0, 2 * np.pi))
    sol = minimal_phases(alpha, [s])
    rep = decoupling_report(seq1, k0, sol.gamma1, sol.gamma2,
                            z_samples=z_samples, rtol=tol.rank)
    bumped = sol.gamma1 * np.exp(0.1j)
    # The reports below read op_rank only: no z sample, so no LU repeats the minimal report's.
    rep2 = decoupling_report(seq1, k0, bumped, sol.gamma2, z_samples=(), rtol=tol.rank)
    rep3 = decoupling_report(seq1, k0, sol.gamma2, sol.gamma2, z_samples=(), rtol=tol.rank)
    out = [("scalar-minimal-op-rank", abs(rep.op_rank - 1), 0.0),
           ("scalar-minimal-resolvent-rank",
            [abs(r - 1) for r in rep.resolvent_ranks.values()], 0.0),
           ("scalar-det-criterion",
            abs(det_criterion(alpha[0, 0], np.angle(sol.gamma1[0, 0]),
                              np.angle(sol.gamma2[0, 0]))), 1e-12),
           ("scalar-perturbed-rank", abs(rep2.op_rank - 2), 0.0),
           ("scalar-single-gamma-rank", abs(rep3.op_rank - 2), 0.0)]

    if spec.m >= 2:
        seq = generate(replace(spec, seed=_sub_seed(spec, 2, 2)))
        s_vec = rng.uniform(0, 2 * np.pi, size=spec.m)
        solm = minimal_phases(seq.alpha(k0), s_vec)
        repm = decoupling_report(seq, k0, solm.gamma1, solm.gamma2,
                                 z_samples=z_samples, rtol=tol.rank)
        fac = factorize_svd(seq.alpha(k0))
        t_bumped = np.asarray(solm.t, dtype=float).copy()
        t_bumped[0] += 0.1
        g1b = replace(fac, beta=np.exp(1j * t_bumped)).reconstruct()
        repb = decoupling_report(seq, k0, g1b, solm.gamma2, z_samples=(), rtol=tol.rank)
        eye = np.eye(spec.m)
        repi = decoupling_report(seq, k0, eye, eye, z_samples=(), rtol=tol.rank)
        out += [("matrix-minimal-op-rank", abs(repm.op_rank - spec.m), 0.0),
                ("matrix-minimal-resolvent-rank",
                 [abs(r - spec.m) for r in repm.resolvent_ranks.values()], 0.0),
                ("matrix-single-bump-rank", abs(repb.op_rank - (spec.m + 1)), 0.0),
                ("matrix-identity-gamma-excess", spec.m + 1 - repi.op_rank, 0.0)]
    return out


def suite_connection(spec: EnsembleSpec, tol: Tolerances):
    seq, k0, rng, g1 = _suite_data(spec, 3)
    g2 = BoundaryUnitary(random_unitary(rng, spec.m))
    cc = connection(g1, g2, seq.alpha(k0), k0)
    sites = [seq.k_min + 1, k0 - 1, k0, k0 + 2, seq.k_max - 2]
    res = {key: [] for key in ("same-sign-Q", "same-sign-P",
                               "cross-sign-QP", "cross-site-QP")}
    for z in (0.45 * np.exp(0.7j), 1.9 * np.exp(2.1j)):
        p1 = window_family(seq, g1, z, k0, PLUS)
        p2 = window_family(seq, g2, z, k0, PLUS)
        m2 = window_family(seq, g2, z, k0, MINUS)
        m2_down = window_family(seq, g2, z, k0 - 1, MINUS)
        # one power of two per site for all four families keeps the products and norms
        # below finite on long windows, and leaves every ratio as it is unscaled
        s = _unit_scale(p1.X, axis=(1, 2))[:, None, None]
        p1, p2, m2, m2_down = (replace(f, X=f.X * s) for f in (p1, p2, m2, m2_down))
        C2, D2 = cc.c2(z), cc.d2(z)
        for k in sites:
            a1, a2, b2, b2d = p1.at(k), p2.at(k), m2.at(k), m2_down.at(k)
            res["same-sign-Q"] += [_rel(a2.Q - (a1.Q @ cc.C1 + a1.P @ cc.D1), a2.Q),
                                   _rel(a2.S - (a1.S @ cc.C1 + a1.R @ cc.D1), a2.S)]
            res["same-sign-P"] += [_rel(a2.P - (a1.Q @ cc.D1 + a1.P @ cc.C1), a2.P),
                                   _rel(a2.R - (a1.S @ cc.D1 + a1.R @ cc.C1), a2.R)]
            res["cross-sign-QP"] += [_rel(b2.Q - (a1.Q @ C2 + a1.P @ D2), b2.Q),
                                     _rel(b2.P - (a1.Q @ D2 + a1.P @ C2), b2.P)]
            res["cross-site-QP"] += [_rel(b2d.Q - (a1.Q @ cc.C3 + a1.P @ cc.D3), b2d.Q),
                                     _rel(b2d.P - (a1.Q @ cc.C4 + a1.P @ cc.D4), b2d.P)]
    return [(key, val, 1e-9) for key, val in res.items()]


def suite_quadratic(spec: EnsembleSpec, tol: Tolerances):
    seq, k0, rng, g = _suite_data(spec, 4)
    z = 0.4 - 0.3j
    zc = 1.0 / np.conj(z)
    fams = {sign: (window_family(seq, g, z, k0, sign), window_family(seq, g, zc, k0, sign))
            for sign in (PLUS, MINUS)}
    bilinear = []
    for k in (seq.k_min, k0 - 3, k0, k0 + 4, seq.k_max - 1):
        bilinear += quadratic_identities(fams[PLUS], fams[MINUS], k).values()

    seq1 = generate(replace(spec, m=1, seed=_sub_seed(spec, 4, 2)))
    t = float(rng.uniform(0, np.pi))
    g1 = BoundaryUnitary(np.array([[np.exp(1j * t)]]))
    conjugation = []
    for sign in (PLUS, MINUS):
        pair = (window_family(seq1, g1, z, k0, sign), window_family(seq1, g1, zc, k0, sign))
        for k in (seq1.k_min + 1, k0, k0 + 3, seq1.k_max - 1):
            conjugation += conjugation_symmetry(pair, k).values()
    return [("bilinear-identities", bilinear, 1e-9),
            ("scalar-conjugation", conjugation, 1e-10)]


def suite_green_half(spec: EnsembleSpec, tol: Tolerances):
    out = []
    seq, k0, rng, g = _suite_data(spec, 5)
    for sign, label in ((PLUS, "plus"), (MINUS, "minus")):
        # Keep sampled sites near k0: solution values at distance d are
        # differences of terms growing geometrically in d, so the digits
        # available to any relative check shrink with d at high radius.
        if sign == PLUS:
            lo, hi = k0, min(k0 + 6, spec.k_max - 1)
        else:
            lo, hi = max(spec.k_min, k0 - 6), k0
        rel = []
        for z in (0.5 * np.exp(0.9j), 2.0 * np.exp(-1.3j)):
            pairs = _pair_samples(rng, lo, hi, 5, max_sep=6)
            oracles = dense_resolvent_entries(seq, z, pairs, half=sign, k0=k0, gamma=g)
            rel += [_rel(entry.value - oracle, oracle) for entry, oracle
                    in zip(half_green_entries(seq, k0, g, z, pairs, sign), oracles)]
        out.append((f"{label}-vs-dense", rel, 1e-8))
    return out


def suite_green_full(spec: EnsembleSpec, tol: Tolerances):
    seq, k0, rng, g = _suite_data(spec, 6)
    eye = BoundaryUnitary(np.eye(spec.m))
    rel, rel_gamma = [], []
    lo = max(spec.k_min, k0 - 5)
    hi = min(spec.k_max - 1, k0 + 6)
    for z in (0.5 * np.exp(0.4j), 2.0 * np.exp(2.8j)):
        pairs = _pair_samples(rng, lo, hi, 6, max_sep=6)
        got = full_green_entries(seq, k0, g, z, pairs)
        got_eye = full_green_entries(seq, k0, eye, z, pairs)
        for entry, entry_eye, oracle in zip(got, got_eye, dense_resolvent_entries(seq, z, pairs)):
            rel.append(_rel(entry.value - oracle, oracle))
            rel_gamma.append(_rel(entry.value - entry_eye.value, oracle))
    return [("kernel-vs-dense", rel, 1e-8), ("gamma-independence", rel_gamma, 1e-9)]


def suite_weyl(spec: EnsembleSpec, tol: Tolerances):
    seq, k0, rng, g = _suite_data(spec, 7)
    zs = (0.35 * np.exp(0.8j), 0.55 * np.exp(-2.0j), 1.8 * np.exp(1.1j))

    plus = []
    for z in zs:
        mp = m_function(seq, k0, g, z, PLUS)
        plus.append(_rel(mp - m_from_edge_condition(seq, k0, g, z, PLUS), mp))

    round_trip, routes = [], []
    M_minus = []                      # M_minus(g, z) per z, read again by the gamma law below
    for z in zs:
        mm = m_function(seq, k0, g, z, MINUS)
        Mm = M_minus_from_m_minus(mm, z)
        M_minus.append(Mm)
        round_trip.append(_rel(m_minus_from_M_minus(Mm, z) - mm, mm))
        routes.append(_rel(M_minus_via_connection(seq, k0, g, z) - Mm, Mm))
    M0 = M_minus_via_connection(seq, k0, g, 0.0)

    floor, schur_excess = [], []      # one-sided: values at or below 0 pass
    for r in (0.3, 0.6, 0.9):
        for j in range(4):
            z = r * np.exp(2j * np.pi * (j + 0.27) / 4)
            samp = spectral_sample(seq, k0, g, z)
            eig_p, eig_m = _herm_eigs(np.stack((samp.m_plus, samp.m_minus)))
            floor += [-eig_p.min(), eig_m.max()]
            schur_excess.append(np.linalg.norm(samp.Phi_plus, 2) - 1.0)

    g2 = BoundaryUnitary(random_unitary(rng, spec.m))
    law = []
    for z, M1 in zip(zs[:2], M_minus):
        M2 = M_function(seq, k0, g2, z, MINUS)
        p1, p2 = schur_from_M(M1), schur_from_M(M2)
        law += [_rel(M_gamma_transform(M1, g.root, g2.root) - M2, M2),
                _rel(schur_gamma_conjugation(p1, g.root, g2.root) - p2, p2)]
    out = [("M-plus-equals-m-plus", plus, 1e-10),
           ("minus-transform-round-trip", round_trip, 1e-12),
           ("minus-two-routes", routes, 1e-10),
           ("minus-at-zero-closed-form",
            _rel(M0 - M_minus_at_zero(seq.alpha(k0), g), M0), 1e-10),
           ("caratheodory-floor", floor, 1e-10),
           ("schur-norm-bound", schur_excess, 1e-10),
           ("gamma-transformation-law", law, 1e-10)]

    if spec.m == 1:
        seq1 = generate(replace(spec, m=1, seed=_sub_seed(spec, 7, 2)))
        z = 0.45 * np.exp(0.6j)
        vals = []
        for t in (0.0, np.pi / 3, np.pi):
            gt = np.array([[np.exp(1j * t)]])
            Mt = m_function(seq1, k0, gt, z, PLUS)
            vals.append(np.exp(-1j * t) * schur_from_M(Mt)[0, 0])
        out.append(("scalar-t-independence", [abs(v - vals[0]) for v in vals], 1e-10))
    return out


def suite_wronskian(spec: EnsembleSpec, tol: Tolerances):
    seq, k0, rng, g = _suite_data(spec, 8)
    z = 0.5 * np.exp(1.7j)
    zc = 1.0 / np.conj(z)
    sol_p, sol_m = weyl_solutions(seq, k0, g, z)
    sol_pc, sol_mc = weyl_solutions(seq, k0, g, zc)
    W = sol_p.M - sol_m.M

    fam, fam_c = sol_p.family, sol_pc.family
    eye = np.eye(spec.m)
    # Site-independent in exact arithmetic; sampled near k0 because the
    # paired solutions grow geometrically away from the reference site
    # and the pairing is a near-cancelling difference there.
    sites = list(range(max(seq.k_min, k0 - 4), min(seq.k_max, k0 + 5)))
    pairing = [_rel(wronskian((fam_c.at(k).P, fam_c.at(k).R),
                              (fam.at(k).Q, fam.at(k).S), k) - eye, eye)
               for k in sites]

    values = [wronskian(sol_pc.at(k), sol_m.at(k), k) for k in sites]
    ref = values[len(values) // 2]

    cross, null = [], []
    for k in (k0 - 3, k0, k0 + 3):
        sgn = 1.0 if k % 2 == 1 else -1.0
        Up, Vp = sol_p.at(k)
        Um, Vm = sol_m.at(k)
        Upc, Vpc = sol_pc.at(k)
        Umc, Vmc = sol_mc.at(k)
        right_m = solve(W, Umc.conj().T, SingularWronskian)
        right_p = solve(W, Upc.conj().T, SingularWronskian)
        cross.append(_rel(Up @ right_m - Um @ right_p - 2.0 * sgn * eye, eye))
        null.append(_rel(Vp @ right_m - Vm @ right_p, eye))
    return [("first-second-kind-pairing", pairing, 1e-9),
            ("k-independence", [_rel(v - ref, ref) for v in values], 1e-9),
            ("equals-M-difference", _rel((sol_m.M - sol_p.M) - ref, ref), 1e-9),
            ("symmetry", wronskian_symmetry_check(sol_p.M, sol_m.M), 1e-9),
            ("resolvent-jump", cross, 1e-9),
            ("v-component-null", null, 1e-9)]


def suite_analytic(spec: EnsembleSpec, tol: Tolerances):
    rng = np.random.default_rng([spec.seed, 9, 0])
    m = spec.m
    zetas, weights = [], []
    for j in range(6):
        zetas.append(np.exp(2j * np.pi * rng.uniform()))
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        weights.append(g @ g.conj().T / m)
    C = rng.standard_normal((m, m))
    C = C + C.T
    measure = AtomicMeasure(zetas=zetas, weights=weights, C=C.astype(complex))

    zs = [0.7 * np.exp(2j * np.pi * rng.uniform()) for _ in range(5)]
    samples = [(z, herglotz_eval(measure, z)) for z in zs]
    round_trip = [_rel(inverse_cayley(cayley(F)) - F, F) for _, F in samples]
    report = is_caratheodory(samples)
    lebesgue = uniform_grid_measure(2048, m=1)
    val = herglotz_eval(lebesgue, 0.3 + 0.2j)[0, 0]

    seq = generate(replace(spec, seed=_sub_seed(spec, 9, 1)))
    k0 = _mid_site(spec)
    g = BoundaryUnitary(random_unitary(rng, spec.m))
    reflection = []
    for z in (0.4 * np.exp(0.5j), 0.55 * np.exp(-1.9j)):
        inner = m_function(seq, k0, g, z, PLUS)
        outer = m_function(seq, k0, g, 1.0 / np.conj(z), PLUS)
        reflection.append(_rel(outer + inner.conj().T, inner))
    return [("cayley-round-trip", round_trip, 1e-12),
            ("herglotz-positivity", [-e for e in report.min_eigenvalues], 1e-10),
            ("unit-mass-quadrature", abs(val - 1.0), 1e-10),
            ("reflection-relation", reflection, 1e-9)]


def suite_gauge(spec: EnsembleSpec, tol: Tolerances):
    rng = np.random.default_rng([spec.seed, 10, 0])

    seq1 = generate(replace(spec, m=1, seed=_sub_seed(spec, 10, 1)))
    t = float(rng.uniform(0, 2 * np.pi))
    A = np.diag([np.exp(-1j * t / 2) if k % 2 == 1 else np.exp(1j * t / 2)
                 for k in seq1.sites]).astype(complex)
    beta = gauge_transform(seq1, np.array([[np.exp(-1j * t)]]), np.eye(1))
    lhs = A @ assemble(seq1).U @ A.conj().T
    rhs = assemble(beta).U
    twist = _rel(lhs - rhs, rhs)

    seq = generate(replace(spec, seed=_sub_seed(spec, 10, 2)))
    sigma = random_unitary(rng, spec.m)
    tau = random_unitary(rng, spec.m)
    gauged = gauge_transform(seq, sigma, tau)
    Am = block_diag(*(sigma if k % 2 == 1 else tau for k in seq.sites))
    lhs = Am @ assemble(seq).U @ Am.conj().T
    rhs = assemble(gauged).U
    conjugation = _rel(lhs - rhs, rhs)

    k0 = _mid_site(spec)
    gam = random_unitary(rng, spec.m)
    gh = principal_unitary_sqrt(gam)
    ghi = gh.conj().T
    split_orig = assemble_split(seq, SplitSpec(k0=k0, gamma_left=gam,
                                               gamma_right=gam))
    gauged_g = gauge_transform(seq, ghi, gh)
    eye = np.eye(spec.m)
    split_gauged = assemble_split(gauged_g, SplitSpec(k0=k0, gamma_left=eye,
                                                      gamma_right=eye))
    Ag = block_diag(*(ghi if k % 2 == 1 else gh for k in seq.sites))
    lhs = Ag @ split_orig.U @ Ag.conj().T
    return [("scalar-phase-twist", twist, 1e-10),
            ("matrix-conjugation", conjugation, 1e-10),
            ("split-consistency", _rel(lhs - split_gauged.U, split_gauged.U), 1e-10)]


SUITES = {
    "unitarity": suite_unitarity,
    "decoupling": suite_decoupling,
    "connection": suite_connection,
    "quadratic": suite_quadratic,
    "green-half": suite_green_half,
    "green-full": suite_green_full,
    "weyl": suite_weyl,
    "wronskian": suite_wronskian,
    "analytic": suite_analytic,
    "gauge": suite_gauge,
}
# The shortest window, as k_max - k_min, whose every site a suite samples lies inside;
# the other suites run on any window EnsembleSpec accepts (k_max - k_min >= 4).
MIN_SPAN = {"connection": 5, "green-half": 7, "green-full": 7, "wronskian": 7,
            "analytic": 7, "weyl": 8, "quadratic": 9}


@dataclass(frozen=True)
class VerificationReport:
    """Sorted check results plus a non-deterministic meta block."""

    results: tuple
    meta: dict

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "results": [asdict(r) for r in self.results],
            "meta": dict(self.meta),
        }


def run_suite(names, spec: EnsembleSpec,
              tolerances: Tolerances | None = None) -> VerificationReport:
    """Run the named suites and collect a report.

    Every name and the window are checked first (UnknownSuite, OutOfRange).
    Each suite returns (check, residuals, default tolerance) triples; a check's
    residual is _worst(residuals) and its tolerance tolerances.pick(default).
    Results are sorted by (suite, check) so the output does not depend
    on the order of names; timing, total and per suite, goes into meta only.
    """
    tolerances = tolerances or Tolerances()
    for name in names:
        if name not in SUITES:
            raise UnknownSuite(
                f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
            )
        need = MIN_SPAN.get(name, 4)
        if spec.k_max - spec.k_min < need:
            raise OutOfRange(f"suite {name!r} needs a window with k_max - k_min >= {need}, "
                             f"got [{spec.k_min}, {spec.k_max}]")
    start = time.perf_counter()
    results, suite_seconds = [], {}
    for name in names:
        begin = time.perf_counter()
        checks = SUITES[name](spec, tolerances)
        suite_seconds[name] = time.perf_counter() - begin
        for check, residuals, default in checks:
            residual, tol = _worst(residuals), float(tolerances.pick(default))
            results.append(CheckResult(name, check, residual, tol, residual <= tol))
    results.sort(key=lambda r: (r.suite, r.check))
    meta = {
        "runtime_seconds": time.perf_counter() - start,
        "suite_seconds": suite_seconds,
        "seed": spec.seed,
        "m": spec.m,
        "window": [spec.k_min, spec.k_max],
        "radius_max": spec.radius_max,
        "distribution": spec.distribution.value,
        "version": __version__,
        "numpy": np.__version__,
    }
    return VerificationReport(results=tuple(results), meta=meta)
