"""Acceptance gate: one test and one printed verdict line per criterion.

Each test draws its own seeded ensembles, measures the worst residual
or rank outcome over the stated sample counts, prints a single
PASS/FAIL line, and then asserts. Tolerances are pinned here and are
not shared with the library defaults.
"""

import numpy as np

from cmvkit.analytic import (
    AtomicMeasure,
    cayley,
    herglotz_eval,
    inverse_cayley,
    is_caratheodory,
    reflect,
    uniform_grid_measure,
)
from cmvkit.assembly import SplitSpec, assemble, assemble_split
from cmvkit.coefficients import (
    factorize_svd,
    gauge_transform,
    principal_unitary_sqrt,
    sequence_from_values,
)
from cmvkit.decoupling import decoupling_report, det_criterion, minimal_phases
from cmvkit.greens import (
    dense_resolvent_entry,
    full_green_entries,
    full_green_scalar_prefactor,
    half_green_scalar_prefactor,
    half_lattice_green,
    wronskian,
    wronskian_symmetry_check,
)
from cmvkit.laurent import (
    MINUS,
    PLUS,
    connection,
    conjugation_symmetry,
    quadratic_identities,
    window_family,
)
from cmvkit.weyl import (
    M_function,
    M_minus_at_zero,
    M_minus_from_m_minus,
    m_from_edge_condition,
    m_function,
    m_minus_from_M_minus,
    schur_from_M,
    spectral_sample,
)
from cmvkit.cli.ensembles import EnsembleSpec, generate, random_unitary


def verdict(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def rel(diff, ref):
    return float(np.linalg.norm(diff) / max(1.0, np.linalg.norm(ref)))


def make_seq(m, seed, k_min=0, k_max=20, radius=0.8):
    return generate(EnsembleSpec(m=m, k_min=k_min, k_max=k_max, seed=seed,
                                 radius_max=radius))


def test_criterion_01_unitarity_and_structure():
    worst_unitary = worst_factor = worst_diag = 0.0
    band_ok = True
    for i in range(50):
        m = 1 + i % 3
        seq = make_seq(m, seed=i, k_max=16 + 2 * (i % 5), radius=0.88)
        ops = assemble(seq)
        n = ops.U.shape[0]
        worst_unitary = max(worst_unitary, float(np.linalg.norm(
            ops.U.conj().T @ ops.U - np.eye(n))))
        worst_factor = max(worst_factor, float(np.linalg.norm(
            ops.U - ops.V @ ops.W)))
        n_sites = n // m
        for a in range(n_sites):
            for b in range(n_sites):
                if abs(a - b) > 2 and np.any(
                        ops.U[a * m:(a + 1) * m, b * m:(b + 1) * m] != 0):
                    band_ok = False
        if m == 1:
            for a in range(n_sites):
                k = ops.offset + a
                want = -np.conj(seq.alpha(k)[0, 0]) * seq.alpha(k + 1)[0, 0]
                worst_diag = max(worst_diag, abs(ops.U[a, a] - want))
    ok = (worst_unitary <= 1e-10 and worst_factor <= 1e-12 and band_ok
          and worst_diag <= 1e-12)
    verdict(1, "unitarity-and-structure", ok,
            f"unitary {worst_unitary:.2e}, factor {worst_factor:.2e}, "
            f"band exact {band_ok}, diag {worst_diag:.2e}")


def test_criterion_02_scalar_split_ranks():
    failures = []
    for i in range(50):
        rng = np.random.default_rng(200 + i)
        seq = make_seq(1, seed=200 + i, k_max=10)
        k0 = 5
        alpha = seq.alpha(k0)
        t2 = float(rng.uniform(0, 2 * np.pi))
        sol = minimal_phases(alpha, [t2])
        rep = decoupling_report(seq, k0, sol.gamma1, sol.gamma2, rtol=1e-8)
        if rep.op_rank != 1 or any(r != 1 for r in rep.resolvent_ranks.values()):
            failures.append((i, "minimal", rep.op_rank))
        bumped = decoupling_report(seq, k0, sol.gamma1 * np.exp(0.1j),
                                   sol.gamma2, rtol=1e-8)
        if bumped.op_rank != 2:
            failures.append((i, "bumped", bumped.op_rank))
        single = decoupling_report(seq, k0, sol.gamma2, sol.gamma2, rtol=1e-8)
        if single.op_rank != 2:
            failures.append((i, "single-gamma", single.op_rank))
    verdict(2, "scalar-split-ranks", not failures,
            f"50 samples, rank misses {failures[:3] if failures else 'none'}")


def test_criterion_03_matrix_split_ranks():
    failures = []
    for i in range(30):
        m = 2 + i % 2
        rng = np.random.default_rng(300 + i)
        seq = make_seq(m, seed=300 + i, k_max=10)
        k0 = 5
        alpha = seq.alpha(k0)
        s = rng.uniform(0, 2 * np.pi, size=m)
        sol = minimal_phases(alpha, s)
        rep = decoupling_report(seq, k0, sol.gamma1, sol.gamma2, rtol=1e-8)
        if rep.op_rank != m or any(r != m for r in rep.resolvent_ranks.values()):
            failures.append((i, "minimal", rep.op_rank))
        fac = factorize_svd(alpha)
        tb = sol.t.copy()
        tb[i % m] += 0.1
        g1b = fac.sigma @ np.diag(np.exp(1j * tb)) @ fac.tau.conj().T
        bumped = decoupling_report(seq, k0, g1b, sol.gamma2, rtol=1e-8)
        if bumped.op_rank != m + 1:
            failures.append((i, "bumped", bumped.op_rank))
        eye = np.eye(m)
        single = decoupling_report(seq, k0, eye, eye, rtol=1e-8)
        if single.op_rank <= m:
            failures.append((i, "identity-gamma", single.op_rank))
    verdict(3, "matrix-split-ranks", not failures,
            f"30 samples, rank misses {failures[:3] if failures else 'none'}")


def test_criterion_04_determinant_criterion():
    worst_min = 0.0
    worst_off = np.inf
    for i in range(50):
        rng = np.random.default_rng(400 + i)
        alpha = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        t2 = float(rng.uniform(0, 2 * np.pi))
        sol = minimal_phases(np.array([[alpha]]), [t2])
        t1m = float(np.angle(sol.gamma1[0, 0]))
        t2m = float(np.angle(sol.gamma2[0, 0]))
        worst_min = max(worst_min, abs(det_criterion(alpha, t1m, t2m)))
        worst_off = min(worst_off,
                        abs(det_criterion(alpha, t1m + 0.1, t2m)),
                        abs(det_criterion(alpha, t1m, t2m - 0.1)))
    ok = worst_min <= 1e-12 and worst_off >= 0.01
    verdict(4, "determinant-criterion", ok,
            f"at minimum {worst_min:.2e}, off by 0.1 at least {worst_off:.3f}")


def test_criterion_05_connection_identities():
    zs = (0.45 * np.exp(0.7j), 0.5 * np.exp(2.9j), 1.8 * np.exp(1.3j),
          2.2 * np.exp(-0.5j), 0.35 * np.exp(4.1j))
    worst = 0.0
    for i in range(20):
        m = 1 + i % 2
        seq = make_seq(m, seed=500 + i)
        k0 = 10
        rng = np.random.default_rng(500 + i)
        g1, g2 = random_unitary(rng, m), random_unitary(rng, m)
        cc = connection(g1, g2, seq.alpha(k0), k0)
        sites = (seq.k_min + 1, k0 - 1, k0, k0 + 2, seq.k_max - 2)
        for z in zs:
            p1 = window_family(seq, g1, z, k0, PLUS)
            p2 = window_family(seq, g2, z, k0, PLUS)
            m2 = window_family(seq, g2, z, k0, MINUS)
            m2d = window_family(seq, g2, z, k0 - 1, MINUS)
            C2, D2 = cc.c2(z), cc.d2(z)
            for k in sites:
                a1, a2, b2, b2d = p1.at(k), p2.at(k), m2.at(k), m2d.at(k)
                worst = max(
                    worst,
                    rel(a2.Q - (a1.Q @ cc.C1 + a1.P @ cc.D1), a2.Q),
                    rel(a2.S - (a1.S @ cc.C1 + a1.R @ cc.D1), a2.S),
                    rel(a2.P - (a1.Q @ cc.D1 + a1.P @ cc.C1), a2.P),
                    rel(a2.R - (a1.S @ cc.D1 + a1.R @ cc.C1), a2.R),
                    rel(b2.Q - (a1.Q @ C2 + a1.P @ D2), b2.Q),
                    rel(b2.P - (a1.Q @ D2 + a1.P @ C2), b2.P),
                    rel(b2d.Q - (a1.Q @ cc.C3 + a1.P @ cc.D3), b2d.Q),
                    rel(b2d.P - (a1.Q @ cc.C4 + a1.P @ cc.D4), b2d.P))
    verdict(5, "connection-identities", worst <= 1e-9,
            f"worst relative residual {worst:.2e} over 20 samples x 5 z")


def test_criterion_06_quadratic_and_conjugation():
    worst_quad = 0.0
    worst_conj = 0.0
    for i in range(20):
        m = 1 + i % 3
        seq = make_seq(m, seed=600 + i)
        k0 = 10
        if m == 1:
            rng = np.random.default_rng(600 + i)
            g = np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])
        else:
            g = random_unitary(np.random.default_rng(600 + i), m)
        for z in (0.4 - 0.3j, 1.7 * np.exp(0.9j)):
            zc = 1.0 / np.conj(z)
            fams = {}
            for sign in (PLUS, MINUS):
                f = window_family(seq, g, z, k0, sign)
                fc = window_family(seq, f.boundary, zc, k0, sign)
                fams[sign] = (f, fc)
            for k in range(seq.k_min, seq.k_max):
                res = quadratic_identities(fams[PLUS], fams[MINUS], k)
                worst_quad = max(worst_quad, max(res.values()))
                if m == 1:
                    for sign in (PLUS, MINUS):
                        sym = conjugation_symmetry(fams[sign], k)
                        worst_conj = max(worst_conj, max(sym.values()))
    ok = worst_quad <= 1e-9 and worst_conj <= 1e-10
    verdict(6, "quadratic-and-conjugation", ok,
            f"bilinear {worst_quad:.2e}, scalar conjugation {worst_conj:.2e}")


def test_criterion_07_green_kernels_vs_dense():
    worst = 0.0
    worst_small = 0.0
    for m in (1, 2):
        seq = make_seq(m, seed=700 + m, k_max=40)
        k0 = 20
        g = random_unitary(np.random.default_rng(700 + m), m)
        rng = np.random.default_rng(710 + m)
        full_pairs = [tuple(rng.integers(k0 - 6, k0 + 7, size=2))
                      for _ in range(20)]
        half_pairs = {
            PLUS: [tuple(sorted(rng.integers(k0, k0 + 7, size=2),
                                reverse=bool(j % 2)))
                   for j in range(20)],
            MINUS: [tuple(rng.integers(k0 - 6, k0 + 1, size=2))
                    for _ in range(20)],
        }
        for z in (0.5 * np.exp(0.8j), 2.0 * np.exp(2.4j)):
            for sign in (PLUS, MINUS):
                for k, kp in half_pairs[sign]:
                    got = half_lattice_green(seq, k0, g, z, k, kp, sign).value
                    want = dense_resolvent_entry(seq, z, k, kp, half=sign,
                                                 k0=k0, gamma=g)
                    worst = max(worst, rel(got - want, want))
                    if m == 1:
                        pref = half_green_scalar_prefactor(seq, k0, g, z,
                                                           k, kp, sign)
                        worst = max(worst, abs(pref - want[0, 0])
                                    / max(1.0, abs(want[0, 0])))
            entries = full_green_entries(seq, k0, g, z, full_pairs)
            for e in entries:
                want = dense_resolvent_entry(seq, z, e.k, e.kp)
                worst = max(worst, rel(e.value - want, want))
                if m == 1:
                    pref = full_green_scalar_prefactor(seq, k0, g, z, e.k, e.kp)
                    worst = max(worst, abs(pref - want[0, 0])
                                / max(1.0, abs(want[0, 0])))
        for theta in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            z = 1e-3 * np.exp(1j * theta)
            for k, kp in ((k0, k0 + 1), (k0 + 2, k0 + 1), (k0, k0 + 2)):
                got = half_lattice_green(seq, k0, g, z, k, kp, PLUS).value
                want = dense_resolvent_entry(seq, z, k, kp, half=PLUS,
                                             k0=k0, gamma=g)
                worst_small = max(worst_small, rel(got - want, want))
            got = full_green_entries(seq, k0, g, z, [(k0 - 1, k0 + 1)])[0].value
            want = dense_resolvent_entry(seq, z, k0 - 1, k0 + 1)
            worst_small = max(worst_small, rel(got - want, want))
    ok = worst <= 1e-8 and worst_small <= 1e-6
    verdict(7, "green-kernels-vs-dense", ok,
            f"worst {worst:.2e} at |z| in {{0.5, 2}}, {worst_small:.2e} near 0")


def test_criterion_08_weyl_theory():
    seq = make_seq(2, seed=800, k_max=40)
    k0 = 20
    g = random_unitary(np.random.default_rng(800), 2)
    zs = [0.5 * np.exp(1j * t) for t in (0.3, 1.5, 2.8)] \
        + [2.0 * np.exp(1j * t) for t in (0.9, 4.2, 5.5)]
    worst_dual = worst_rt = 0.0
    for z in zs:
        for sign in (PLUS, MINUS):
            a = M_function(seq, k0, g, z, sign) if sign == PLUS \
                else m_function(seq, k0, g, z, sign)
            b = m_from_edge_condition(seq, k0, g, z, sign)
            worst_dual = max(worst_dual, rel(a - b, a))
        mm = m_function(seq, k0, g, z, MINUS)
        back = m_minus_from_M_minus(M_minus_from_m_minus(mm, z), z)
        worst_rt = max(worst_rt, float(np.linalg.norm(back - mm)))

    seq1 = sequence_from_values({k: (1.0 if k in (0, 12) else 0.4)
                                 for k in range(13)})
    frozen = M_minus_at_zero(seq1.alpha(6), np.eye(1))[0, 0]
    err_frozen = abs(frozen - (-7.0 / 3.0))
    closed = M_minus_at_zero(seq.alpha(k0), g)
    err_limit = rel(M_function(seq, k0, g, 1e-8 + 0j, MINUS) - closed, closed)

    samples_p, samples_m = [], []
    cara_ok = schur_ok = True
    for r in (0.25, 0.5, 0.75):
        for theta in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            z = r * np.exp(1j * theta)
            samp = spectral_sample(seq, k0, g, z)
            cara_ok &= samp.caratheodory_plus and samp.anti_caratheodory_minus
            schur_ok &= np.linalg.norm(samp.Phi_plus, 2) <= 1 + 1e-10
            samples_p.append((z, samp.m_plus))
            samples_m.append((z, -samp.m_minus))
    cara_ok &= is_caratheodory(samples_p).valid
    cara_ok &= is_caratheodory(samples_m).valid

    seq_s = make_seq(1, seed=801)
    z = 0.45 * np.exp(0.6j)
    twisted = []
    for t in (0.0, np.pi / 3, np.pi):
        gt = np.array([[np.exp(1j * t)]])
        Mt = M_function(seq_s, 10, gt, z, PLUS)
        twisted.append(np.exp(-1j * t) * schur_from_M(Mt)[0, 0])
    worst_t = max(abs(v - twisted[0]) for v in twisted)

    ok = (worst_dual <= 1e-10 and worst_rt <= 1e-12 and err_frozen <= 1e-12
          and err_limit <= 1e-6 and cara_ok and schur_ok and worst_t <= 1e-10)
    verdict(8, "weyl-theory", ok,
            f"dual route {worst_dual:.2e}, round trip {worst_rt:.2e}, "
            f"zero value {err_frozen:.1e}/{err_limit:.1e}, positivity "
            f"{cara_ok}, contraction {schur_ok}, t-independence {worst_t:.2e}")


def test_criterion_09_wronskian_identities():
    seq = make_seq(2, seed=900, k_max=40)
    k0 = 20
    g = random_unitary(np.random.default_rng(900), 2)
    worst_k = worst_md = worst_sym = worst_jump = 0.0
    from cmvkit.weyl import weyl_solution
    for z in (0.5 * np.exp(1.7j), 2.1 * np.exp(0.9j)):
        zc = 1.0 / np.conj(z)
        sol_p = weyl_solution(seq, k0, g, z, PLUS)
        sol_m = weyl_solution(seq, k0, g, z, MINUS)
        sol_pc = weyl_solution(seq, k0, g, zc, PLUS)
        sol_mc = weyl_solution(seq, k0, g, zc, MINUS)
        vals = [wronskian(sol_pc.at(k), sol_m.at(k), k)
                for k in range(k0 - 4, k0 + 5)]
        ref = vals[4]
        worst_k = max(worst_k, max(rel(v - ref, ref) for v in vals))
        worst_md = max(worst_md, rel((sol_m.M - sol_p.M) - ref, ref))
        worst_sym = max(worst_sym,
                        wronskian_symmetry_check(sol_p.M, sol_m.M))
        W = sol_p.M - sol_m.M
        eye = np.eye(2)
        for k in (k0 - 3, k0, k0 + 3):
            sgn = 1.0 if k % 2 == 1 else -1.0
            Up, Vp = sol_p.at(k)
            Um, Vm = sol_m.at(k)
            Upc, _ = sol_pc.at(k)
            Umc, _ = sol_mc.at(k)
            jump = Up @ np.linalg.solve(W, Umc.conj().T) \
                - Um @ np.linalg.solve(W, Upc.conj().T)
            worst_jump = max(worst_jump, rel(jump - 2.0 * sgn * eye, eye))
            null = Vp @ np.linalg.solve(W, Umc.conj().T) \
                - Vm @ np.linalg.solve(W, Upc.conj().T)
            worst_jump = max(worst_jump, rel(null, eye))
    ok = max(worst_k, worst_md, worst_sym, worst_jump) <= 1e-9
    verdict(9, "wronskian-identities", ok,
            f"k-indep {worst_k:.2e}, M-diff {worst_md:.2e}, "
            f"symmetry {worst_sym:.2e}, jump/null {worst_jump:.2e}")


def test_criterion_10_gauge_equivalence():
    worst = 0.0
    for i in range(10):
        m = 1 + i % 3
        rng = np.random.default_rng(1000 + i)
        seq1 = make_seq(1, seed=1000 + i)
        t = float(rng.uniform(0, 2 * np.pi))
        A = np.diag([np.exp(-1j * t / 2) if k % 2 == 1 else np.exp(1j * t / 2)
                     for k in seq1.sites]).astype(complex)
        beta = gauge_transform(seq1, np.array([[np.exp(-1j * t)]]), np.eye(1))
        worst = max(worst, rel(A @ assemble(seq1).U @ A.conj().T
                               - assemble(beta).U, assemble(beta).U))

        seq = make_seq(m, seed=1020 + i)
        sigma, tau = random_unitary(rng, m), random_unitary(rng, m)
        gauged = gauge_transform(seq, sigma, tau)
        blocks = [sigma if k % 2 == 1 else tau for k in seq.sites]
        n = m * seq.n_sites
        Am = np.zeros((n, n), dtype=complex)
        for j, b in enumerate(blocks):
            Am[j * m:(j + 1) * m, j * m:(j + 1) * m] = b
        worst = max(worst, rel(Am @ assemble(seq).U @ Am.conj().T
                               - assemble(gauged).U, assemble(gauged).U))

        k0 = 10
        gam = random_unitary(rng, m)
        gh = principal_unitary_sqrt(gam)
        ghi = gh.conj().T
        split_orig = assemble_split(seq, SplitSpec(k0=k0, gamma_left=gam,
                                                   gamma_right=gam))
        eye = np.eye(m)
        split_gauged = assemble_split(gauge_transform(seq, ghi, gh),
                                      SplitSpec(k0=k0, gamma_left=eye,
                                                gamma_right=eye))
        blocks = [ghi if k % 2 == 1 else gh for k in seq.sites]
        Ag = np.zeros_like(split_orig.U)
        for j, b in enumerate(blocks):
            Ag[j * m:(j + 1) * m, j * m:(j + 1) * m] = b
        worst = max(worst, rel(Ag @ split_orig.U @ Ag.conj().T
                               - split_gauged.U, split_gauged.U))
    verdict(10, "gauge-equivalence", worst <= 1e-10,
            f"worst relative residual {worst:.2e} over 10 samples")


def test_criterion_11_analytic_toolbox():
    rng = np.random.default_rng(1100)
    zetas, weights = [], []
    for _ in range(5):
        zetas.append(np.exp(2j * np.pi * rng.uniform()))
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        weights.append(G @ G.conj().T / 2)
    C = rng.standard_normal((2, 2))
    mu = AtomicMeasure(zetas=zetas, weights=weights, C=(C + C.T).astype(complex))
    worst_rt = 0.0
    for theta in (0.4, 1.9, 3.6, 5.1):
        F = herglotz_eval(mu, 0.7 * np.exp(1j * theta))
        worst_rt = max(worst_rt,
                       float(np.linalg.norm(inverse_cayley(cayley(F)) - F)))

    quad = abs(herglotz_eval(uniform_grid_measure(2048), 0.3 + 0.2j)[0, 0]
               - 1.0)

    seq = make_seq(2, seed=1101, k_max=40)
    k0 = 20
    g = random_unitary(rng, 2)
    worst_refl = 0.0
    for j in range(12):
        z = (0.5 if j % 2 else 1.9) * np.exp(2j * np.pi * rng.uniform())
        for sign in (PLUS, MINUS):
            mv = m_function(seq, k0, g, z, sign)
            zr, mr = reflect(z, mv)
            worst_refl = max(worst_refl,
                             rel(m_function(seq, k0, g, zr, sign) - mr, mr))
            worst_rt = max(worst_rt, float(np.linalg.norm(
                inverse_cayley(cayley(mv)) - mv)))
    ok = worst_rt <= 1e-12 and quad <= 1e-10 and worst_refl <= 1e-9
    verdict(11, "analytic-toolbox", ok,
            f"cayley {worst_rt:.2e}, quadrature {quad:.2e}, "
            f"reflection {worst_refl:.2e}")


def test_criterion_12_free_case_convergence():
    vals = {k: 0.0 for k in range(65)}
    vals[0] = 1.0
    vals[64] = 1.0
    seq = sequence_from_values(vals)
    got = m_function(seq, 32, np.eye(1), 0.3, PLUS)[0, 0]
    oracle = herglotz_eval(uniform_grid_measure(4096), 0.3)[0, 0]
    err = abs(got - oracle)
    verdict(12, "free-case-convergence", err < 1e-3,
            f"|m_plus(0.3) - quadrature oracle| = {err:.2e} at 64 sites")
