"""m-functions by two routes, the minus-side transforms, and Weyl solutions."""

import itertools
import sys

import numpy as np
import pytest

from cmvkit import assembly, coefficients, weyl
from cmvkit.analytic import herglotz_eval, uniform_grid_measure
from cmvkit.assembly import assemble, resolvent_blocks
from cmvkit.decoupling import decoupling_report, minimal_phases
from cmvkit.greens import (
    dense_resolvent_entries,
    dense_resolvent_entry,
    full_green_entries,
    half_green_entries,
    half_lattice_green,
)
from cmvkit.weyl import (
    M_from_schur,
    M_function,
    M_gamma_transform,
    M_minus_at_zero,
    M_minus_from_m_minus,
    M_minus_via_connection,
    m_from_edge_condition,
    m_function,
    m_minus_from_M_minus,
    m_minus_from_schur_minus,
    schur_from_M,
    schur_gamma_conjugation,
    schur_parity_formula,
    spectral_sample,
    weyl_solution,
)
from cmvkit.laurent import MINUS, PLUS, seed_family, transfer, transfer_inverse
from cmvkit.coefficients import (
    BoundaryUnitary,
    DimensionMismatch,
    NotUnitary,
    VerblunskyCoefficient,
    VerblunskySequence,
    contractive,
    principal_unitary_sqrt,
    sequence_from_values,
)
from cmvkit.errors import NotFinite, OutOfRange, SiteOutOfWindow, ZOnUnitCircle
from cmvkit.cli.ensembles import Distribution, EnsembleSpec, generate, random_unitary
from cmvkit.cli.suites import run_suite


def scalar_sequence(alpha, n=12):
    vals = {k: alpha for k in range(0, n + 1)}
    vals[0] = 1.0
    vals[n] = 1.0
    return sequence_from_values(vals)


def test_normalization_at_zero():
    spec = EnsembleSpec(m=3, k_min=0, k_max=20, seed=0, radius_max=0.85)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(1), 3)
    for k0 in (9, 10):
        np.testing.assert_allclose(m_function(seq, k0, g, 0.0, PLUS),
                                   np.eye(3), atol=1e-13)
        np.testing.assert_allclose(m_function(seq, k0, g, 0.0, MINUS),
                                   -np.eye(3), atol=1e-13)


def test_free_case_converges_on_long_windows():
    """With zero coefficients m_plus and -m_minus at the middle of 0..n tend to the
    Caratheodory function of arc-length, 1 inside the disk (the quadrature oracle
    over 2^16 atoms), and the error falls with n as |z|^(n/2) from 10^3 to 10^4
    sites, down to rounding at |z| = 0.99."""
    for z in (0.99, 0.999 * np.exp(0.5j)):
        oracle = herglotz_eval(uniform_grid_measure(2 ** 16), z)[0, 0]
        for sign in (PLUS, MINUS):
            errs = []
            for n in (1000, 4000, 10000):
                values = np.zeros((n + 1, 1, 1), dtype=complex)
                values[0] = values[-1] = 1.0
                got = m_function(VerblunskySequence(0, values), n // 2, np.eye(1), z, sign)
                errs.append(abs(sign * got[0, 0] - oracle))
                assert errs[-1] <= max(4.0 * abs(z) ** (n / 2), 1e-13), (z, sign, n)
            assert errs[0] > errs[1] > errs[2], (z, sign, errs)


def test_two_routes_agree():
    """Resolvent sandwich and far-boundary matching give one m-function."""
    rng = np.random.default_rng(2)
    for m in (1, 2):
        spec = EnsembleSpec(m=m, k_min=0, k_max=24, seed=10 + m,
                            radius_max=0.85)
        seq = generate(spec)
        g = random_unitary(rng, m)
        for k0 in (11, 12):
            for sign in (PLUS, MINUS):
                for z in (0.4 * np.exp(0.9j), 1.8 * np.exp(2.2j)):
                    a = m_function(seq, k0, g, z, sign)
                    b = m_from_edge_condition(seq, k0, g, z, sign)
                    np.testing.assert_allclose(a, b, atol=1e-10)


def test_two_routes_agree_with_alternate_root():
    spec = EnsembleSpec(m=2, k_min=0, k_max=24, seed=3, radius_max=0.85)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(4), 2)
    root = -principal_unitary_sqrt(g)
    z = 0.41 - 0.22j
    for sign in (PLUS, MINUS):
        a = m_function(seq, 12, BoundaryUnitary(g, root), z, sign)
        b = m_from_edge_condition(seq, 12, BoundaryUnitary(g, root), z, sign)
        np.testing.assert_allclose(a, b, atol=1e-11)


def test_minus_transform_round_trip():
    spec = EnsembleSpec(m=2, k_min=0, k_max=20, seed=5, radius_max=0.85)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(6), 2)
    z = 0.37 + 0.29j
    mm = m_function(seq, 10, g, z, MINUS)
    Mm = M_minus_from_m_minus(mm, z)
    np.testing.assert_allclose(m_minus_from_M_minus(Mm, z), mm, atol=1e-12)
    phi = schur_from_M(Mm)
    np.testing.assert_allclose(M_from_schur(phi), Mm, atol=1e-12)
    np.testing.assert_allclose(m_minus_from_schur_minus(phi, z), mm,
                               atol=1e-11)


def test_minus_transforms_reject_non_finite_z_and_keep_zero():
    """The three minus-side transforms check z like every other entry: NaN or infinite z
    raises NotFinite, with no warning and no SingularFactor; z = 0 stays valid."""
    spec = EnsembleSpec(m=2, k_min=0, k_max=20, seed=5, radius_max=0.85)
    seq = generate(spec)
    mm = m_function(seq, 10, random_unitary(np.random.default_rng(6), 2), 0.37 + 0.29j, MINUS)
    phi = schur_from_M(M_minus_from_m_minus(mm, 0.37 + 0.29j))
    transforms = (M_minus_from_m_minus, m_minus_from_M_minus, m_minus_from_schur_minus)
    for transform in transforms:
        for z in (np.nan, complex(np.nan, 1.0), np.inf, complex(0.5, -np.inf)):
            with pytest.raises(NotFinite):
                transform(phi if transform is m_minus_from_schur_minus else mm, z)
    eye = np.eye(2)
    np.testing.assert_allclose(M_minus_from_m_minus(mm, 0), eye, atol=1e-12)
    np.testing.assert_allclose(m_minus_from_M_minus(mm, 0), -eye, atol=1e-12)
    np.testing.assert_allclose(m_minus_from_schur_minus(phi, 0), -eye, atol=1e-12)


def test_minus_three_routes():
    """Moebius transform, connection coefficients, and edge matching."""
    spec = EnsembleSpec(m=2, k_min=0, k_max=24, seed=7, radius_max=0.85)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(8), 2)
    for k0 in (11, 12):
        for z in (0.45 * np.exp(1.2j), 2.1 * np.exp(-0.4j)):
            M1 = M_function(seq, k0, g, z, MINUS)
            M2 = M_minus_via_connection(seq, k0, g, z)
            M3 = M_minus_from_m_minus(
                m_from_edge_condition(seq, k0, g, z, MINUS), z)
            np.testing.assert_allclose(M1, M2, atol=1e-11)
            np.testing.assert_allclose(M1, M3, atol=1e-11)


def test_minus_routes_agree_with_a_mixed_root():
    """A root of gamma that is neither +/- the principal one reaches both
    factors of the connection route."""
    spec = EnsembleSpec(m=2, k_min=0, k_max=24, seed=7, radius_max=0.85)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(8), 2)
    w, q = np.linalg.eig(g)
    root = (q * (np.sqrt(w) * [1, -1])) @ np.linalg.inv(q)
    np.testing.assert_allclose(root @ root, g, atol=1e-13)
    for k0 in (11, 12):
        z = 0.45 * np.exp(1.2j)
        M1 = M_function(seq, k0, BoundaryUnitary(g, root), z, MINUS)
        M2 = M_minus_via_connection(seq, k0, BoundaryUnitary(g, root), z)
        np.testing.assert_allclose(M1, M2, atol=1e-11)


def test_minus_at_zero_frozen_value():
    # constant alpha = 0.4 with identity gamma gives exactly -7/3
    seq = scalar_sequence(0.4)
    got = M_minus_at_zero(seq.alpha(6), np.eye(1))
    np.testing.assert_allclose(got, [[-7.0 / 3.0]], atol=1e-14)
    # M_function at z = 0 agrees with the closed form
    np.testing.assert_allclose(M_function(seq, 6, np.eye(1), 0.0, MINUS),
                               got, atol=0)


def test_minus_at_zero_matches_limit():
    spec = EnsembleSpec(m=2, k_min=0, k_max=20, seed=9, radius_max=0.8)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(10), 2)
    closed = M_minus_at_zero(seq.alpha(10), g)
    lim = M_function(seq, 10, g, 1e-7 + 0j, MINUS)
    np.testing.assert_allclose(closed, lim, atol=1e-5)


def test_minus_near_zero_keeps_its_digits():
    """M_minus at |z| <= 1e-6 lies within 10|z| (relative) of M_minus_at_zero, the distance
    the true value keeps (1.33|z| measured): G enters M_minus with no 2z to cancel. The
    Cayley-type transform of m_minus lost log10(1/|z|) digits, 5.8e8|z| at 1e-12i."""
    for m, k0 in itertools.product((1, 2, 3), (19, 20, 21)):
        seq = generate(EnsembleSpec(m=m, k_min=0, k_max=40, seed=5))
        g = random_unitary(np.random.default_rng(m + 30), m)
        closed = M_minus_at_zero(seq.alpha(k0), g)
        for z in (1e-12j, 1e-9j, 1e-6j, 1e-12, -1e-9):
            got = M_function(seq, k0, g, z, MINUS)
            assert np.linalg.norm(got - closed) <= 10 * abs(z) * np.linalg.norm(closed), \
                (m, k0, z)


def test_M_minus_is_accurate_against_a_40_digit_solve():
    """Against a 40-digit solve of the same float64 minus half window (G = E* W* (V -
    z W*)^{-1} E, framed, then -(I - (1 - z)G)(I + (1 + z)G)^{-1}), M_minus is off by 5e-15
    relative at most (8.7e-16 measured): m = 1, 2, 40 sites, both k0 parities, at 1e-12i
    and inside, near and outside the circle. The transform of m_minus was off by 2.4e-3
    at 1e-12i."""
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(40):
        for m, k0 in itertools.product((1, 2), (19, 20)):
            seq = generate(EnsembleSpec(m=m, k_min=0, k_max=40, seed=5))
            g = BoundaryUnitary(random_unitary(np.random.default_rng(m + 10), m))
            gh, eye = mp.matrix(g.root.tolist()), mp.eye(m)
            ops = assemble(half_window(seq, k0, g.gamma, MINUS))
            n = ops.U.shape[0]
            V, W_star = mp.matrix(ops.V.tolist()), mp.matrix(ops.W.conj().T.tolist())
            at = ops.site_slice(k0)
            for z in (1e-12j, 0.5 * np.exp(0.7j), 0.99 * np.exp(-2.5j), 1.9 * np.exp(1.3j)):
                zm = mp.mpc(z.real, z.imag)
                (LU, piv), X = mp.mp.LU_decomp(V - zm * W_star), mp.zeros(n, m)
                for i in range(m):                # one LU, a solve per column
                    e = mp.zeros(n, 1)
                    e[at.start + i] = 1
                    X[:, i] = mp.mp.U_solve(LU, mp.mp.L_solve(LU, e, piv))
                G = (W_star * X)[at.start:at.stop, 0:m]
                G = gh * G * gh.H if k0 % 2 == 0 else gh.H * G * gh
                ref = -(eye - (1 - zm) * G) * mp.inverse(eye + (1 + zm) * G)
                got = mp.matrix(M_function(seq, k0, g, z, MINUS).tolist())
                worst = max(worst, float(mp.mnorm(got - ref, 'F') / mp.mnorm(ref, 'F')))
    assert worst <= 5e-15, worst


def test_M_minus_at_zero_checks_the_half_window():
    """At z = 0 as at any z, a minus half of fewer than 4 sites is SiteOutOfWindow."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=20, seed=5))
    for z in (0.0, 0.5):
        with pytest.raises(SiteOutOfWindow, match="4 sites"):
            M_function(seq, seq.k_min + 1, np.eye(2), z, MINUS)


def test_plus_equals_plain_m():
    spec = EnsembleSpec(m=2, k_min=0, k_max=20, seed=11, radius_max=0.85)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(12), 2)
    z = 0.5 * np.exp(0.6j)
    np.testing.assert_allclose(M_function(seq, 10, g, z, PLUS),
                               m_function(seq, 10, g, z, PLUS), atol=0)


def test_weyl_solution_satisfies_far_edge():
    """Q + P M obeys the edge relation at the far end of the half-window."""
    spec = EnsembleSpec(m=2, k_min=0, k_max=24, seed=13, radius_max=0.85)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(14), 2)
    k0 = 12
    z = 0.45 * np.exp(1.0j)
    sol_p = weyl_solution(seq, k0, g, z, PLUS)
    k_edge = seq.k_max - 1
    U, V = sol_p.at(k_edge)
    g_r = seq.alpha(seq.k_max)
    want = (-g_r @ V) if k_edge % 2 == 1 else (-z * g_r.conj().T @ V)
    np.testing.assert_allclose(U, want, atol=1e-8)
    sol_m = weyl_solution(seq, k0, g, z, MINUS)
    U0, V0 = sol_m.at(seq.k_min)
    g_l = seq.alpha(seq.k_min)
    want0 = (z * g_l @ V0) if seq.k_min % 2 == 1 else (g_l.conj().T @ V0)
    np.testing.assert_allclose(U0, want0, atol=1e-8)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k_min", [0, 1, -3])
def test_weyl_solutions_on_sites_equal_the_whole_window_ones(m, k_min):
    """With sites, the family runs from k0 to the farthest site on each side and no
    farther, and the values there are the whole-window solutions' bit for bit: both
    signs, z inside and outside the disk, spans around k0, on one side of it, and k0."""
    seq = generate(EnsembleSpec(m=m, k_min=k_min, k_max=k_min + 30, seed=40 + m,
                                radius_max=0.9))
    g = random_unitary(np.random.default_rng(41 + m), m)
    k0 = k_min + 15
    for z in (0.45 * np.exp(0.7j), 1.6 * np.exp(-2.2j)):
        whole = weyl.weyl_solutions(seq, k0, g, z)
        for a, b in ((k0 - 4, k0 + 6), (k0 + 2, k0 + 9), (k_min, k0 - 3), (k0, k0)):
            part = weyl.weyl_solutions(seq, k0, g, z, sites=(a, b))
            assert [sol.sign for sol in part] == [PLUS, MINUS]
            for sol, ref in zip(part, whole):
                assert (sol.k_lo, sol.k_hi) == (min(a, k0), max(b, k0))
                assert np.array_equal(sol.M, ref.M)
                assert np.array_equal(sol.UV[a - sol.k_lo:b - sol.k_lo + 1],
                                      ref.UV[a - k_min:b - k_min + 1]), (z, a, b, sol.sign)


def test_schur_parity_formula_at_reference():
    spec = EnsembleSpec(m=2, k_min=0, k_max=20, seed=15, radius_max=0.85)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(16), 2)
    z = 0.4 * np.exp(2.0j)
    for k0 in (9, 10):
        for sign in (PLUS, MINUS):
            M = M_function(seq, k0, g, z, sign)
            np.testing.assert_allclose(
                schur_parity_formula(seq, k0, g, z, k0, sign),
                schur_from_M(M), atol=1e-10)


def test_schur_parity_formula_reads_only_its_site_on_a_long_window():
    """At 4000 sites the whole-window family overflows; the formula reads k only."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=4000, seed=4000))
    g = random_unitary(np.random.default_rng(4001), 2)
    for sign in (PLUS, MINUS):
        np.testing.assert_allclose(
            schur_parity_formula(seq, 2000, g, 0.5, 2000, sign),
            schur_from_M(M_function(seq, 2000, g, 0.5, sign)), rtol=0, atol=1e-12)
        assert np.all(np.isfinite(schur_parity_formula(seq, 2000, g, 0.5, 2003, sign)))


def test_spectral_sample_flags_and_bounds():
    spec = EnsembleSpec(m=2, k_min=0, k_max=20, seed=17, radius_max=0.85)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(18), 2)
    inside = spectral_sample(seq, 10, g, 0.5 * np.exp(0.3j))
    assert inside.caratheodory_plus
    assert inside.anti_caratheodory_minus
    assert inside.schur_plus
    assert inside.anti_schur_minus
    assert np.linalg.norm(inside.Phi_plus, 2) <= 1 + 1e-10
    outside = spectral_sample(seq, 10, g, 1.9 * np.exp(0.8j))
    assert outside.caratheodory_plus
    assert outside.schur_plus


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_spectral_sample_rejects_a_bad_tolerance(tol):
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=20, seed=17, radius_max=0.85))
    g = random_unitary(np.random.default_rng(18), 2)
    with pytest.raises(OutOfRange, match="tolerance"):
        spectral_sample(seq, 10, g, 0.5 * np.exp(0.3j), tol=tol)


def test_reflection_symmetry():
    spec = EnsembleSpec(m=2, k_min=0, k_max=20, seed=19, radius_max=0.85)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(20), 2)
    z = 0.43 * np.exp(1.4j)
    for sign in (PLUS, MINUS):
        a = m_function(seq, 10, g, 1.0 / np.conj(z), sign)
        b = m_function(seq, 10, g, z, sign)
        np.testing.assert_allclose(a, -b.conj().T, atol=1e-11)


def test_gamma_transformation_law():
    """Changing the boundary unitary conjugates Phi and maps M accordingly."""
    spec = EnsembleSpec(m=2, k_min=0, k_max=20, seed=21, radius_max=0.85)
    seq = generate(spec)
    rng = np.random.default_rng(22)
    g1, g2 = random_unitary(rng, 2), random_unitary(rng, 2)
    g1h, g2h = principal_unitary_sqrt(g1), principal_unitary_sqrt(g2)
    z = 0.5 * np.exp(1.9j)
    for sign in (PLUS, MINUS):
        M1 = M_function(seq, 10, BoundaryUnitary(g1, g1h), z, sign)
        M2 = M_function(seq, 10, BoundaryUnitary(g2, g2h), z, sign)
        np.testing.assert_allclose(M_gamma_transform(M1, g1h, g2h), M2,
                                   atol=1e-11)
        phi2 = schur_gamma_conjugation(schur_from_M(M1), g1h, g2h)
        np.testing.assert_allclose(phi2, schur_from_M(M2), atol=1e-11)


def test_scalar_phase_independence():
    """exp(-it) Phi does not depend on the scalar boundary phase t."""
    spec = EnsembleSpec(m=1, k_min=0, k_max=20, seed=23, radius_max=0.85)
    seq = generate(spec)
    z = 0.5 * np.exp(0.7j)
    vals = []
    for t in (0.0, np.pi / 3, np.pi):
        g = np.array([[np.exp(1j * t)]])
        phi = schur_from_M(M_function(seq, 10, g, z, PLUS))
        vals.append(np.exp(-1j * t) * phi[0, 0])
    np.testing.assert_allclose(vals[1], vals[0], atol=1e-12)
    np.testing.assert_allclose(vals[2], vals[0], atol=1e-12)


def test_circle_points_rejected():
    seq = scalar_sequence(0.3)
    with pytest.raises(ZOnUnitCircle):
        m_function(seq, 6, np.eye(1), np.exp(0.4j), PLUS)
    with pytest.raises(ZOnUnitCircle):
        m_from_edge_condition(seq, 6, np.eye(1), np.exp(0.4j), PLUS)


SANDWICH_Z = (0.0, 0.4 * np.exp(0.9j), 0.99 * np.exp(2j), 1.01 * np.exp(-1j),
              2.2j)


def half_window(seq, k0, g, sign):
    """The half window at k0 built as its own sequence, gamma installed at the cut."""
    if sign == PLUS:
        return seq.restrict(k0, seq.k_max, left=g)
    return seq.restrict(seq.k_min, k0 + 1, right=g)


def dense_m(seq, k0, g, z, sign):
    """+/- E*(U + z)(U - z)^{-1} E from the dense half-window U, family frame."""
    ops = assemble(half_window(seq, k0, g, sign))
    n = ops.U.shape[0]
    E = np.zeros((n, seq.m), dtype=complex)
    E[ops.site_slice(k0)] = np.eye(seq.m)
    X = np.linalg.solve(ops.U - z * np.eye(n), E)
    raw = sign * (E.conj().T @ (ops.U @ X + z * X))
    gh = principal_unitary_sqrt(g)
    if k0 % 2 == 0:
        return gh @ raw @ gh.conj().T
    return gh.conj().T @ raw @ gh


def test_banded_m_matches_dense_sandwich():
    """Interior cuts of both parities, the narrowest legal half windows (4
    sites) and the widest ones, on windows starting at 0, 1 and -3."""
    for m in (1, 2, 3):
        for k_min in (0, 1, -3):
            spec = EnsembleSpec(m=m, k_min=k_min, k_max=k_min + 30,
                                seed=40 + m - k_min, radius_max=0.85)
            seq = generate(spec)
            g = random_unitary(np.random.default_rng(50 + m - k_min), m)
            mid = (k_min + 14, k_min + 15)
            cuts = {PLUS: mid + (seq.k_max - 4, seq.k_max - 5, k_min),
                    MINUS: mid + (k_min + 3, k_min + 4, seq.k_max - 1)}
            for sign, k0s in cuts.items():
                for k0 in k0s:
                    for z in SANDWICH_Z:
                        got = m_function(seq, k0, g, z, sign)
                        want = dense_m(seq, k0, g, z, sign)
                        assert np.linalg.norm(got - want) \
                            <= 1e-12 * np.linalg.norm(want), (m, k_min, sign, k0, z)
                    G, = resolvent_blocks(seq, 0.0, [(k0, k0)], sign, k0, g)
                    assert np.array_equal(np.eye(m) + 2.0 * 0.0 * G, np.eye(m))


def test_banded_oracle_matches_dense_lu():
    """Every block of 30-site windows and of both their half windows, m = 1..3,
    both k_min parities: the banded oracle equals a dense LU solve. All blocks
    of one (window, z) come from one batched call, so one banded LU."""
    for m in (1, 2, 3):
        for k_min in (0, 1):
            seq = generate(EnsembleSpec(m=m, k_min=k_min, k_max=k_min + 30,
                                        seed=80 + 2 * m + k_min, radius_max=0.85))
            g = random_unitary(np.random.default_rng(90 + 2 * m + k_min), m)
            k0 = k_min + 15
            windows = {None: seq, PLUS: half_window(seq, k0, g, PLUS),
                       MINUS: half_window(seq, k0, g, MINUS)}
            for half, win in windows.items():
                ops = assemble(win)
                n = ops.U.shape[0]
                for z in SANDWICH_Z:
                    dense = np.linalg.solve(ops.U - z * np.eye(n), np.eye(n))
                    pairs = [(k, kp) for k in win.sites for kp in win.sites]
                    blocks = dense_resolvent_entries(seq, z, pairs, half=half, k0=k0, gamma=g)
                    for (k, kp), got in zip(pairs, blocks):
                        want = dense[ops.site_slice(k), ops.site_slice(kp)]
                        assert np.linalg.norm(got - want) <= \
                            1e-12 * max(np.linalg.norm(want), 1.0), (m, k_min, half, z, k, kp)


def test_banded_m_has_no_dense_row_cap():
    """On parents of 400 and 1200 sites at m = 2, past the 512-row dense cap,
    each half window's m equals m on the half window built as its own
    sequence, with the Caratheodory signs of the two halves; at 1200 sites
    the oracle agrees with both kernels within 6 sites of k0."""
    for k_max, k0 in ((400, 201), (1200, 600)):
        seq = generate(EnsembleSpec(m=2, k_min=0, k_max=k_max, seed=k_max))
        g = random_unitary(np.random.default_rng(k_max + 1), 2)
        halves = {PLUS: seq.restrict(k0, k_max, left=g),
                  MINUS: seq.restrict(0, k0 + 1, right=g)}
        for sign, half in halves.items():
            for z in (0.6 * np.exp(0.7j), 1.6 * np.exp(-2j)):
                got = m_function(seq, k0, g, z, sign)
                assert np.array_equal(got, m_function(half, k0, g, z, sign))
                herm = np.linalg.eigvalsh((got + got.conj().T) / 2)
                outward = sign * (1 if abs(z) < 1 else -1)
                assert np.all(outward * herm >= -1e-10), (k_max, sign, z, herm)
    z = 0.6 * np.exp(0.7j)
    near = {PLUS: [(k0, k0), (k0 + 1, k0 + 4), (k0 + 6, k0 + 2), (k0 + 5, k0 + 5)],
            MINUS: [(k0, k0), (k0 - 1, k0 - 4), (k0 - 6, k0 - 2), (k0 - 5, k0 - 5)]}
    for sign, pairs in near.items():
        for k, kp in pairs:
            got = half_lattice_green(seq, k0, g, z, k, kp, sign).value
            want = dense_resolvent_entry(seq, z, k, kp, half=sign, k0=k0, gamma=g)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want), (sign, k, kp)
    pairs = [(k0, k0), (k0 - 6, k0 + 6), (k0 + 6, k0 - 6), (k0 + 3, k0 - 1)]
    for entry in full_green_entries(seq, k0, g, z, pairs):
        want = dense_resolvent_entry(seq, z, entry.k, entry.kp)
        assert np.linalg.norm(entry.value - want) <= 1e-8 * np.linalg.norm(want), entry


def test_m_routes_build_no_sequence_after_the_first_call(monkeypatch):
    """m_function, spectral_sample and both half kernels neither restrict nor
    construct a sequence or coefficient, nor place blocks, once seq.bands exists."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=24, seed=62, radius_max=0.85))
    g = random_unitary(np.random.default_rng(63), 2)
    z = 0.5 * np.exp(0.8j)
    m_function(seq, 12, g, z, PLUS)
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for cls, name in ((VerblunskySequence, "restrict"), (VerblunskySequence, "__post_init__"),
                      (VerblunskyCoefficient, "__post_init__")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    monkeypatch.setattr(assembly, "_placed_blocks",
                        counted("_placed_blocks", assembly._placed_blocks))
    for k0 in (11, 12):
        for sign in (PLUS, MINUS):
            m_function(seq, k0, g, 1.7 - 0.4j, sign)
        spectral_sample(seq, k0, g, z)
        half_lattice_green(seq, k0, g, z, k0 + 1, k0 + 3, PLUS)
        half_lattice_green(seq, k0, g, z, k0 - 3, k0 - 1, MINUS)
    assert calls == []


def test_one_gamma_root_per_public_call(monkeypatch):
    """An array gamma is checked (is_unitary) and rooted once, by the first call that
    sees its value, however many families and m-functions that call builds from it;
    every later call with an equal array (a fresh copy) checks and roots it zero times."""
    coefficients._boundary.cache_clear()
    calls = {"principal_unitary_sqrt": [], "is_unitary": []}
    for fn, seen in calls.items():
        real = getattr(coefficients, fn)

        def counting(*args, real=real, seen=seen, **kwargs):
            seen.append(1)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("cmvkit") and getattr(module, fn, None) is real:
                monkeypatch.setattr(module, fn, counting)
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=24, seed=64, radius_max=0.85))
    g = random_unitary(np.random.default_rng(65), 2)
    z = 0.5 * np.exp(0.8j)
    for i, call in enumerate((lambda g: spectral_sample(seq, 12, g, z),
                              lambda g: spectral_sample(seq, 12, g, 0.0),
                              lambda g: half_lattice_green(seq, 12, g, z, 13, 15, PLUS),
                              lambda g: half_lattice_green(seq, 12, g, z, 9, 11, MINUS),
                              lambda g: full_green_entries(seq, 12, g, z, [(9, 14), (14, 9)]))):
        for seen in calls.values():
            seen.clear()
        call(g.copy())
        assert len(calls["principal_unitary_sqrt"]) == (1 if i == 0 else 0)
        assert len(calls["is_unitary"]) == (1 if i == 0 else 0)


def test_m_routes_never_assemble(monkeypatch):
    calls = []
    for attr in ("assemble", "assemble_split"):
        real = getattr(assembly, attr)

        def counting(*args, real=real):
            calls.append(args)
            return real(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("cmvkit") and getattr(module, attr, None) is real:
                monkeypatch.setattr(module, attr, counting)
    spec = EnsembleSpec(m=2, k_min=0, k_max=24, seed=60, radius_max=0.85)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(61), 2)
    z = 0.5 * np.exp(0.8j)
    m_function(seq, 12, g, z, PLUS)
    spectral_sample(seq, 12, g, z)
    half_lattice_green(seq, 12, g, z, 13, 15, PLUS)
    half_lattice_green(seq, 12, g, z, 9, 11, MINUS)
    assert calls == []
    dense_resolvent_entry(seq, z, 12, 13)
    dense_resolvent_entry(seq, z, 12, 15, half=PLUS, k0=12, gamma=g)
    assert calls == []
    for k0 in (12, 13):                       # the cut block in V, then in W
        sol = minimal_phases(seq.alpha(k0), [0.3, 1.1])
        assert decoupling_report(seq, k0, sol.gamma1, sol.gamma2).minimal
    assert calls == []


def test_spectral_sample_solves_two_m_functions_per_z(count_calls):
    """Both signs' m once each, from one banded LU of both half windows; M_minus is
    M_function's, also at z = 0."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=24, seed=66, radius_max=0.85))
    g = random_unitary(np.random.default_rng(67), 2)
    lu = count_calls(assembly, "_gbtrf")
    halves = count_calls(weyl, "cut_resolvent_blocks", lambda *args: args[4])
    for z in (0.0, 0.5 * np.exp(0.8j), 1.9 * np.exp(-2.1j)):
        del lu[:], halves[:]
        s = spectral_sample(seq, 12, g, z)
        assert len(lu) == 1 and halves == [(PLUS, MINUS)]
        assert np.array_equal(s.M_minus, M_function(seq, 12, g, z, MINUS))
        assert np.array_equal(s.M_plus, M_function(seq, 12, g, z, PLUS))
        assert np.array_equal(s.m_minus, m_function(seq, 12, g, z, MINUS))


@pytest.mark.parametrize("z", [0.0] + [r * np.exp(0.8j) for r in (0.5, 0.99, 1.01, 2.0)])
@pytest.mark.parametrize("k0", [12, 13])
def test_spectral_sample_equals_its_one_matrix_helpers(z, k0):
    """The stacked Cayley solve, eigvalsh and svd give each matrix's own call bit for bit."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=24, seed=68, radius_max=0.85))
    g = random_unitary(np.random.default_rng(69), 2)
    s = spectral_sample(seq, k0, g, z)
    mp, mm = (m_function(seq, k0, g, z, sign) for sign in (PLUS, MINUS))
    Mm = M_function(seq, k0, g, z, MINUS)
    phip, phim = schur_from_M(mp), schur_from_M(Mm)
    got = (s.m_plus, s.m_minus, s.M_plus, s.M_minus, s.Phi_plus, s.Phi_minus)
    assert all(np.array_equal(a, b) for a, b in zip(got, (mp, mm, mp, Mm, phip, phim)))
    eig_p, eig_m = (np.linalg.eigvalsh((F + F.conj().T) / 2.0) for F in (mp, mm))
    stacked = weyl._herm_eigs(np.stack((mp, mm)))
    assert np.array_equal(stacked[0], eig_p) and np.array_equal(stacked[1], eig_m)
    norm_p, sv_m = np.linalg.norm(phip, 2), np.linalg.svd(phim, compute_uv=False)
    sv = np.linalg.svd(np.stack((phip, phim)), compute_uv=False)
    assert sv[0, 0] == norm_p and np.array_equal(sv[1], sv_m)
    tol = 1e-10
    if abs(z) < 1:
        want = (eig_p.min() >= -tol, eig_m.max() <= tol, norm_p <= 1 + tol, sv_m[-1] >= 1 - tol)
    else:
        want = (eig_p.max() <= tol, eig_m.min() >= -tol, norm_p >= 1 - tol, sv_m[-1] <= 1 + tol)
    assert (s.caratheodory_plus, s.anti_caratheodory_minus,
            s.schur_plus, s.anti_schur_minus) == want == (True,) * 4


def test_non_unitary_half_window_edge_rejected():
    """A non-unitary edge cannot reach a half-window solve: the stack refuses it."""
    seq = scalar_sequence(0.3)
    with pytest.raises(NotUnitary, match=f"site {seq.k_max}:"):
        seq.replace(seq.k_max, contractive(np.array([[0.5]])))
    with pytest.raises(ValueError, match="read-only"):
        seq.values[-1] = 0.5
    assert np.array_equal(seq.alpha(seq.k_max), [[1.0]])
    assert np.isfinite(m_function(seq, 6, np.eye(1), 0.4, PLUS)).all()


def test_m_function_errors_are_pinned():
    """Bad sites, short half windows and bad gammas raise one exact type each."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=20, seed=70))
    rng = np.random.default_rng(71)
    g = random_unitary(rng, 2)
    nan_gamma = np.array([[np.nan, 0.0], [0.0, 1.0]])
    gammas = ((random_unitary(rng, 3), DimensionMismatch),
              (np.ones(2), DimensionMismatch),
              (0.5 * g, NotUnitary),
              (nan_gamma, NotFinite))
    cases = []
    for sign, short in ((PLUS, (17, 19)), (MINUS, (2, 0))):
        cases += [(sign, k0, g, SiteOutOfWindow) for k0 in (-1, 20, 21, -5) + short]
        cases += [(sign, 10, gam, err) for gam, err in gammas]
    for sign, k0, gam, err in cases:
        with pytest.raises(err) as info:
            m_function(seq, k0, gam, 0.5j, sign)
        assert type(info.value) is err, (sign, k0, type(info.value))
        if gam is not g:    # a given root does not excuse a bad gamma
            with pytest.raises(err) as info:
                m_function(seq, k0, BoundaryUnitary(gam, np.eye(2)), 0.5j, sign)
            assert type(info.value) is err


def _trailing_rows(lu, piv, rhs, end):
    """The rows end - len(rhs) .. end solved from the LU's columns there only, pivots shifted."""
    start = end - len(rhs)
    return assembly._solve(lu[:, start:end], piv[start:end] - start, rhs, 1.0)


def _in_matrix(lu):
    """lu with the band entries above its matrix (row c - 2b + s < 0 at [s, c]), which gbtrf
    neither sets nor reads, zeroed."""
    b = (len(lu) - 1) // 3
    rows = np.arange(len(lu))[:, None] + np.arange(lu.shape[1]) - 2 * b
    return np.where(rows >= 0, lu, 0)


def _own_lus(seq, k0, g, z):
    """The banded LU of each half window's pencil alone, plus half reversed (J P J: its band
    rows b .. 3b and its columns flipped), in the order PLUS, MINUS."""
    b, block, lus = 2 * seq.m - 1, assembly._cut_block(g, seq.m), []
    for half in (PLUS, MINUS):
        lo, hi, k = assembly._half_window(seq, k0, half)
        P = assembly._pencil(*assembly._cut_bands(seq, k, block, lo, hi), z)
        if half == PLUS:
            P[b:], P[:b] = P[b:][::-1, ::-1].copy(), 0.0
        lus.append(assembly._factor(P, z))
    return lus


def test_trailing_block_solve_equals_the_full_solve_tail(monkeypatch):
    """For a right-hand side on a half window's last m rows, a gbtrs on the LU's K trailing
    columns gives the full solve's last K rows bit for bit, K >= 3m - 1. The one LU of both
    halves side by side equals each half's own LU on its columns, so a half's trailing block
    there is its own."""
    real, factored = assembly._factor, []

    def keeping(pencil, z):
        factored.append(real(pencil, z))
        return factored[-1]

    monkeypatch.setattr(assembly, "_factor", keeping)
    for m in (1, 2, 3):
        seq = generate(EnsembleSpec(m=m, k_min=0, k_max=40, seed=90 + m))
        g = random_unitary(np.random.default_rng(91 + m), m)
        for k0, z in ((19, 0.6 * np.exp(1.1j)), (20, 1.7 * np.exp(-0.4j)), (4, 2.2j)):
            own = _own_lus(seq, k0, g, z)
            factored.clear()
            weyl._m_functions(seq, k0, g, z)
            (lu, piv), = factored
            n = own[0][0].shape[1]
            assert np.array_equal(_in_matrix(lu[:, :n]), _in_matrix(own[0][0]))
            assert np.array_equal(_in_matrix(lu[:, n:]), _in_matrix(own[1][0]))
            assert np.array_equal(piv[:n], own[0][1])
            assert np.array_equal(piv[n:] - n, own[1][1])
            for lu_h, piv_h in own:
                size = lu_h.shape[1]
                rhs = np.eye(size, m, m - size, dtype=complex)
                full = assembly._solve(lu_h, piv_h, rhs, z)
                for K in (3 * m - 1, 3 * m, 4 * m, 5 * m - 1):
                    assert np.array_equal(_trailing_rows(lu_h, piv_h, rhs[-K:], size), full[-K:])


CUT_Z = (0.0, 0.99 * np.exp(2j), 1.01 * np.exp(-1j), 2.2j)


def test_m_function_agrees_with_the_oracle_solve():
    """m_function (k0 eliminated last, a trailing-block solve) and +/-(I + 2z G(k0, k0))
    from resolvent_blocks' general solve, two independent routes, agree to 1e-13:
    m = 1..3, k_min in {0, 1, -3}, both parities of k0, the 4-site edge cuts; where both
    halves hold 4 sites, the both-sign route gives each one-sign value bit for bit."""
    for m in (1, 2, 3):
        for k_min in (0, 1, -3):
            seq = generate(EnsembleSpec(m=m, k_min=k_min, k_max=k_min + 24,
                                        seed=100 + m - k_min, radius_max=0.9))
            g = BoundaryUnitary(random_unitary(np.random.default_rng(110 + m - k_min), m))
            cuts = {PLUS: (k_min, k_min + 11, k_min + 12, seq.k_max - 4),
                    MINUS: (k_min + 3, k_min + 11, k_min + 12, seq.k_max - 1)}
            for sign, k0s in cuts.items():
                for k0 in k0s:
                    for z in CUT_Z:
                        got = m_function(seq, k0, g, z, sign)
                        G, = resolvent_blocks(seq, z, [(k0, k0)], sign, k0, g)
                        raw = sign * (np.eye(m) + 2.0 * z * G)
                        gh = g.root
                        want = gh @ raw @ gh.conj().T if k0 % 2 == 0 else gh.conj().T @ raw @ gh
                        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), \
                            (m, k_min, sign, k0, z)
                        if k_min + 3 <= k0 <= seq.k_max - 4:
                            both = weyl._m_functions(seq, k0, g, z)
                            assert np.array_equal(both[0 if sign == PLUS else 1], got)


def test_m_function_is_accurate_against_a_30_digit_solve():
    """Against a 30-digit solve of the same float64 half window, G = E* W* (V - z W*)^{-1} E
    with V and W* exact, m+/- (framed in 30 digits too) are off by 5e-15 relative at most:
    m = 1, 2, window 0..30, both signs, z inside, near and outside the circle."""
    mp = pytest.importorskip("mpmath")
    worst, k0 = 0.0, 15
    with mp.workdps(30):
        for m in (1, 2):
            seq = generate(EnsembleSpec(m=m, k_min=0, k_max=30, seed=m))
            g = BoundaryUnitary(random_unitary(np.random.default_rng(m + 10), m))
            gh = mp.matrix(g.root.tolist())
            for sign in (PLUS, MINUS):
                ops = assemble(half_window(seq, k0, g.gamma, sign))
                n = ops.U.shape[0]
                V, W_star = mp.matrix(ops.V.tolist()), mp.matrix(ops.W.conj().T.tolist())
                at = ops.site_slice(k0)
                for z in (0.5 * np.exp(0.7j), 0.99 * np.exp(-2.5j), 1.9 * np.exp(1.3j)):
                    zm = mp.mpc(z.real, z.imag)
                    (LU, piv), X = mp.mp.LU_decomp(V - zm * W_star), mp.zeros(n, m)
                    for i in range(m):                # one LU, a solve per column
                        e = mp.zeros(n, 1)
                        e[at.start + i] = 1
                        X[:, i] = mp.mp.U_solve(LU, mp.mp.L_solve(LU, e, piv))
                    G = (W_star * X)[at.start:at.stop, 0:m]
                    raw = sign * (mp.eye(m) + 2 * zm * G)
                    ref = gh * raw * gh.H if k0 % 2 == 0 else gh.H * raw * gh
                    got = m_function(seq, k0, g, z, sign)
                    err = mp.mnorm(mp.matrix(got.tolist()) - ref, 'F') / mp.mnorm(ref, 'F')
                    worst = max(worst, float(err))
    assert worst <= 5e-15, worst


def test_m_function_route_makes_one_lu_and_short_solves(count_calls):
    """One banded LU per m_function, spectral_sample, half-kernel and full-kernel call, and
    no gbtrs on the m-function route reaches past K = 3m - 1 columns."""
    lu = count_calls(assembly, "_gbtrf")
    widths = count_calls(assembly, "_gbtrs", lambda ab, *args, **kwargs: ab.shape[1])
    z = 0.6 * np.exp(0.4j)
    for m in (1, 2, 3):
        seq = generate(EnsembleSpec(m=m, k_min=0, k_max=30, seed=120 + m, radius_max=0.9))
        g = random_unitary(np.random.default_rng(121 + m), m)
        calls = [lambda: m_function(seq, 15, g, z, PLUS), lambda: m_function(seq, 14, g, z, MINUS),
                 lambda: spectral_sample(seq, 15, g, z), lambda: spectral_sample(seq, 14, g, 0.0),
                 lambda: M_function(seq, 15, g, z, MINUS),
                 lambda: half_lattice_green(seq, 15, g, z, 16, 18, PLUS),
                 lambda: half_lattice_green(seq, 15, g, z, 12, 15, MINUS),
                 lambda: full_green_entries(seq, 15, g, z, [(12, 18), (18, 12)]),
                 lambda: weyl.weyl_solutions(seq, 15, g, z)]
        for call in calls:
            del lu[:], widths[:]
            call()
            assert len(lu) == 1 and widths and max(widths) <= 3 * m - 1, (m, lu, widths)


def test_m_function_stays_finite_at_the_largest_z():
    """Near the float range's end, m+/- are -/+ I to rounding (G(k0, k0) ~ -1/z), with
    nothing overflowing on the way: z G is formed before it is doubled."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=40, seed=1))
    g = random_unitary(np.random.default_rng(2), 2)
    for z in (-1e308, 1e308j, 1e300):
        for sign in (PLUS, MINUS):
            got = m_function(seq, 20, g, z, sign)
            assert np.linalg.norm(got + sign * np.eye(2)) <= 1e-14, (z, sign)
        assert spectral_sample(seq, 20, g, z).schur_plus


EDGE_Z = (0.1, 0.35 * np.exp(0.8j), 1.8 * np.exp(1.1j), 0.9 * np.exp(0.3j),
          1.1 * np.exp(-2.1j), 0.95j, 1.05, 0.999 * np.exp(1j))


def test_edge_route_agrees_with_m_function_across_the_window(count_calls):
    """The edge route (the edge relation's subspace carried to k0, orthonormal after every
    site) and m_function agree to 1e-13 relative, and no family is propagated: m = 1..3,
    windows of 12 and 41 sites with k_min 0, -3, 1 and one of 2000 sites, k0 at both 4-site
    cuts, the middle and the middle + 1, both signs, z off and near the circle. At |z| =
    0.999 the two routes' data differ by more than their arithmetic (V and W hold rho, the
    transfer matrices rho^-1): a 40-digit product of the float64 transfer matrices alone
    sits up to 2.7e-13 from a 40-digit solve of V - z W*, so there the bound is 5e-13;
    test_edge_route_is_accurate_against_its_transfer_matrices in 40 digits pins the route."""
    propagated = count_calls(weyl, "propagate")
    cases = [(m, n, k_min) for m in (1, 2, 3) for n in (12, 41) for k_min in (0, -3, 1)]
    for m, n, k_min in cases + [(2, 2000, 0)]:
        seq = generate(EnsembleSpec(m=m, k_min=k_min, k_max=k_min + n,
                                    seed=140 + 10 * m - k_min + n))
        g = BoundaryUnitary(random_unitary(np.random.default_rng(150 + m - k_min + n), m))
        mid = k_min + n // 2
        for k0 in (k_min + 3, mid, mid + 1, k_min + n - 4):
            for sign in (PLUS, MINUS):
                for z in EDGE_Z:
                    want = m_function(seq, k0, g, z, sign)
                    got = m_from_edge_condition(seq, k0, g, z, sign)
                    tol = 5e-13 if abs(abs(z) - 0.999) < 1e-9 else 1e-13
                    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want), \
                        (m, n, k_min, k0, sign, z)
    assert not propagated


def test_edge_route_is_accurate_against_its_transfer_matrices():
    """At |z| = 0.999, on windows of 41 and 60 sites (m = 2, 3; k0 at both 4-site cuts and
    the middle; both signs), the edge route is within 1e-13 of its own data solved in 40
    digits: (C; I) carried to k0 by the float64 transfer matrices, then solved against the
    seed. A family shot outward from k0 to the edge misses this by up to 1e-11 at 60 sites."""
    mp = pytest.importorskip("mpmath")
    z = 0.999 * np.exp(1j)
    with mp.workdps(40):
        for n in (41, 60):
            for m in (2, 3):
                seq = generate(EnsembleSpec(m=m, k_min=0, k_max=n, seed=2))
                g = BoundaryUnitary(random_unitary(np.random.default_rng(12), m))
                for k0, sign in itertools.product((3, n // 2, n - 4), (PLUS, MINUS)):
                    if sign == PLUS:
                        k_edge, a = n - 1, seq.alpha(n)
                        C = -a if k_edge % 2 else -z * a.conj().T
                        steps = [transfer_inverse(seq, z, k) for k in range(k_edge, k0, -1)]
                    else:     # the edge site k_min = 0 is even
                        a = seq.alpha(0)
                        C, steps = a.conj().T, [transfer(seq, z, k) for k in range(1, k0 + 1)]
                    Y = mp.matrix(np.vstack((C, np.eye(m))).tolist())
                    for T in steps:
                        Y = mp.matrix(T.tolist()) * Y
                    c = mp.inverse(mp.matrix(seed_family(g, z, k0, sign).X[0].tolist())) * Y
                    want = c[0:m, 0:m] * mp.inverse(c[m:2 * m, 0:m])
                    got = mp.matrix(m_from_edge_condition(seq, k0, g, z, sign).tolist())
                    err = mp.mnorm(got - want, 'F') / mp.mnorm(want, 'F')
                    assert err <= 1e-13, (n, m, k0, sign, float(err))


def test_edge_route_holds_at_fixed_radius_near_one():
    """Coefficients all of norm 0.9999 (rho ~ 0.014, transfer matrices of condition ~ 2e4):
    the edge route stays within 1e-12 of m_function at z = 10 and 0.01."""
    for m, n in ((1, 12), (2, 41), (3, 100)):
        seq = generate(EnsembleSpec(m=m, k_min=0, k_max=n, seed=200 + m + n, radius_max=0.9999,
                                    distribution=Distribution.FIXED_RADIUS))
        g = random_unitary(np.random.default_rng(m), m)
        for k0, sign, z in itertools.product((3, n // 2, n - 4), (PLUS, MINUS), (10.0, 0.01)):
            want = m_function(seq, k0, g, z, sign)
            got = m_from_edge_condition(seq, k0, g, z, sign)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (m, n, k0, sign, z)


def test_weyl_suite_passes_on_long_windows():
    """The weyl suite, whose M-plus-equals-m-plus check runs the edge route, passes at m = 2,
    seed 7, on 1500 and 10000 sites."""
    for k_max in (1500, 10000):
        assert run_suite(["weyl"], EnsembleSpec(m=2, k_min=0, k_max=k_max, seed=7)).passed


def test_M_minus_at_zero_is_the_one_formula():
    """M_function(..., 0, MINUS) equals spectral_sample's M_minus at 0 bit for bit, and lies
    within 1e-14 (relative; 1.8e-15 measured) of the closed form M_minus_at_zero."""
    for m in (1, 2, 3):
        seq = generate(EnsembleSpec(m=m, k_min=0, k_max=30, seed=160 + m))
        g = random_unitary(np.random.default_rng(161 + m), m)
        for k0 in (14, 15):
            got = M_function(seq, k0, g, 0, MINUS)
            assert np.array_equal(got, spectral_sample(seq, k0, g, 0).M_minus)
            closed = M_minus_at_zero(seq.alpha(k0), g)
            assert np.linalg.norm(got - closed) <= 1e-14 * np.linalg.norm(closed), (m, k0)


def test_edge_route_reports_its_z_range_limit():
    """Past the edge route's z-range (a step z o1 or o2 / z, or its product with the carried
    basis, leaving the float range) it raises NotFinite naming that limit, not a singular
    factor; at 1e300 and 1e-300 it still agrees with m_function to 1e-15 relative."""
    for seed in (1, 2, 3):
        seq = generate(EnsembleSpec(m=2, k_min=0, k_max=40, seed=seed))
        g = random_unitary(np.random.default_rng(seed + 1), 2)
        for sign in (PLUS, MINUS):
            for z in (1e308j, -1e308j):
                with pytest.raises(NotFinite, match="edge route.*1.8e308"):
                    m_from_edge_condition(seq, 20, g, z, sign)
            for z in (1e300, 1e-300):
                want = m_function(seq, 20, g, z, sign)
                got = m_from_edge_condition(seq, 20, g, z, sign)
                assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want), (seed, sign, z)


def _cut_case(k_max=24, seed=170):
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=k_max, seed=seed, radius_max=0.9))
    return seq, random_unitary(np.random.default_rng(seed + 1), 2)


def test_cut_bands_are_built_once_per_sequence_cut_and_gamma(count_calls):
    """A grid of z at one cut builds the z-free cut bands once, whichever form gamma comes in
    (an array, an equal copy, a BoundaryUnitary of it); a new gamma or k0 builds again, and
    the cached call gives the first call's values bit for bit."""
    builds = count_calls(assembly, "cut_band_storage", lambda seq, k0, gamma: k0)
    seq, g = _cut_case()
    zs = [r * np.exp(1j * t) for r in (0.5, 0.99, 1.01, 2.0) for t in (0.3, 2.9)] + [0.0]
    first = [spectral_sample(seq, 12, g, z) for z in zs]
    for z in zs:
        for gamma in (g.copy(), BoundaryUnitary(g)):
            m_function(seq, 12, gamma, z, PLUS)
            M_function(seq, 12, gamma, z, MINUS)
    half_green_entries(seq, 12, g, zs[0], [(13, 15)], PLUS)
    full_green_entries(seq, 12, g, zs[0], [(9, 15)])
    assert builds == [12]
    again = [spectral_sample(seq, 12, g, z) for z in zs]
    for a, b in zip(first, again):
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    fresh = VerblunskySequence(seq.k_min, seq.values)
    for z, s in zip(zs, first):
        assert np.array_equal(weyl._m_functions(fresh, 12, g, z), np.stack((s.m_plus, s.m_minus)))
    assert builds == [12, 12]
    m_function(seq, 12, g @ g, zs[0], PLUS)
    m_function(seq, 13, g, zs[0], MINUS)
    assert builds == [12, 12, 12, 13]


def test_cut_bands_are_read_only_and_bounded():
    """Every cached array is read-only, and sweeping every cut keeps at most CUT_BANDS_KEPT
    entries on the sequence, the latest ones; a failed build is not kept."""
    seq, g = _cut_case()
    b = BoundaryUnitary(g)
    cut = seq.cut_bands(12, b)
    arrays = [cut.V, cut.W_star] + [a for h in cut.halves.values() for a in h[2:]]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
    assert sorted(cut.halves) == [MINUS, PLUS]
    for k0 in range(seq.k_min, seq.k_max):
        m_function(seq, k0, b, 0.5j, PLUS if k0 <= seq.k_max - 4 else MINUS)
        assert len(seq._cut_store) <= coefficients.CUT_BANDS_KEPT
    kept = [k0 for k0, _ in seq._cut_store]
    assert kept == list(range(seq.k_max - coefficients.CUT_BANDS_KEPT, seq.k_max))
    for k0, gamma, err in ((-5, b, SiteOutOfWindow), (40, b, SiteOutOfWindow),
                           (12, BoundaryUnitary(np.eye(3)), DimensionMismatch)):
        with pytest.raises(err):
            seq.cut_bands(k0, gamma)
        assert [k for k, _ in seq._cut_store] == kept


def test_cut_bands_serve_the_long_half_of_an_edge_cut(count_calls):
    """At a cut where one half holds fewer than 4 sites, the entry serves the other half
    (matching the oracle solve) and asking for the short one raises SiteOutOfWindow; a
    one-sign call factors its own half's columns only."""
    widths = count_calls(assembly, "_gbtrf", lambda ab, *args, **kwargs: ab.shape[1])
    seq, g = _cut_case()
    m, z = seq.m, 0.6 * np.exp(0.4j)
    b = BoundaryUnitary(g)
    for k0, served, short in ((1, PLUS, MINUS), (seq.k_max - 2, MINUS, PLUS)):
        got = m_function(seq, k0, b, z, served)
        assert list(seq.cut_bands(k0, b).halves) == [served]
        G, = resolvent_blocks(seq, z, [(k0, k0)], served, k0, g)
        raw = served * (np.eye(m) + 2.0 * z * G)
        want = b.root @ raw @ b.root.conj().T if k0 % 2 == 0 else b.root.conj().T @ raw @ b.root
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        for call in (lambda: m_function(seq, k0, b, z, short),
                     lambda: spectral_sample(seq, k0, b, z)):
            with pytest.raises(SiteOutOfWindow):
                call()
    del widths[:]
    i = 12 * m
    for signs in ((PLUS,), (MINUS,), (PLUS, MINUS)):
        weyl._m_functions(seq, 12, b, z, signs)
    assert widths == [m * seq.n_sites - i, i + m, m * seq.n_sites + m]


def test_oracle_and_decoupling_read_no_cut_bands(count_calls):
    """The Green oracle and the decoupling solves build their pencils per call and never
    read a cut_bands entry, so they stay independent checks of the m-function route."""
    reads = count_calls(VerblunskySequence, "cut_bands")
    seq, g = _cut_case(k_max=30)
    z = 0.5 * np.exp(0.8j)
    dense_resolvent_entries(seq, z, [(12, 15), (15, 12)])
    dense_resolvent_entry(seq, z, 13, 15, half=PLUS, k0=12, gamma=g)
    dense_resolvent_entry(seq, z, 9, 11, half=MINUS, k0=12, gamma=g)
    sol = minimal_phases(seq.alpha(13), [0.3, 1.1])
    decoupling_report(seq, 13, sol.gamma1, sol.gamma2)
    assert reads == [] and not seq.__dict__.get("_cut_store")
    m_function(seq, 12, g, z, PLUS)
    assert len(reads) == 1
