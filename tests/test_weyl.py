"""m-functions by two routes, the minus-side transforms, and Weyl solutions."""

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
from cmvkit.laurent import MINUS, PLUS
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
from cmvkit.cli.ensembles import EnsembleSpec, generate, random_unitary


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
    # dispatching through M_function at z = 0 takes the closed form
    np.testing.assert_allclose(M_function(seq, 6, np.eye(1), 0.0, MINUS),
                               got, atol=0)


def test_minus_at_zero_matches_limit():
    spec = EnsembleSpec(m=2, k_min=0, k_max=20, seed=9, radius_max=0.8)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(10), 2)
    closed = M_minus_at_zero(seq.alpha(10), g)
    lim = M_function(seq, 10, g, 1e-7 + 0j, MINUS)
    np.testing.assert_allclose(closed, lim, atol=1e-5)


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


def test_spectral_sample_solves_two_m_functions_per_z(monkeypatch):
    """Both signs' m once each; M_minus is M_function's, also at z = 0."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=24, seed=66, radius_max=0.85))
    g = random_unitary(np.random.default_rng(67), 2)
    real, calls = weyl.m_function, []

    def counting(*args, **kwargs):
        calls.append(args[4])
        return real(*args, **kwargs)

    for z in (0.0, 0.5 * np.exp(0.8j), 1.9 * np.exp(-2.1j)):
        monkeypatch.setattr(weyl, "m_function", counting)
        calls.clear()
        s = spectral_sample(seq, 12, g, z)
        assert calls == [PLUS, MINUS]
        monkeypatch.setattr(weyl, "m_function", real)
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
    Mm = M_minus_at_zero(seq.alpha(k0), g) if z == 0 else M_minus_from_m_minus(mm, z)
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
