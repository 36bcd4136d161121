"""m-functions by two routes, the minus-side transforms, and Weyl solutions."""

import sys

import numpy as np
import pytest

from cmvkit import assembly, weyl
from cmvkit.assembly import InvalidBoundary, assemble, cayley_block
from cmvkit.greens import dense_resolvent_entry, half_lattice_green
from cmvkit.weyl import (
    M_from_schur,
    M_function,
    M_gamma_transform,
    M_minus_at_zero,
    M_minus_from_m_minus,
    M_minus_via_connection,
    half_window_sequence,
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
    contractive,
    principal_unitary_sqrt,
    sequence_from_values,
)
from cmvkit.errors import ZOnUnitCircle
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
        a = m_function(seq, 12, g, z, sign, gamma_sqrt=root)
        b = m_from_edge_condition(seq, 12, g, z, sign, gamma_sqrt=root)
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
        M1 = M_function(seq, 10, g1, z, sign, gamma_sqrt=g1h)
        M2 = M_function(seq, 10, g2, z, sign, gamma_sqrt=g2h)
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


SANDWICH_Z = (0.0, 0.4 * np.exp(0.9j), 0.99 * np.exp(2j), 1.01 * np.exp(-1j),
              2.2j)


def dense_m(seq, k0, g, z, sign):
    """+/- E*(U + z)(U - z)^{-1} E from the dense half-window U, family frame."""
    ops = assemble(half_window_sequence(seq, k0, g, sign))
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
    for m in (1, 2, 3):
        spec = EnsembleSpec(m=m, k_min=0, k_max=30, seed=40 + m,
                            radius_max=0.85)
        seq = generate(spec)
        g = random_unitary(np.random.default_rng(50 + m), m)
        for k0 in (14, 15):
            for sign in (PLUS, MINUS):
                for z in SANDWICH_Z:
                    got = m_function(seq, k0, g, z, sign)
                    want = dense_m(seq, k0, g, z, sign)
                    assert np.linalg.norm(got - want) \
                        <= 1e-12 * np.linalg.norm(want)
                half = half_window_sequence(seq, k0, g, sign)
                assert np.array_equal(cayley_block(half, 0.0, k0), np.eye(m))


def test_m_routes_never_assemble(monkeypatch):
    real = assembly.assemble
    calls = []

    def counting(seq):
        calls.append(seq)
        return real(seq)

    for name, module in list(sys.modules.items()):
        if name.startswith("cmvkit") and getattr(module, "assemble", None) is real:
            monkeypatch.setattr(module, "assemble", counting)
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
    assert len(calls) == 1


def test_non_unitary_half_window_edge_rejected(monkeypatch):
    real = weyl.half_window_sequence

    def broken(seq, k0, gamma, sign):
        half = real(seq, k0, gamma, sign)
        half.alphas[half.k_max] = contractive(np.array([[0.5]]))
        return half

    monkeypatch.setattr(weyl, "half_window_sequence", broken)
    with pytest.raises(InvalidBoundary):
        m_function(scalar_sequence(0.3), 6, np.eye(1), 0.4, PLUS)
