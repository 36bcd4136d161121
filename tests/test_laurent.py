"""Transfer matrices, seeded solution families, and connection coefficients."""

import warnings

import numpy as np
import pytest

from dataclasses import replace

from cmvkit import coefficients, laurent
from cmvkit.laurent import (
    MINUS,
    PLUS,
    PathLeavesWindow,
    connection,
    conjugation_symmetry,
    propagate,
    quadratic_identities,
    seed_family,
    transfer,
    transfer_inverse,
    window_family,
)
from cmvkit.coefficients import (
    BoundaryUnitary,
    DefectPair,
    defect_matrices,
    principal_unitary_sqrt,
    sequence_from_values,
    theta_block,
)
from cmvkit.errors import CmvError, MatrixCaseUnsupported, NotFinite, OutOfRange, ZeroZ
from cmvkit.cli.ensembles import EnsembleSpec, generate, random_unitary


def free_sequence(n=16):
    vals = {k: 0.0 for k in range(0, n + 1)}
    vals[0] = 1.0
    vals[n] = 1.0
    return sequence_from_values(vals)


def test_free_transfer_matrices():
    seq = free_sequence()
    z = 0.7 * np.exp(0.4j)
    odd = transfer(seq, z, 5)
    np.testing.assert_allclose(odd, [[0, z], [1 / z, 0]], atol=1e-15)
    even = transfer(seq, z, 6)
    np.testing.assert_allclose(even, [[0, 1], [1, 0]], atol=1e-15)


def test_transfer_inverse_two_routes():
    """Closed-form inverse against the generic numpy inverse."""
    spec = EnsembleSpec(m=2, k_min=0, k_max=14, seed=0, radius_max=0.85)
    seq = generate(spec)
    for z in (0.45 * np.exp(1.1j), 1.7 * np.exp(-0.6j)):
        for k in (5, 6, 9):
            T = transfer(seq, z, k)
            Ti = transfer_inverse(seq, z, k)
            np.testing.assert_allclose(Ti, np.linalg.inv(T), atol=1e-12)
            np.testing.assert_allclose(T @ Ti, np.eye(4), atol=1e-12)


def _fresh_transfer_pair(alpha, z, k):
    """T(z, k) and its inverse from a defect recompute, no cache involved."""
    d = defect_matrices(alpha.copy())
    ri, rti = np.linalg.inv(d.rho), np.linalg.inv(d.rho_tilde)
    a, ah = alpha, alpha.conj().T
    if k % 2 == 1:
        T = [[rti @ a, z * rti], [ri / z, ri @ ah]]
        Ti = [[-ri @ ah, z * ri], [rti / z, -rti @ a]]
    else:
        T = [[ri @ ah, ri], [rti, rti @ a]]
        Ti = [[-rti @ a, rti], [ri, -ri @ ah]]
    return np.block(T), np.block(Ti)


@pytest.mark.parametrize("m", (1, 2))
def test_cached_defects_match_fresh_recompute(m):
    """Blocks built from the sequence's cached, stacked defect algebra equal a
    recompute exactly."""
    seq = generate(EnsembleSpec(m=m, k_min=0, k_max=12, seed=50 + m))
    g = random_unitary(np.random.default_rng(60 + m), m)
    z = complex(0.6 * np.exp(0.9j))
    window_family(seq, g, z, 6, PLUS)   # fill the cache on every site
    for k in (3, 4, 7, 8):
        want_T, want_Ti = _fresh_transfer_pair(seq.alpha(k), z, k)
        assert np.array_equal(transfer(seq, z, k), want_T)
        assert np.array_equal(transfer_inverse(seq, z, k), want_Ti)
        A, i = seq.arrays, k - seq.k_min - 1
        assert np.array_equal(theta_block(A.alpha[i], DefectPair(A.rho[i], A.rho_tilde[i])),
                              theta_block(seq.alpha(k).copy()))


def test_window_families_compute_each_defect_pair_once(monkeypatch):
    """Families at two z on one sequence factor each interior site once."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=24, seed=55))
    g = random_unitary(np.random.default_rng(56), 2)
    calls = []
    raw = coefficients._defects_raw

    def counted(alpha):
        calls.append(1)
        return raw(alpha)

    monkeypatch.setattr(coefficients, "_defects_raw", counted)
    for z in (0.5 * np.exp(0.3j), 1.7 * np.exp(-1.2j)):
        for sign in (PLUS, MINUS):
            window_family(seq, g, z, 12, sign)
    n_interior = seq.k_max - seq.k_min - 1
    assert 0 < len(calls) <= n_interior


def test_overflowing_family_raises_not_finite():
    """z = 1e200 overflows the free family in both directions from k0 = 6; the
    overflow is reported as NotFinite, not warned about and returned."""
    seq = free_sequence()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for target in (0, 15):
            with pytest.raises(NotFinite):
                propagate(seq, seed_family(np.eye(1), 1e200, 6, PLUS), target)


def test_transfer_needs_interior_site():
    seq = free_sequence()
    with pytest.raises(PathLeavesWindow):
        transfer(seq, 0.5, 0)
    with pytest.raises(ZeroZ):
        transfer(seq, 0.0, 5)


def _per_site_family(seq, fam, k_lo, k_hi):
    """Reference propagation: one transfer()/transfer_inverse() call per site,
    each pair (P; R) and (Q; S) stepped on its own."""
    m = fam.m
    vals = {fam.k0: (fam.P[0], fam.R[0], fam.Q[0], fam.S[0])}

    def step(T, X, Y):
        return T[:m, :m] @ X + T[:m, m:] @ Y, T[m:, :m] @ X + T[m:, m:] @ Y

    for k in range(fam.k0 + 1, k_hi + 1):
        T = transfer(seq, fam.z, k)
        P, R, Q, S = vals[k - 1]
        vals[k] = (*step(T, P, R), *step(T, Q, S))
    for k in range(fam.k0, k_lo, -1):
        Ti = transfer_inverse(seq, fam.z, k)
        P, R, Q, S = vals[k]
        vals[k - 1] = (*step(Ti, P, R), *step(Ti, Q, S))
    return {k: (P, R, Q, S) for k, (P, R, Q, S) in vals.items()}


def _assert_window_family_matches_per_site(seq, g, z, k0, sign):
    fam = window_family(seq, g, z, k0, sign)
    want = _per_site_family(seq, seed_family(g, z, k0, sign), seq.k_min, seq.k_max - 1)
    assert (fam.k_lo, fam.k_hi) == (seq.k_min, seq.k_max - 1)
    for k, letters in want.items():
        site = fam.at(k)
        for got, ref in zip((site.P, site.R, site.Q, site.S), letters):
            err = np.linalg.norm(got - ref)
            assert err <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_propagate_matches_per_site_transfers(m):
    """Stacked banded-solve propagation agrees with per-site transfers."""
    seq = generate(EnsembleSpec(m=m, k_min=-3, k_max=27, seed=70 + m))
    g = random_unitary(np.random.default_rng(80 + m), m)
    for k0 in (11, 12):
        for z in (0.55 * np.exp(0.8j), 1.9 * np.exp(-2.3j)):
            for sign in (PLUS, MINUS):
                _assert_window_family_matches_per_site(seq, g, z, k0, sign)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_propagate_matches_per_site_transfers_on_long_windows(m):
    """The banded solve stays within 1e-12 of per-site transfers over 400 sites,
    forward and backward from k0, inside, near and outside the unit circle."""
    seq = generate(EnsembleSpec(m=m, k_min=0, k_max=400, seed=170 + m))
    g = random_unitary(np.random.default_rng(180 + m), m)
    for r in (0.5, 0.99, 1.01, 2.0):
        for sign in (PLUS, MINUS):
            _assert_window_family_matches_per_site(seq, g, r * np.exp(0.7j * m), 200, sign)


def test_propagating_nearer_keeps_shared_sites():
    """A nearer target gives bit-identical values on the sites both families
    cover, in either direction and when a family is extended in two steps."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=120, seed=185))
    g = random_unitary(np.random.default_rng(186), 2)
    for z in (0.6 * np.exp(0.4j), 1.8 * np.exp(-2.0j)):
        fam = seed_family(g, z, 60, PLUS)
        for near, far in ((61, 119), (75, 119), (59, 0), (40, 0)):
            a, b = propagate(seq, fam, near), propagate(seq, fam, far)
            stepped = propagate(seq, a, far)
            for letter in "PRQS":
                shared = getattr(b, letter)[a.k_lo - b.k_lo:a.k_hi - b.k_lo + 1]
                assert np.array_equal(getattr(a, letter), shared)
                assert np.array_equal(getattr(stepped, letter), getattr(b, letter))


def test_propagating_both_ways_keeps_covered_sites():
    """A family extended below its first and above its last site in one call keeps
    every site it covered bit for bit, in a new state: m = 1..3, both signs."""
    for m in (1, 2, 3):
        seq = generate(EnsembleSpec(m=m, k_min=0, k_max=80, seed=190 + m))
        g = random_unitary(np.random.default_rng(195 + m), m)
        for sign in (PLUS, MINUS):
            for z in (0.6 * np.exp(0.4j), 1.8 * np.exp(-2.0j)):
                fam = propagate(seq, seed_family(g, z, 41, sign), 35, 48)
                wide = propagate(seq, fam, 3, 77)
                assert (wide.k_lo, wide.k_hi) == (3, 77)
                kept = wide.X[fam.k_lo - wide.k_lo:fam.k_hi - wide.k_lo + 1]
                assert np.array_equal(kept, fam.X)
                assert not np.shares_memory(wide.X, fam.X)


def test_family_letters_are_views_of_one_state():
    """P, R, Q, S and each site's letters are views of the family's state X =
    [[P, Q], [R, S]], for a seed and for a propagated family."""
    m = 2
    seq = generate(EnsembleSpec(m=m, k_min=0, k_max=20, seed=197))
    g = random_unitary(np.random.default_rng(198), m)
    seed = seed_family(g, 0.4 + 0.3j, 9, MINUS)
    for fam in (seed, propagate(seq, seed, 2, 17)):
        X = fam.X
        assert X.shape == (fam.k_hi - fam.k_lo + 1, 2 * m, 2 * m) and fam.m == m
        blocks = {"P": X[:, :m, :m], "R": X[:, m:, :m], "Q": X[:, :m, m:], "S": X[:, m:, m:]}
        for letter, block in blocks.items():
            view = getattr(fam, letter)
            assert view.base is not None and np.shares_memory(view, X)
            assert np.array_equal(view, block)
        site = fam.at(fam.k_hi)
        for letter in "PRQS":
            assert np.shares_memory(getattr(site, letter), X)
            assert np.array_equal(getattr(site, letter), getattr(fam, letter)[-1])


def test_each_direction_is_one_banded_solve(monkeypatch):
    """A family extended both ways from its seed takes exactly two banded
    solves, one per direction, whatever the number of sites."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=60, seed=187))
    g = random_unitary(np.random.default_rng(188), 2)
    calls = []
    real = laurent._tbtrs

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(laurent, "_tbtrs", counting)
    window_family(seq, g, 0.6 + 0.2j, 25, PLUS)
    assert calls == [(8, 4 * 26), (8, 4 * 35)]     # band 4m x 2m(n + 1) per direction
    calls.clear()
    propagate(seq, seed_family(g, 1.5j, 25, MINUS), 59)
    assert len(calls) == 1


def test_propagation_makes_no_transfer_calls(monkeypatch):
    """Families are built from whole transfer stacks, not per-site calls."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=20, seed=75))
    g = random_unitary(np.random.default_rng(76), 2)
    calls = []

    def counted(real):
        def wrapper(*args):
            calls.append(args[-1])
            return real(*args)
        return wrapper

    for name in ("transfer", "transfer_inverse"):
        monkeypatch.setattr(laurent, name, counted(getattr(laurent, name)))
    fam = window_family(seq, g, 0.6 + 0.2j, 9, PLUS)
    propagate(seq, seed_family(g, 1.5j, 10, MINUS), 2)
    propagate(seq, fam, 4)
    assert calls == []


def test_propagate_rejects_leaving_window_and_zero_z():
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=14, seed=77))
    g = random_unitary(np.random.default_rng(78), 2)
    fam = seed_family(g, 0.7j, 6, PLUS)
    for target in (seq.k_min - 1, seq.k_max):
        with pytest.raises(PathLeavesWindow):
            propagate(seq, fam, target)
    for target in (2, 9):
        with pytest.raises(ZeroZ):
            propagate(seq, replace(fam, z=0.0), target)


def test_seed_values_free_case():
    z = 0.6 * np.exp(0.9j)
    fam = seed_family(np.eye(1), z, 6, PLUS)
    site = fam.at(6)
    np.testing.assert_allclose(site.P, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(site.R, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(site.Q, [[-1.0]], atol=1e-15)
    np.testing.assert_allclose(site.S, [[1.0]], atol=1e-15)


def test_family_monomials_free_case():
    """Identity gamma over zero coefficients gives pure Laurent monomials."""
    seq = free_sequence()
    z = 0.52 * np.exp(0.33j)
    fam = window_family(seq, np.eye(1), z, 6, PLUS)
    expected_P = {6: 1.0, 7: z, 8: 1 / z, 9: z ** 2, 10: 1 / z ** 2}
    for k, want in expected_P.items():
        np.testing.assert_allclose(fam.at(k).P[0, 0], want, atol=1e-14)
    expected_u = {6: 0.0, 7: 2 * z, 8: 0.0, 9: 2 * z ** 2, 10: 0.0}
    for k, want in expected_u.items():
        u = fam.at(k).Q[0, 0] + fam.at(k).P[0, 0]
        np.testing.assert_allclose(u, want, atol=1e-14)


def test_window_family_covers_window():
    spec = EnsembleSpec(m=2, k_min=-2, k_max=12, seed=1)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(2), 2)
    fam = window_family(seq, g, 0.4 + 0.3j, 5, PLUS)
    assert fam.k_lo == -2
    assert fam.k_hi == 11
    assert fam.covers(-2) and fam.covers(11) and not fam.covers(12)
    with pytest.raises(KeyError):
        fam.at(12)


def test_connection_same_sign_identity():
    """C1, D1 move a family from one boundary unitary to another."""
    spec = EnsembleSpec(m=2, k_min=0, k_max=20, seed=3, radius_max=0.85)
    seq = generate(spec)
    rng = np.random.default_rng(4)
    g1, g2 = random_unitary(rng, 2), random_unitary(rng, 2)
    k0 = 10
    cc = connection(g1, g2, seq.alpha(k0), k0)
    for sign in (PLUS, MINUS):
        for z in (0.45 * np.exp(0.7j), 1.9 * np.exp(2.1j)):
            fam1 = window_family(seq, BoundaryUnitary(g1, cc.g1_sqrt), z, k0, sign)
            fam2 = window_family(seq, BoundaryUnitary(g2, cc.g2_sqrt), z, k0, sign)
            for k in (4, 10, 15):
                s1, s2 = fam1.at(k), fam2.at(k)
                np.testing.assert_allclose(
                    s2.Q, s1.Q @ cc.C1 + s1.P @ cc.D1, atol=1e-11)
                np.testing.assert_allclose(
                    s2.P, s1.Q @ cc.D1 + s1.P @ cc.C1, atol=1e-11)
                np.testing.assert_allclose(
                    s2.S, s1.S @ cc.C1 + s1.R @ cc.D1, atol=1e-11)


def test_connection_scalar_closed_forms():
    t1, t2 = 0.8, 2.1
    g1 = np.array([[np.exp(1j * t1)]])
    g2 = np.array([[np.exp(1j * t2)]])
    cc = connection(g1, g2, np.array([[0.3]]), 8)
    np.testing.assert_allclose(cc.C1, [[np.cos((t2 - t1) / 2)]], atol=1e-14)
    np.testing.assert_allclose(cc.D1, [[1j * np.sin((t2 - t1) / 2)]],
                               atol=1e-14)


def test_connection_single_gamma_closed_forms():
    """Cross-site coefficients for one scalar unitary match a, b over rho."""
    t = 1.1
    alpha = 0.37 * np.exp(0.51j)
    g = np.array([[np.exp(1j * t)]])
    cc = connection(g, g, np.array([[alpha]]), 9)
    rho = defect_matrices(np.array([[alpha]])).rho[0, 0].real
    a = 1 + np.exp(-1j * t) * alpha
    b = 1 - np.exp(-1j * t) * alpha
    np.testing.assert_allclose(cc.C3, [[1j * a.imag / rho]], atol=1e-14)
    np.testing.assert_allclose(cc.D3, [[a.real / rho]], atol=1e-14)
    np.testing.assert_allclose(cc.C4, [[b.real / rho]], atol=1e-14)
    np.testing.assert_allclose(cc.D4, [[1j * b.imag / rho]], atol=1e-14)


def test_connection_cross_sign_and_cross_site():
    spec = EnsembleSpec(m=2, k_min=0, k_max=20, seed=5, radius_max=0.85)
    seq = generate(spec)
    rng = np.random.default_rng(6)
    g1, g2 = random_unitary(rng, 2), random_unitary(rng, 2)
    k0 = 9
    cc = connection(g1, g2, seq.alpha(k0), k0)
    z = 0.5 * np.exp(1.3j)
    b1, b2 = BoundaryUnitary(g1, cc.g1_sqrt), BoundaryUnitary(g2, cc.g2_sqrt)
    fam_p = window_family(seq, b1, z, k0, PLUS)
    fam_m_same = window_family(seq, b2, z, k0, MINUS)
    fam_m_prev = window_family(seq, b2, z, k0 - 1, MINUS)
    C2, D2 = cc.c2(z), cc.d2(z)
    for k in (3, 9, 14):
        p, ms, mp = fam_p.at(k), fam_m_same.at(k), fam_m_prev.at(k)
        np.testing.assert_allclose(ms.Q, p.Q @ C2 + p.P @ D2, atol=1e-11)
        np.testing.assert_allclose(ms.P, p.Q @ D2 + p.P @ C2, atol=1e-11)
        np.testing.assert_allclose(mp.Q, p.Q @ cc.C3 + p.P @ cc.D3,
                                   atol=1e-11)
        np.testing.assert_allclose(mp.P, p.Q @ cc.C4 + p.P @ cc.D4,
                                   atol=1e-11)


def test_quadratic_identities_small_residual():
    spec = EnsembleSpec(m=2, k_min=0, k_max=18, seed=7, radius_max=0.85)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(8), 2)
    z = 0.48 * np.exp(0.9j)
    zc = 1.0 / np.conj(z)
    k0 = 9
    b = BoundaryUnitary(g, principal_unitary_sqrt(g))
    pair_p = (window_family(seq, b, z, k0, PLUS), window_family(seq, b, zc, k0, PLUS))
    pair_m = (window_family(seq, b, z, k0, MINUS), window_family(seq, b, zc, k0, MINUS))
    for k in (2, 8, 9, 12, 16):
        res = quadratic_identities(pair_p, pair_m, k)
        assert max(res.values()) < 1e-9


def test_scalar_conjugation_symmetry():
    spec = EnsembleSpec(m=1, k_min=0, k_max=18, seed=9, radius_max=0.85)
    seq = generate(spec)
    g = np.array([[np.exp(0.7j)]])
    z = 0.52 * np.exp(1.1j)
    for sign in (PLUS, MINUS):
        pair = (window_family(seq, g, z, 8, sign),
                window_family(seq, g, 1 / np.conj(z), 8, sign))
        for k in (3, 8, 13):
            res = conjugation_symmetry(pair, k)
            assert max(res.values()) < 1e-10


def test_seed_rejects_zero_z():
    with pytest.raises(ZeroZ):
        seed_family(np.eye(1), 0.0, 5, PLUS)


def test_family_respects_gamma_sqrt_branch():
    """A consistent non-principal root only reshuffles the family inside
    the same solution space; seeds still satisfy the boundary relation."""
    g = np.array([[np.exp(2.4j)]])
    z = 0.4 + 0.1j
    root = -principal_unitary_sqrt(g)
    fam = seed_family(BoundaryUnitary(g, root), z, 6, PLUS)
    site = fam.at(6)
    # even reference site: P = gamma^{-1/2}, R = gamma^{1/2}
    np.testing.assert_allclose(site.P, np.linalg.inv(root), atol=1e-14)
    np.testing.assert_allclose(site.R, root, atol=1e-14)


def test_norm_sign_rejects_anything_but_the_two_signs():
    with pytest.raises(OutOfRange, match="sign must be"):
        laurent._norm_sign("x")


def test_paired_families_are_checked_one_mismatch_at_a_time():
    """A pair is (family at z, family at 1/conj(z)) of one sign, reference site and root;
    each mismatch has its own CmvError, and conjugation symmetry is scalar-only."""
    rng = np.random.default_rng(21)
    g, z = random_unitary(rng, 2), 0.4 + 0.2j
    fam, w = seed_family(g, z, 5, PLUS), 1 / np.conj(z)
    pair = (fam, seed_family(g, w, 5, PLUS))
    laurent._check_pair(*pair)
    share = "must share sign and reference site"
    wrong = [(r"must be evaluated at 1/conj\(z\)", seed_family(g, z, 5, PLUS)),
             (share, seed_family(g, w, 5, MINUS)), (share, seed_family(g, w, 7, PLUS)),
             ("same gamma square root", seed_family(random_unitary(rng, 2), w, 5, PLUS))]
    for match, other in wrong:
        with pytest.raises(CmvError, match=match) as info:
            laurent._check_pair(fam, other)
        assert type(info.value) is CmvError
    with pytest.raises(MatrixCaseUnsupported):
        conjugation_symmetry(pair, 5)
