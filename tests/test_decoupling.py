"""Rank-m decoupling: phase solutions, local blocks, and rank reports."""

from dataclasses import replace

import numpy as np
import pytest

from cmvkit import assembly
from cmvkit.assembly import SplitSpec, assemble, assemble_split, operator_difference_block
from cmvkit.decoupling import (
    decoupling_report,
    default_z_samples,
    det_criterion,
    minimal_phases,
    numerical_rank,
    _resolvent_factors,
)
from cmvkit.coefficients import contractive, factorize_svd, sequence_from_values
from cmvkit.errors import OutOfRange
from cmvkit.cli.ensembles import EnsembleSpec, generate, random_unitary
from cmvkit.cli.suites import run_suite


def scalar_sequence(alpha, n=12):
    vals = {k: alpha for k in range(0, n + 1)}
    vals[0] = 1.0
    vals[n] = 1.0
    return sequence_from_values(vals)


def test_minimal_phase_frozen_scalar_values():
    # alpha = 0.5 with s = 0 pins t at pi
    sol = minimal_phases(np.array([[0.5]]), [0.0])
    np.testing.assert_allclose(sol.t, [np.pi], atol=1e-12)
    np.testing.assert_allclose(sol.gamma1, [[-1.0]], atol=1e-12)
    np.testing.assert_allclose(sol.gamma2, [[1.0]], atol=1e-12)
    # alpha = 0 shifts any s by pi
    for s in (0.0, 1.3, 4.0):
        sol0 = minimal_phases(np.array([[0.0]]), [s])
        np.testing.assert_allclose(sol0.t, [(s + np.pi) % (2 * np.pi)],
                                   atol=1e-12)


def test_minimal_phase_diagonal_matrix():
    beta = np.diag([0.3, 0.6])
    sol = minimal_phases(beta, [0.0, 0.0])
    np.testing.assert_allclose(sol.t, [np.pi, np.pi], atol=1e-12)
    np.testing.assert_allclose(sol.gamma1, -np.eye(2), atol=1e-12)
    np.testing.assert_allclose(sol.gamma2, np.eye(2), atol=1e-12)


def test_det_criterion_frozen_values():
    assert det_criterion(0.5, np.pi, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert det_criterion(0.0, 0.0, 0.0) == pytest.approx(-2.0, abs=1e-15)


def test_det_criterion_uses_split_unitary_phases():
    """Vanishes at the minimal phases read off gamma1 and gamma2."""
    rng = np.random.default_rng(0)
    for _ in range(25):
        r = rng.uniform(0.0, 0.8)
        a = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
        s = float(rng.uniform(0, 2 * np.pi))
        sol = minimal_phases(np.array([[a]]), [s])
        t1 = float(np.angle(sol.gamma1[0, 0]))
        t2 = float(np.angle(sol.gamma2[0, 0]))
        assert abs(det_criterion(a, t1, t2)) < 1e-13
        # moving either phase away breaks the vanishing with a margin
        assert abs(det_criterion(a, t1 + 0.1, t2)) > 0.01
        assert abs(det_criterion(a, t1, t2 - 0.1)) > 0.01


def test_local_block_frozen_examples():
    seq = scalar_sequence(0.0)
    one = np.array([[1.0]])
    blk = operator_difference_block(seq, SplitSpec(k0=6, gamma_left=one, gamma_right=one))
    np.testing.assert_allclose(blk, [[1.0, 1.0], [1.0, -1.0]], atol=1e-15)
    assert numerical_rank(blk) == 2
    blk_min = operator_difference_block(seq, SplitSpec(k0=6, gamma_left=-one, gamma_right=one))
    np.testing.assert_allclose(blk_min, [[-1.0, 1.0], [1.0, -1.0]],
                               atol=1e-15)
    assert numerical_rank(blk_min) == 1


def test_numerical_rank_thresholding():
    M = np.diag([1.0, 1e-3, 1e-12])
    assert numerical_rank(M) == 2
    assert numerical_rank(M, rtol=1e-15) == 3
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_scalar_report_minimal_and_perturbed():
    seq = scalar_sequence(0.4)
    sol = minimal_phases(seq.alpha(6), [0.7])
    rep = decoupling_report(seq, 6, sol.gamma1, sol.gamma2)
    assert rep.op_rank == 1
    assert rep.minimal
    assert all(r == 1 for r in rep.resolvent_ranks.values())
    assert len(rep.resolvent_ranks) == len(default_z_samples())
    # bumping one phase loses minimality
    rep2 = decoupling_report(seq, 6, sol.gamma1 * np.exp(0.1j), sol.gamma2,
                             z_samples=default_z_samples()[:2])
    assert rep2.op_rank == 2
    assert not rep2.minimal
    # a single unitary on both sides is never minimal
    rep3 = decoupling_report(seq, 6, sol.gamma2, sol.gamma2,
                             z_samples=default_z_samples()[:2])
    assert rep3.op_rank == 2


def _dense_ranks(seq, k0, gamma1, gamma2, z_samples):
    """rank(U - U_split) and each rank((U - z)^{-1} - (U_split - z)^{-1}), all n x n."""
    U = assemble(seq).U
    U_split = assemble_split(seq, SplitSpec(k0=k0, gamma_left=gamma1, gamma_right=gamma2)).U
    eye = np.eye(U.shape[0])
    return numerical_rank(U - U_split), {
        z: numerical_rank(np.linalg.inv(U - z * eye) - np.linalg.inv(U_split - z * eye))
        for z in z_samples}


def test_thin_factors_reproduce_the_dense_resolvent_difference():
    """-W* X B Y* is (U - z)^{-1} - (U_split - z)^{-1} entry for entry, at both parities."""
    rng = np.random.default_rng(91)
    for m in (1, 2, 3):
        for k_min, k_max in ((0, 12), (1, 14)):
            seq = generate(EnsembleSpec(m=m, k_min=k_min, k_max=k_max, seed=10 * m + k_min))
            ops = assemble(seq)
            eye = np.eye(ops.U.shape[0])
            for k0 in (k_min + 1, k_min + 2, k_max - 2, k_max - 1):
                spec = SplitSpec(k0=k0, gamma_left=random_unitary(rng, m),
                                 gamma_right=random_unitary(rng, m))
                U_split = assemble_split(seq, spec).U
                B = operator_difference_block(seq, spec)
                for z, X, Y in _resolvent_factors(seq, spec, default_z_samples()):
                    want = np.linalg.inv(ops.U - z * eye) - np.linalg.inv(U_split - z * eye)
                    got = -ops.W.conj().T @ X @ B @ Y.conj().T
                    assert np.abs(got - want).max() < 1e-13 * max(np.abs(want).max(), 1.0)


def test_matrix_report_ranks():
    """The report's thin-factor ranks are the literal dense ones, and the claimed ones.

    m = 1-3, cuts of both parities next to either end and in the middle,
    and five gamma pairs: minimal (rank m), one channel bumped (m + 1), a
    single gamma on both sides, the identity (2m) and a random pair.
    """
    rng = np.random.default_rng(1)
    seen = set()
    for m in (1, 2, 3):
        for k_min, k_max in ((0, 12), (1, 14)):
            spec = EnsembleSpec(m=m, k_min=k_min, k_max=k_max, seed=m - 1 + 10 * k_min,
                                radius_max=0.8)
            seq = generate(spec)
            for k0 in (k_min + 1, k_min + 2, 6 + k_min, k_max - 2, k_max - 1):
                sol = minimal_phases(seq.alpha(k0), rng.uniform(0, 2 * np.pi, size=m))
                fac = factorize_svd(seq.alpha(k0))
                t = np.asarray(sol.t, dtype=float).copy()
                t[0] += 0.1
                bumped = fac.sigma @ np.diag(np.exp(1j * t)) @ fac.tau.conj().T
                pairs = {"minimal": (sol.gamma1, sol.gamma2), "bumped": (bumped, sol.gamma2),
                         "single": (sol.gamma2, sol.gamma2), "identity": (np.eye(m), np.eye(m)),
                         "random": (random_unitary(rng, m), random_unitary(rng, m))}
                reps = {}
                for name, (g1, g2) in pairs.items():
                    reps[name] = rep = decoupling_report(seq, k0, g1, g2)
                    dense = _dense_ranks(seq, k0, g1, g2, default_z_samples())
                    assert (rep.op_rank, rep.resolvent_ranks) == dense, (m, k0, name)
                assert reps["minimal"].minimal and reps["minimal"].op_rank == m
                assert set(reps["minimal"].resolvent_ranks.values()) == {m}
                assert reps["bumped"].op_rank == m + 1 and not reps["bumped"].minimal
                assert reps["identity"].op_rank == 2 * m
                seen.add((m, k0 % 2, k0 - k_min in (1, k_max - k_min - 1)))
    assert len(seen) == 12          # every m, both parities, edge and inner cuts


def test_phase_solution_unitaries_share_frame():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = 0.75 * a / np.linalg.norm(a, 2)
    s = rng.uniform(0, 2 * np.pi, size=3)
    sol = minimal_phases(a, s)
    fac = factorize_svd(a)
    want1 = fac.sigma @ np.diag(np.exp(1j * sol.t)) @ fac.tau.conj().T
    want2 = fac.sigma @ np.diag(np.exp(1j * sol.s)) @ fac.tau.conj().T
    np.testing.assert_allclose(sol.gamma1, want1, atol=1e-13)
    np.testing.assert_allclose(sol.gamma2, want2, atol=1e-13)


def test_default_z_samples_off_axis():
    zs = default_z_samples()
    assert len(zs) == 8
    for z in zs:
        assert abs(abs(z) - 1.0) > 0.1
        assert abs(z) > 0.1


def test_decoupling_suite_factors_each_pencil_once(count_calls):
    """At m = 2 the suite makes 16 banded LUs, no two of the same pencil: the two
    minimal reports factor the unsplit and the split pencil at each of their 4 z, and
    the reports that read op_rank only sample no z."""
    pencils = count_calls(assembly, "_gbtrf", lambda ab, *args, **kwargs: ab.tobytes())
    report = run_suite(["decoupling"], EnsembleSpec(m=2, k_min=0, k_max=40, seed=1))
    assert report.passed
    assert len(pencils) == 16 and len(set(pencils)) == 16


def test_minimal_decoupling_with_repeated_singular_values():
    """alpha = 0, c U and sigma diag(a, a, b) tau* repeat a singular value, so LAPACK's
    singular vectors are one choice of many: the minimal phases still split at rank m
    at cuts of both parities, and a common phase on each sigma/tau column pair moves
    neither alpha's reconstruction nor either gamma."""
    rng = np.random.default_rng(19)
    alphas = [np.zeros((2, 2)), np.zeros((3, 3)), 0.4 * random_unitary(rng, 2),
              0.6 * random_unitary(rng, 3),
              random_unitary(rng, 3) @ np.diag([0.3, 0.3, 0.7]) @ random_unitary(rng, 3)]
    for alpha in alphas:
        m = len(alpha)
        base = generate(EnsembleSpec(m=m, k_min=0, k_max=12, seed=m, radius_max=0.8))
        sol = minimal_phases(alpha, rng.uniform(0, 2 * np.pi, size=m))
        for k0 in (6, 7):
            rep = decoupling_report(base.replace(k0, contractive(alpha)), k0,
                                    sol.gamma1, sol.gamma2)
            assert rep.op_rank == m and rep.minimal
            assert set(rep.resolvent_ranks.values()) == {m}
        fac = factorize_svd(alpha)
        phase = np.exp(2j * np.pi * rng.random(m))
        turned = replace(fac, sigma=fac.sigma * phase, tau=fac.tau * phase)
        np.testing.assert_allclose(turned.reconstruct(), fac.reconstruct(), rtol=0, atol=1e-15)
        for p, gamma in ((sol.t, sol.gamma1), (sol.s, sol.gamma2)):
            np.testing.assert_allclose(replace(turned, beta=np.exp(1j * p)).reconstruct(),
                                       gamma, rtol=0, atol=1e-15)


def test_op_rank_is_counted_from_the_reported_singular_values(count_calls):
    """op_rank equals numerical_rank of the local block at the report's rtol, counted from
    the singular values the report already holds (no second SVD); a bad rtol still raises."""
    svds = count_calls(np.linalg, "svd")
    for seed, m in ((1, 1), (2, 2), (3, 3)):
        seq = generate(EnsembleSpec(m=m, k_min=0, k_max=20, seed=seed))
        rng = np.random.default_rng(seed)
        for k0 in (9, 10):
            sol = minimal_phases(seq.alpha(k0), rng.uniform(0, 2 * np.pi, m))
            for g1, rtol in ((sol.gamma1, 1e-8), (random_unitary(rng, m), 1e-8),
                             (random_unitary(rng, m), 0.5)):
                del svds[:]
                rep = decoupling_report(seq, k0, g1, sol.gamma2, z_samples=(), rtol=rtol)
                assert len(svds) == 1
                assert rep.op_rank == numerical_rank(rep.local_block, rtol)
    for rtol in (0.0, 1.0, -1e-8):
        with pytest.raises(OutOfRange):
            decoupling_report(seq, 9, sol.gamma1, sol.gamma2, z_samples=(), rtol=rtol)
