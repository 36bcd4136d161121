"""Operator assembly: factorization, band structure, splits."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import zgbtrf, zgbtrs

from cmvkit import assembly
from cmvkit.assembly import (
    RHS_BYTES,
    CmvOperatorSet,
    SplitSpec,
    SplitOutOfWindow,
    assemble,
    assemble_split,
    band_block,
    operator_difference_block,
    resolvent_blocks,
)
from cmvkit.coefficients import sequence_from_values, theta_block
from cmvkit.cli.ensembles import EnsembleSpec, generate, random_unitary


def free_sequence(n, value_left=1.0, value_right=1.0):
    vals = {k: 0.0 for k in range(0, n + 1)}
    vals[0] = value_left
    vals[n] = value_right
    return sequence_from_values(vals)


# Every nonzero entry of the free eight-site operator, worked out by hand
# from the two-factor product with identity boundaries.
FREE_8_ENTRIES = {
    (0, 1): 1.0, (1, 3): 1.0, (2, 0): 1.0, (3, 5): 1.0,
    (4, 2): 1.0, (5, 7): 1.0, (6, 4): 1.0, (7, 6): -1.0,
}


def test_free_eight_site_matrix_is_exact():
    ops = assemble(free_sequence(8))
    expected = np.zeros((8, 8), dtype=complex)
    for (i, j), v in FREE_8_ENTRIES.items():
        expected[i, j] = v
    assert np.array_equal(ops.U, expected)
    assert np.array_equal(ops.U, ops.V @ ops.W)
    np.testing.assert_allclose(ops.U.conj().T @ ops.U, np.eye(8), atol=0)


def test_assembled_operator_is_unitary_and_factored():
    for m, seed in ((1, 0), (2, 1), (3, 2)):
        spec = EnsembleSpec(m=m, k_min=0, k_max=14, seed=seed)
        ops = assemble(generate(spec))
        n = ops.U.shape[0]
        assert n == 14 * m
        np.testing.assert_allclose(ops.U.conj().T @ ops.U, np.eye(n),
                                   atol=1e-13)
        np.testing.assert_allclose(ops.V.conj().T @ ops.V, np.eye(n),
                                   atol=1e-13)
        np.testing.assert_allclose(ops.U, ops.V @ ops.W, atol=1e-14)


def test_band_zeros_are_exact():
    """Blocks beyond two sites of the diagonal are structural zeros."""
    spec = EnsembleSpec(m=2, k_min=0, k_max=12, seed=3)
    ops = assemble(generate(spec))
    sites = range(ops.offset, ops.offset + ops.n_sites)
    for k in sites:
        for kp in sites:
            if abs(k - kp) > 2:
                assert np.all(ops.block(k, kp) == 0)


def test_scalar_diagonal_formula():
    spec = EnsembleSpec(m=1, k_min=0, k_max=16, seed=4)
    seq = generate(spec)
    ops = assemble(seq)
    for k in seq.sites:
        want = -np.conj(seq.alpha(k)[0, 0]) * seq.alpha(k + 1)[0, 0]
        np.testing.assert_allclose(ops.block(k, k)[0, 0], want, atol=1e-14)


def test_site_accessors():
    spec = EnsembleSpec(m=2, k_min=-4, k_max=6, seed=5)
    ops = assemble(generate(spec))
    s = ops.site_slice(-4)
    assert (s.start, s.stop) == (0, 2)
    assert ops.block(0, 1).shape == (2, 2)


def test_split_decouples_exactly():
    rng = np.random.default_rng(6)
    spec = EnsembleSpec(m=2, k_min=0, k_max=12, seed=7)
    seq = generate(spec)
    g1, g2 = random_unitary(rng, 2), random_unitary(rng, 2)
    ops = assemble_split(seq, SplitSpec(k0=6, gamma_left=g1, gamma_right=g2))
    n = ops.U.shape[0]
    np.testing.assert_allclose(ops.U.conj().T @ ops.U, np.eye(n), atol=1e-13)
    cut = ops.site_slice(6).start
    assert np.all(ops.U[:cut, cut:] == 0)
    assert np.all(ops.U[cut:, :cut] == 0)


def test_split_difference_factors_locally():
    """U - U_split is V D or D W with D supported on the two cut sites."""
    spec = EnsembleSpec(m=2, k_min=0, k_max=12, seed=8)
    seq = generate(spec)
    rng = np.random.default_rng(9)
    for k0 in (5, 6):
        sp = SplitSpec(k0=k0, gamma_left=random_unitary(rng, 2),
                       gamma_right=random_unitary(rng, 2))
        ops = assemble(seq)
        diff = ops.U - assemble_split(seq, sp).U
        blk = operator_difference_block(seq, sp)
        D = np.zeros_like(diff)
        lo = ops.site_slice(k0 - 1).start
        hi = ops.site_slice(k0).stop
        D[lo:hi, lo:hi] = blk
        want = ops.V @ D if k0 % 2 == 1 else D @ ops.W
        np.testing.assert_allclose(diff, want, atol=1e-14)


def blockwise_factors(seq, spec=None):
    """V and W placed one theta_block at a time: the reference layout."""
    m, n = seq.m, seq.n_sites
    V = np.zeros((m * n, m * n), dtype=complex)
    W = np.zeros_like(V)

    def row(k):
        return slice((k - seq.k_min) * m, (k - seq.k_min + 1) * m)

    for j in range(seq.k_min, seq.k_max + 1):
        target = V if j % 2 == 0 else W
        if spec is not None and j == spec.k0:
            if j > seq.k_min:
                target[row(j - 1), row(j - 1)] = -spec.gamma_left
            if j < seq.k_max:
                target[row(j), row(j)] = spec.gamma_right.conj().T
        elif j == seq.k_min:
            target[row(j), row(j)] = seq.alpha(j).conj().T
        elif j == seq.k_max:
            target[row(j - 1), row(j - 1)] = -seq.alpha(j)
        else:
            sl = slice((j - 1 - seq.k_min) * m, (j + 1 - seq.k_min) * m)
            target[sl, sl] = theta_block(seq.alpha(j))
    return V, W


def test_vectorized_placement_equals_blockwise():
    """assemble and assemble_split reproduce the blockwise layout bit for bit, also
    on windows cut to a random unitary end, where the terms reaching past the
    window are exact zeros."""
    rng = np.random.default_rng(13)
    for m in (1, 2, 3):
        for k_min in (0, 1):
            seq = generate(EnsembleSpec(m=m, k_min=k_min, k_max=k_min + 13,
                                        seed=20 + m))
            g = random_unitary(np.random.default_rng(30 + m), m)
            for window in (seq, seq.restrict(k_min + 1, seq.k_max, left=g),
                           seq.restrict(k_min, seq.k_max - 1, right=g)):
                ops = assemble(window)
                V, W = blockwise_factors(window)
                assert np.array_equal(ops.V, V) and np.array_equal(ops.W, W)
                assert np.array_equal(ops.U, V @ W)
            for k0 in (k_min + 3, k_min + 4, seq.k_max):
                sp = SplitSpec(k0=k0, gamma_left=random_unitary(rng, m),
                               gamma_right=random_unitary(rng, m))
                ops = assemble_split(seq, sp)
                V, W = blockwise_factors(seq, sp)
                assert np.array_equal(ops.V, V) and np.array_equal(ops.W, W)
                assert np.array_equal(ops.U, V @ W)


def test_band_storage_reads_back_the_blockwise_factors():
    """band_block over every row and column of seq.bands gives the blockwise V and W*
    exactly, also on windows cut to a random unitary end."""
    for m in (1, 2, 3):
        for k_min in (0, 1):
            seq = generate(EnsembleSpec(m=m, k_min=k_min, k_max=k_min + 13, seed=40 + m))
            g = random_unitary(np.random.default_rng(50 + m), m)
            for window in (seq, seq.restrict(k_min + 1, seq.k_max, left=g),
                           seq.restrict(k_min, seq.k_max - 1, right=g)):
                every = range(m * window.n_sites)
                V_band, W_star_band = window.bands
                V, W = blockwise_factors(window)
                assert np.array_equal(band_block(V_band, every, every), V)
                assert np.array_equal(band_block(W_star_band, every, every), W.conj().T)


def test_band_block_reads_exact_zeros_off_the_band():
    """Off the band the reader returns 0 whatever the storage holds there, on it the
    entry (r, c) at [2b + r - c, c], and a sub-block reads what the whole matrix holds."""
    for m in (1, 2, 3):
        b, size = 2 * m - 1, 6 * m
        band = np.arange(1, (3 * b + 1) * size + 1).reshape(3 * b + 1, size) * (1 + 1j)
        dense = band_block(band, range(size), range(size))
        for r in range(size):
            for c in range(size):
                assert dense[r, c] == (band[2 * b + r - c, c] if abs(r - c) <= b else 0)
        rows, cols = [size - 1, 0, 2], [1, size - 2]
        assert np.array_equal(band_block(band, rows, cols), dense[np.ix_(rows, cols)])


def test_split_outside_window_raises():
    spec = EnsembleSpec(m=1, k_min=0, k_max=10, seed=10)
    seq = generate(spec)
    eye = np.eye(1)
    with pytest.raises(SplitOutOfWindow):
        assemble_split(seq, SplitSpec(k0=-3, gamma_left=eye, gamma_right=eye))


def test_resolvent_blocks_in_batches_equal_one_pair_calls(monkeypatch, count_calls):
    """With RHS_BYTES cut to 5 sites' columns, so that the distinct kp take many solves,
    every block equals its one-pair call bit for bit (gbtrs solves each column by itself):
    m = 1..3, the window and both half windows, kp repeated and in no order."""
    z = 0.7 * np.exp(0.9j)
    for m in (1, 2, 3):
        seq = generate(EnsembleSpec(m=m, k_min=-3, k_max=40, seed=30 + m))
        g = random_unitary(np.random.default_rng(31 + m), m)
        rng, k0 = np.random.default_rng(32 + m), 18
        for half, (lo, hi) in ((None, (seq.k_min, seq.k_max - 1)), (1, (k0, seq.k_max - 1)),
                               (-1, (seq.k_min, k0))):
            kps = rng.permutation(np.arange(lo, hi + 1))
            pairs = [(int(min(max(kp + rng.integers(-2, 3), lo), hi)), int(kp))
                     for kp in np.concatenate((kps, kps[:9]))]
            rows = m * (hi - lo + 1)
            monkeypatch.setattr(assembly, "RHS_BYTES", 16 * m * rows * 5)
            solves = count_calls(assembly, "_solve")
            got = resolvent_blocks(seq, z, pairs, half, k0, g)
            assert len(solves) == -(-len(kps) // 5)
            monkeypatch.undo()
            for pair, block in zip(pairs, got):
                one, = resolvent_blocks(seq, z, [pair], half, k0, g)
                assert np.array_equal(block, one), (m, half, pair)


def test_half_window_blocks_equal_the_half_windows_own_solve():
    """resolvent_blocks on a half window solves the half's columns of the window severed by
    the cut block (_cut_bands). Every block equals, bit for bit, the block read from a
    banded LU of the half window's own pencil: the bands of the sub-window with gamma at
    its cut end, factored and solved here by LAPACK directly. m = 1..3, k_min in {0, 1, -3},
    cuts at both edges of the window and leaving a 4-site half at either edge."""
    for m in (1, 2, 3):
        b = 2 * m - 1
        for k_min in (0, 1, -3):
            seq = generate(EnsembleSpec(m=m, k_min=k_min, k_max=k_min + 14, seed=40 + m))
            g = random_unitary(np.random.default_rng(41 + m - k_min), m)
            k_max = seq.k_max
            for k0, half in ((k_min, 1), (k_min + 3, 1), (k_min + 3, -1), (k_max - 4, 1),
                             (k_max - 4, -1), (k_max - 1, -1)):
                own = (seq.restrict(k0, k_max, left=g) if half > 0
                       else seq.restrict(k_min, k0 + 1, right=g))
                V, W_star = own.bands
                size, sites = m * own.n_sites, list(own.sites)
                pairs = [(k, kp) for k in sites for kp in sites]
                for z in (0.0, 0.5j, 0.99 * np.exp(2j), 1.7 * np.exp(-0.4j)):
                    lu, piv, info = zgbtrf(V - z * W_star, b, b)
                    X, info_s = zgbtrs(lu, b, b, np.eye(size, dtype=complex), piv)
                    assert info == info_s == 0
                    got = resolvent_blocks(seq, z, pairs, half, k0, g)
                    for (k, kp), block in zip(pairs, got):
                        r, j = (k - own.k_min) * m, (kp - own.k_min) * m
                        c = slice(max(r - m, 0), min(r + 2 * m, size))
                        rows = band_block(W_star, range(r, r + m), range(size)[c])
                        want = rows @ X[c, j:j + m].copy(order="F")
                        assert np.array_equal(block, want), (m, k_min, k0, half, z, k, kp)


def test_resolvent_blocks_memory_stays_bounded():
    """On 3000 sites with 600 distinct kp the oracle's right-hand sides and solutions come
    RHS_BYTES at a time: the traced peak stays under 5 RHS_BYTES, where one solve over all
    kp would hold two 6000 x 1200 complex arrays (115 MB each)."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=3000, seed=35))
    seq.bands
    pairs = [(k, k) for k in range(0, 3000, 5)]
    tracemalloc.start()
    try:
        blocks = resolvent_blocks(seq, 0.5j, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == 600 and all(np.isfinite(b).all() for b in blocks)
    assert peak < 5 * RHS_BYTES, peak
