"""Assembly of finite five-diagonal unitary operators.

The operator factors as U = V W where V and W are direct sums of 2m x 2m
blocks: V collects the blocks of even-indexed coefficients and W the odd
ones, each block occupying sites (j-1, j). At the two window edges the
unitary endpoint coefficients leave only their diagonal corners inside the
matrix, which keeps the finite V and W exactly unitary.

One placement of the blocks (_placed_blocks: one stacked theta_block of the
coefficients and seq.defects) feeds two scatters: dense V, W and U, the
small-window reference the tests compare against, and the V and W* of the
window in LAPACK band storage (seq.bands), which band_block reads back. The
split replaces one block by diag(-gamma_left, gamma_right*), severing the
window in two; operator_difference_block is the 2m x 2m block by which U and
the split differ; block_diag forms direct sums.

_cut_bands, the one writer of a cut or split block, copies seq.bands (or a
column range of them) with one coefficient's block replaced: a cut block
diag(-gamma, gamma*) severs the window into its two half windows.
_pencil forms every pencil V - z W* as one subtraction, and _factor and
_solve (LAPACK zgbtrf and zgbtrs, from _lapack) are the one banded LU helper.
resolvent_blocks reads m x m blocks of the resolvent (U_s - z)^{-1} of the
window or a half window, never forming U_s: the Green and half-window
oracles, which build their bands per call. cut_resolvent_blocks is the
m-functions' own route to G(k0, k0) of the half windows: k0 eliminated last
in each, both halves in one banded LU, and a solve over each half's trailing
block only. Its z-free parts (CutBands, cut_band_storage: both halves' cut
bands side by side, the plus half reversed, the (W E_k0)* rows and the
right-hand sides) are kept on the sequence per (k0, gamma)
(VerblunskySequence.cut_bands), so a call at one more z costs one
subtraction, one zgbtrf and a short zgbtrs and product per half.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field

import numpy as np

from ._lapack import zgbtrf as _gbtrf, zgbtrs as _gbtrs
from .coefficients import (
    BoundaryUnitary,
    DefectPair,
    VerblunskySequence,
    _unitary_block,
    as_boundary,
    theta_block,
)
from .errors import (
    CmvError,
    DimensionMismatch,
    MissingCut,
    SingularSolve,
    SiteOutOfWindow,
    SplitOutOfWindow,
    require_cut,
)

MAX_DENSE_ROWS = 512
RHS_BYTES = 1 << 22   # resolvent_blocks' right-hand sides per solve: at most this, or one site


@dataclass(frozen=True)
class CmvOperatorSet:
    """Dense V, W and U = V W on a finite window.

    offset is the lattice index of block row zero; site k lives in block
    row k - offset.
    """

    V: np.ndarray
    W: np.ndarray
    U: np.ndarray
    offset: int
    m: int

    @property
    def n_sites(self) -> int:
        return self.U.shape[0] // self.m

    def site_slice(self, k: int) -> slice:
        i = k - self.offset
        if not 0 <= i < self.n_sites:
            raise SiteOutOfWindow(f"site {k} outside window starting at {self.offset}")
        return slice(i * self.m, (i + 1) * self.m)

    def block(self, k: int, kp: int) -> np.ndarray:
        """The m x m block U(k, k')."""
        return self.U[self.site_slice(k), self.site_slice(kp)]


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """The direct sum of square blocks, in order along the diagonal."""
    ends = np.cumsum([0] + [len(b) for b in blocks])
    out = np.zeros((ends[-1], ends[-1]), dtype=np.result_type(*blocks))
    for b, i, j in zip(blocks, ends, ends[1:]):
        out[i:j, i:j] = b
    return out


@dataclass(frozen=True)
class SplitSpec:
    """Where to cut the window and which unitaries to install.

    The block of coefficient k0 is replaced by block = diag(-gamma_left, gamma_right*)
    (_cut_block, which checks both), so everything strictly below site k0 decouples from
    everything at and above it. The unitaries are kept as the complex arrays block holds.
    """

    k0: int
    gamma_left: np.ndarray
    gamma_right: np.ndarray
    block: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "k0", require_cut(self.k0))
        block = _cut_block(self.gamma_left, None, self.gamma_right)
        m = len(block) // 2
        block.setflags(write=False)
        object.__setattr__(self, "gamma_left", -block[:m, :m])
        object.__setattr__(self, "gamma_right", block[m:, m:].conj().T)
        object.__setattr__(self, "block", block)

    def block_in(self, seq: VerblunskySequence) -> np.ndarray:
        """block, checked to fit seq, to be installed at k0."""
        if not seq.k_min < self.k0 <= seq.k_max:
            raise SplitOutOfWindow(f"split site {self.k0} outside ({seq.k_min}, {seq.k_max}]")
        if len(self.block) != 2 * seq.m:
            raise DimensionMismatch("split unitaries must match the sequence block size")
        return self.block


def _placed_blocks(seq: VerblunskySequence, spec: SplitSpec | None = None):
    """Every coefficient's 2m x 2m block of V or W and the entries it fills.

    Block j = k_min .. k_max is Theta_j = [[-alpha_j, rho~_j], [rho_j,
    alpha_j*]] on sites (j - 1, j), in V for even j and in W for odd j; a
    block replaced by spec is diag(-gamma_left, gamma_right*). The two
    endpoint blocks reach past the window, which keeps only alpha*_{k_min}
    at site k_min and -alpha_{k_max} at site k_max - 1.

    Returns (entries, V, W): entries holds the (n + 1, 2m, 2m) blocks
    flattened, and V, W are _placement's (src, rows, cols) for the block
    entries inside the window that belong to V and to W.
    """
    n, m = seq.n_sites, seq.m
    zero, d = np.zeros((1, m, m)), seq.defects                  # unitary ends: no defects
    rho, rho_tilde = (np.concatenate((zero, a, zero)) for a in (d.rho, d.rho_tilde))
    blocks = theta_block(seq.values, DefectPair(rho, rho_tilde))
    if spec is not None:
        blocks[spec.k0 - seq.k_min] = spec.block_in(seq)
    return (blocks.reshape(-1), *_placement(n, m, seq.k_min % 2))


@functools.lru_cache(maxsize=16)
def _placement(n: int, m: int, parity: int) -> tuple:
    """Read-only (src, rows, cols) of the V entries, then of the W entries.

    src indexes the flattened blocks of _placed_blocks, rows and cols the
    m n x m n window; set by n, m and k_min % 2.
    """
    start = m * np.arange(-1, n)[:, None, None]
    local = np.arange(2 * m)
    rows, cols = np.broadcast_arrays(start + local[:, None], start + local)
    inside = (rows >= 0) & (rows < m * n) & (cols >= 0) & (cols < m * n)
    even = (np.arange(parity, parity + n + 1) % 2 == 0)[:, None, None]
    out = tuple((np.flatnonzero(mask), rows[mask], cols[mask])
                for mask in (inside & even, inside & ~even))
    for triple in out:
        for a in triple:
            a.setflags(write=False)
    return out


def _dense_operators(seq: VerblunskySequence, spec: SplitSpec | None = None):
    """Scatter V (even blocks) and W (odd blocks) densely; U = V W."""
    size = seq.m * seq.n_sites
    if size > MAX_DENSE_ROWS:
        raise CmvError(f"dense storage limited to {MAX_DENSE_ROWS} rows, requested {size}")
    entries, *placed = _placed_blocks(seq, spec)
    V, W = (np.zeros((size, size), dtype=complex) for _ in placed)
    for dense, (src, rows, cols) in zip((V, W), placed):
        dense[rows, cols] = entries[src]
    return CmvOperatorSet(V=V, W=W, U=V @ W, offset=seq.k_min, m=seq.m)


def assemble(seq: VerblunskySequence) -> CmvOperatorSet:
    """Dense V, W and U = V W for a coefficient window.

    Parameters
    ----------
    seq : VerblunskySequence
        Window with unitary endpoint coefficients.

    Returns
    -------
    CmvOperatorSet
        V and W are exactly unitary by construction; U is five-block
        diagonal with U(k, k') = 0 for |k - k'| > 2.
    """
    return _dense_operators(seq)


def band_storage(seq: VerblunskySequence) -> tuple:
    """Read-only V and W* of the window (seq.bands) in LAPACK gbtrf layout, no row cap.

    With b = 2m - 1, entry (r, c) sits at [2b + r - c, c] of a column-major
    (3b + 1, m n) array; the top b rows are the LU's fill-in space.
    """
    entries, (vs, vr, vc), (ws, wr, wc) = _placed_blocks(seq)
    b, size = 2 * seq.m - 1, seq.m * seq.n_sites
    V, W_star = (np.zeros((size, 3 * b + 1), dtype=complex) for _ in range(2))
    V[vc, 2 * b + vr - vc] = entries[vs]
    W_star[wr, 2 * b + wc - wr] = entries[ws].conj()     # W*(c, r) = conj W(r, c)
    for a in (V, W_star):
        a.setflags(write=False)
    return V.T, W_star.T


def band_block(band: np.ndarray, rows, cols) -> np.ndarray:
    """The entries (r, c), r in rows and c in cols, of the matrix that band holds in
    band_storage's layout: exact zeros off the band."""
    b = (band.shape[0] - 1) // 3
    r, c = np.asarray(rows)[:, None], np.asarray(cols)  # [2b + r - c, c]: item 2b + r + 3b c
    return np.where(abs(r - c) <= b, band.T.reshape(-1)[2 * b + r + 3 * b * c], 0)


def half_sites(seq: VerblunskySequence, k0, half: int) -> tuple:
    """First and last site of the half window cut at k0 (errors.require_cut: MissingCut if k0
    is None, MalformedInput if it is not an integer)."""
    k0 = require_cut(k0)
    return (k0, seq.k_max - 1) if half > 0 else (seq.k_min, k0)


def _half_window(seq: VerblunskySequence, k0, half: int) -> tuple:
    """(lo, hi, k) of the half window of sign half cut at k0 (half_sites), 4 sites or more
    (else SiteOutOfWindow): its columns lo .. hi in seq, and the cut coefficient k (k0 for
    plus, k0 + 1 for minus) whose block _cut_block gives."""
    first, last = half_sites(seq, k0, half)
    if not seq.k_min <= first < last - 2 <= seq.k_max - 3:
        raise SiteOutOfWindow(f"half window [{first}, {last + 1}] of [{seq.k_min}, "
                              f"{seq.k_max}] must hold 4 sites or more")
    k0 = first if half > 0 else last
    m, i = seq.m, (k0 - seq.k_min) * seq.m    # i: first column of site k0 in seq
    return (i, m * seq.n_sites, k0) if half > 0 else (0, i + m, k0 + 1)


def _cut_block(gamma, m: int | None, gamma_right=None) -> np.ndarray:
    """diag(-gamma, gamma_right*), the one formula for the block a split installs, or a cut
    (gamma_right None: gamma on both sides, as either half window has it). gamma is an
    m x m unitary (any size if m is None; gamma_right of its size) or a BoundaryUnitary,
    checked when built; MissingCut if gamma is None. The solve needs no root."""
    if gamma is None:
        raise MissingCut("a half window needs its boundary unitary gamma")
    left = (as_boundary(gamma, m).gamma if isinstance(gamma, BoundaryUnitary)
            else _unitary_block(gamma, "gamma" if gamma_right is None else "gamma_left", m))
    right = left if gamma_right is None else _unitary_block(gamma_right, "gamma_right", len(left))
    return block_diag(-left, right.conj().T)


def _cut_bands(seq: VerblunskySequence, k: int, block: np.ndarray, lo: int = 0,
               hi: int | None = None) -> tuple:
    """Copies of seq.bands' columns lo .. hi (all by default), V and W*, with coefficient k's
    block (sites k - 1, k) replaced: in V for even k, else in W, whose adjoint W* holds
    block*. Each block column inside the copy is written whole, so a cut block diag(-gamma,
    gamma*) puts exact zeros across the cut: the half windows cut at k are its two parts. The
    one place a cut or split block enters a band, and so a pencil."""
    V, W_star = (band[:, lo:hi].copy(order="F") for band in seq.bands)
    b, n, j = 2 * seq.m - 1, len(block), (k - 1 - seq.k_min) * seq.m - lo   # j: site k - 1
    for l in range(max(-j, 0), min(n, V.shape[1] - j)):     # column j + l of the block
        at = (slice(2 * b - l, 2 * b - l + n), j + l)
        if k % 2 == 0:
            V[at] = block[:, l]
        else:
            W_star[at] = block[l].conj()
    return V, W_star


def _pencil(V, W_star, z) -> np.ndarray:
    """V - z W*, a new array, from V and W* in band_storage's layout (seq.bands, or
    _cut_bands' for a cut or split window)."""
    out = z * W_star
    return np.subtract(V, out, out=out)


def _factor(pencil: np.ndarray, z) -> tuple:
    """The banded LU (lu, piv) of a formed pencil (_pencil), kl = ku = b (LAPACK gbtrf, in
    place); SingularSolve if the pencil is singular. With _solve the one banded LU helper."""
    b = (len(pencil) - 1) // 3
    lu, piv, info = _gbtrf(pencil, b, b, overwrite_ab=True)
    if info != 0:
        raise SingularSolve(f"resolvent solve failed at z = {z}")
    return lu, piv


def _solve(lu: np.ndarray, piv: np.ndarray, rhs: np.ndarray, z, trans: int = 0) -> np.ndarray:
    """lu^{-1} rhs (lu^{-*} rhs for trans=2): one gbtrs, each column solved by itself.
    SingularSolve if it fails or overflows."""
    b = (len(lu) - 1) // 3
    X, info = _gbtrs(lu, b, b, rhs, piv, trans)
    if info != 0 or np.count_nonzero(np.isfinite(X)) < X.size:
        raise SingularSolve(f"resolvent solve failed or overflowed at z = {z}")
    return X


def resolvent_blocks(seq: VerblunskySequence, z: complex, pairs,
                     half: int | None = None, k0: int | None = None, gamma=None) -> list:
    """The m x m blocks E_k* (U_s - z)^{-1} E_kp for (k, kp) in pairs, never forming U_s.

    U_s is the window's U (half None) or a half window of 4 sites or more cut
    at k0 (half_sites): sites k0 .. k_max - 1 with alpha_k0 := gamma (half > 0), or
    k_min .. k0 with alpha_{k0+1} := gamma (half < 0), gamma an m x m unitary or
    BoundaryUnitary; MissingCut without k0 or gamma. The caller checks that z is
    finite and that every site is a site of U_s.
    W is unitary, so (U_s - z)^{-1} = W* (V - z W*)^{-1}.

    A half window's V and W* are its columns of the window cut at its cut coefficient
    (_half_window, _cut_block, _cut_bands), built per call, so the solve costs what the
    half's size does; this route reads no cut_bands entry, so it checks the m-functions'
    route. One banded LU (_factor, _solve)
    solves X = (V - z W*)^{-1} E_kp for the distinct kp, as many at a time as fit in
    RHS_BYTES (one site at least), so E and X stay small on any window; gbtrs solves each
    column by itself, so the batching changes no value. Each block is (W E_k)* X, read over
    the at most 3m columns (sites k - 1 .. k + 1, within U_s) where (W E_k)* is nonzero, as
    in cut_resolvent_blocks. This is the general solve behind the Green oracle and the
    half-window oracle; cut_resolvent_blocks, a route of its own, serves the m-functions.
    Raises SingularSolve when the solve fails or overflows.
    """
    m, lo, hi, V, W_star = seq.m, 0, seq.m * seq.n_sites, *seq.bands   # U_s's columns, bands
    if half is not None:
        lo, hi, k = _half_window(seq, k0, half)
        V, W_star = _cut_bands(seq, k, _cut_block(gamma, m), lo, hi)
    lu, piv = _factor(_pencil(V, W_star, z), z)
    at_kp, rows = {}, {}                      # each distinct kp: its pairs' indices
    for n, (k, kp) in enumerate(pairs):
        at_kp.setdefault(kp, []).append(n)
        if k not in rows:                     # (W E_k)* = W*(k, c), nonzero within one site of k
            r = (k - seq.k_min) * m - lo
            c0, c1 = max(r - m, 0), min(r + 2 * m, hi - lo)
            rows[k] = slice(c0, c1), band_block(W_star, range(r, r + m), range(c0, c1))
    kps, per, X_at = list(at_kp), max(RHS_BYTES // (16 * m * (hi - lo)), 1), [None] * len(pairs)
    for s in range(0, len(kps), per):
        batch = kps[s:s + per]
        E = np.zeros((hi - lo, m * len(batch)), dtype=complex)
        for i, kp in zip(range(0, E.shape[1], m), batch):
            j = (kp - seq.k_min) * m - lo
            E[j:j + m, i:i + m].flat[::m + 1] = 1.0       # the identity at site kp
        X = _solve(lu, piv, E, z)
        for i, kp in zip(range(0, E.shape[1], m), batch):
            for n in at_kp[kp]:               # X's rows that (W E_k)* reads, kept column-major
                X_at[n] = X[rows[pairs[n][0]][0], i:i + m].copy(order="F")
    # the products after every solve: with OpenBLAS on an AVX-512 host, a gbtrs right after
    # a zgemm was measured 6-10x slower
    return [rows[k][1] @ x for (k, _), x in zip(pairs, X_at)]


@dataclass(frozen=True)
class CutBands:
    """The z-free parts of cut_resolvent_blocks at one (k0, gamma), read-only
    (cut_band_storage; seq.cut_bands keeps them).

    V and W_star hold the served half windows' cut bands (_cut_bands) side by side, the
    plus half first and reversed as J P J. halves maps each served half (+1, -1) to (a, e,
    rows, rhs): its columns a .. e there, (W E_k0)* over the 2m solution rows its trailing
    solve keeps, and that solve's right-hand side, E_k0 (minus) or J E_k0 (plus) on its
    last K = 3m - 1 rows.
    """

    V: np.ndarray
    W_star: np.ndarray
    halves: dict


def cut_band_storage(seq: VerblunskySequence, k0: int, gamma) -> CutBands:
    """The CutBands of the half windows cut at k0 with gamma (an m x m unitary or
    BoundaryUnitary). A half of fewer than 4 sites is left out; SiteOutOfWindow if both
    are, and MissingCut, DimensionMismatch or NotUnitary for a missing k0 or a bad gamma."""
    m, b, K = seq.m, 2 * seq.m - 1, 3 * seq.m - 1
    windows = {}
    for half in (1, -1):
        with contextlib.suppress(SiteOutOfWindow):
            windows[half] = _half_window(seq, k0, half)
    if not windows:
        _half_window(seq, k0, 1)              # SiteOutOfWindow, as for the plus half alone
    block, halves = _cut_block(gamma, m), {}
    ends = np.cumsum([0] + [hi - lo for lo, hi, _ in windows.values()]).tolist()
    V_ab, W_ab = (np.zeros((3 * b + 1, ends[-1]), dtype=complex, order="F") for _ in range(2))
    E = np.zeros((K, m), dtype=complex, order="F")         # E_k0 on the last K rows
    E.flat[(K - m) * m::m + 1] = 1.0
    for (half, (lo, hi, k)), a, e in zip(windows.items(), ends, ends[1:]):
        V, W_star = _cut_bands(seq, k, block, lo, hi)
        for out, band in zip((V_ab[:, a:e], W_ab[:, a:e]), (V, W_star)):
            if half < 0:
                out[:] = band
            else:       # column-major, J P J's band is P's read backwards from entry b on
                out.T.reshape(-1)[b:] = band.T.reshape(-1)[:b - 1:-1]
        i = (k0 - seq.k_min) * m - lo         # i: first column of site k0 in the half
        c0 = i - m if half < 0 else i         # (W E_k0)* on sites k0 - 1, k0 or k0, k0 + 1
        rows = band_block(W_star, range(i, i + m), range(c0, c0 + 2 * m))
        halves[half] = (a, e, rows, E if half < 0 else np.asfortranarray(E[:, ::-1]))
    for x in (V_ab, W_ab, *(x for h in halves.values() for x in h[2:])):
        x.setflags(write=False)
    return CutBands(V_ab, W_ab, halves)


def cut_resolvent_blocks(seq: VerblunskySequence, z: complex, k0: int, gamma,
                         halves=(1, -1)) -> np.ndarray:
    """The stack of G_h(k0, k0) = E_k0* (U_h - z)^{-1} E_k0 for each half window h in halves
    (+1 or -1), cut at k0 with the BoundaryUnitary gamma as in resolvent_blocks, from one
    banded LU for all.

    Each half is factored with k0 eliminated last. The minus half [k_min, k0] ends at k0.
    The plus half is factored reversed, as J P J with J the order-reversing permutation
    (its band rows b .. 3b and its columns flipped), so its right-hand side J E_k0 is the
    anti-identity on its last m rows, and its solution rows read back reversed. Everything
    but z is built once per (k0, gamma) and kept on the sequence (seq.cut_bands,
    cut_band_storage): the halves' cut bands side by side, the (W E_k0)* rows and the
    right-hand sides. A call forms its halves' pencil V - z W* (_pencil) by one subtraction
    over their columns; exact zeros across each cut decouple the halves, so no pivot
    crosses between them while the LU stays finite (checked, as a stray pivot would make a
    solve read outside its half), and a one-sign call factors its own half's columns only.

    A right-hand side on a half's last m rows reaches, through pivots and fill, only its
    last K = 3m - 1 rows, so one gbtrs on the LU's K trailing columns of that half (pivots
    shifted) gives exactly those rows of the full solve; they hold the 2m rows that
    (W E_k0)* reads. SiteOutOfWindow for a half of fewer than 4 sites; SingularSolve when
    the LU or a solve fails or is not finite.
    """
    m, K = seq.m, 3 * seq.m - 1
    cut = seq.cut_bands(k0, gamma)
    for half in halves:
        if half not in cut.halves:            # it holds under 4 sites: SiteOutOfWindow
            _half_window(seq, k0, half)
    spans = [cut.halves[half] for half in halves]
    a0, e0 = min([s[0] for s in spans]), max([s[1] for s in spans])
    lu, piv = _factor(_pencil(cut.V[:, a0:e0], cut.W_star[:, a0:e0], z), z)
    G, X = np.empty((len(spans), m, m), dtype=complex), []
    for half, (_, e, _, rhs) in zip(halves, spans):
        e -= a0
        p = piv[e - K:e] - (e - K)            # a pivot reaches kl < K rows down, so only these
        if max(p.tolist()) > K:               # can leave the half: a non-finite LU lets them
            raise SingularSolve(f"resolvent solve failed at z = {z}")
        x = _solve(lu[:, e - K:e], p, rhs, z)[K - 2 * m:]
        X.append(x if half < 0 else x[::-1])
    for h, (span, x) in enumerate(zip(spans, X)):     # the products after every solve, as in
        np.matmul(span[2], x, out=G[h])                # resolvent_blocks
    return G


def assemble_split(seq: VerblunskySequence, spec: SplitSpec) -> CmvOperatorSet:
    """Assemble with the block at spec.k0 replaced by diag(-g1, g2*).

    The result is block diagonal across the cut between sites k0 - 1 and
    k0: rows below the cut never couple to columns at or above it.
    """
    return _dense_operators(seq, spec)


def operator_difference_block(seq: VerblunskySequence, spec: SplitSpec) -> np.ndarray:
    """The 2m x 2m block by which U and its split differ, in V/W form.

    U - U_split equals V D (odd k0) or D W (even k0) where D is zero away
    from sites (k0 - 1, k0); this returns that nonzero 2m x 2m block of D,
    [[-alpha_k0 + gamma_left, rho~], [rho, alpha_k0* - gamma_right*]].
    """
    if not (seq.k_min < spec.k0 < seq.k_max):
        raise SplitOutOfWindow(f"site {spec.k0} is not interior to the window")
    d, i = seq.defects, spec.k0 - seq.k_min - 1
    theta = theta_block(seq.values[i + 1], DefectPair(rho=d.rho[i], rho_tilde=d.rho_tilde[i]))
    return theta - spec.block_in(seq)
