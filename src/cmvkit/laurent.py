"""Transfer matrices and polynomial solution families.

The eigenvalue difference equation for the five-diagonal operator is
equivalent to a two-term recursion: stacked pairs (X(k); Y(k)) of m x m
matrices move one site via a parity-dependent 2m x 2m transfer matrix.
Seeding the recursion at a reference site k0 with initial values built
from a unitary gamma produces two families per sign, conventionally
written P, R (first kind) and Q, S (second kind). Their values are
Laurent polynomials in z. The seeds take gamma's root from one
coefficients.BoundaryUnitary, kept as the family's boundary.

A family is one (n_sites, 2m, 2m) state X = [[P, Q], [R, S]], its letters
views of X. This module provides the transfer matrices and their explicit
inverses, seed construction, propagation of X by one banded triangular
solve (LAPACK ztbtrs, from _lapack) for every path of a call, the connection
coefficients relating families with different gamma or different sign, and
residual checks for the quadratic and conjugation identities.

The z-free part of every transfer matrix, and of every inverse, is built
once per sequence and direction from its coefficients and the inverses of
its defects (seq.defect_inverses), already in the solve's band layout
(seq.transfer_band, seq.transfer_inverse_band); the products of rho^-1 and
rho~^-1 with alpha are formed there only. A path runs from one site to
another at one z: a slice of those rows, reversed for a backward path, whose
odd sites' off-diagonal blocks take z and 1/z. _chain solves the paths of a
call, any number and both directions, in one stacked band: propagate's two
directions, and the Green kernels' paths at z and 1/conj(z).
transfer and transfer_inverse read a one-site path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partialmethod
from typing import NamedTuple

import numpy as np

from ._lapack import ztbtrs as _tbtrs
from .coefficients import (
    BoundaryUnitary,
    VerblunskySequence,
    _as_square,
    as_boundary,
    defect_matrices,
)
from .errors import (
    CmvError,
    MatrixCaseUnsupported,
    NotFinite,
    OutOfRange,
    PathLeavesWindow,
    SiteOutOfWindow,
    require_cut,
    require_nonzero,
    require_sites,
)

PLUS = 1
MINUS = -1


def _norm_sign(sign) -> int:
    if sign in (PLUS, MINUS):
        return sign
    if sign in ("+", "plus"):
        return PLUS
    if sign in ("-", "minus"):
        return MINUS
    raise OutOfRange(f"sign must be +1/-1 or '+'/'-', got {sign!r}")


def _as_steps(band: np.ndarray) -> np.ndarray:
    """The view of a C-contiguous band (n, w, 2w) in _chain's layout as the stack of -T
    (n, w, w): band[j, b, w - b + r] holds -T_{j+1}[r, b], item w + r + (2w - 1) b of row j."""
    n, w = band.shape[:2]
    item = band.itemsize
    return np.ndarray((n, w, w), complex, band, offset=w * item,
                      strides=(2 * w * w * item, item, (2 * w - 1) * item))


def _transfer_band(seq: VerblunskySequence, inverse: bool = False) -> np.ndarray:
    """-T(z, k) (-T(z, k)^-1 if inverse) for every interior site k, row k - k_min - 1, in
    _chain's band layout, read-only; the odd sites' off-diagonal blocks are stored without
    their z and 1/z. seq.transfer_band and seq.transfer_inverse_band keep it, built once."""
    alpha, m, n = seq.values[1:-1], seq.m, seq.n_sites - 1
    r, rt = seq.defect_inverses
    ra, rta = r @ alpha.conj().transpose(0, 2, 1), rt @ alpha     # rho^-1 alpha*, rho~^-1 alpha
    # blocks (d1, o1, o2, d2): odd k is [[d1, z o1], [o2 / z, d2]], even k [[d2, o2], [o1, d1]]
    T = np.stack((-ra, r, rt, -rta) if inverse else (rta, rt, r, ra))
    even = slice((seq.k_min + 1) % 2, None, 2)
    T[:, even] = T[::-1, even]
    T = T.reshape(2, 2, n, m, m).transpose(2, 0, 3, 1, 4).reshape(n, 2 * m, 2 * m)
    band = np.zeros((n, 2 * m, 4 * m), dtype=complex)
    np.negative(T, out=_as_steps(band))
    band.setflags(write=False)
    return band


def _path_band(seq: VerblunskySequence, z: complex, k_lo: int, k_hi: int,
               inverse: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """_chain's band over the path's steps: T(z, k) for k = k_lo .. k_hi, or with inverse
    T(z, k)^-1 for k = k_hi .. k_lo, then the all-zero closing row; written into out, a
    C-contiguous (n + 1, 2m, 4m) array, when given. The rows are sliced from the sequence's
    cache and only the odd sites' off-diagonal blocks take z (checked by the caller), as
    z o1 and o2 / z."""
    if not seq.k_min < k_lo <= k_hi < seq.k_max:
        raise PathLeavesWindow(f"transfer at sites {k_lo}..{k_hi} needs contractive "
                               f"coefficients, window is [{seq.k_min}, {seq.k_max}]")
    cache = seq.transfer_inverse_band if inverse else seq.transfer_band
    rows = cache[k_lo - seq.k_min - 1:k_hi - seq.k_min]
    n, m = len(rows), seq.m
    band = np.empty((n + 1, 2 * m, 4 * m), dtype=complex) if out is None else out
    band[:n], band[n] = (rows[::-1] if inverse else rows), 0.0
    first = k_hi if inverse else k_lo     # the path's first site
    flat, (upper, lower) = band.reshape(-1), _odd_blocks(n, m, (first + 1) % 2)
    flat[upper] = np.multiply(z, flat[upper])
    flat[lower] = np.divide(flat[lower], z)
    return band


@lru_cache(maxsize=128)
def _odd_blocks(n: int, m: int, parity: int) -> tuple:
    """Read-only flat positions, in an (n + 1, 2m, 4m) C-contiguous path band, of the
    upper-right and then the lower-left m x m block of the steps parity, parity + 2, ...
    below n of _as_steps' view: item w + (2w^2) j + r + (2w - 1) c holds step j's (r, c)."""
    w = 2 * m
    at = w + 2 * w * w * np.arange(parity, n, 2)[:, None, None] + np.arange(m)[:, None]
    out = tuple((at + rows + (2 * w - 1) * (cols + np.arange(m))).reshape(-1)
                for rows, cols in ((0, m), (m, 0)))
    for a in out:
        a.setflags(write=False)
    return out


def transfer(seq: VerblunskySequence, z, k: int) -> np.ndarray:
    """Transfer matrix T(z, k) moving a solution pair from k-1 to k.

    Odd k:  [[rt^-1 a, z rt^-1], [z^-1 r^-1, r^-1 a*]]
    Even k: [[r^-1 a*, r^-1], [rt^-1, rt^-1 a]]

    with a = alpha_k, r = rho_k, rt = rho_tilde_k.
    """
    return -_as_steps(_path_band(seq, require_nonzero(z), k, k))[0]


def transfer_inverse(seq: VerblunskySequence, z, k: int) -> np.ndarray:
    """Explicit inverse of transfer(seq, z, k), no solve involved.

    Odd k:  [[-r^-1 a*, z r^-1], [z^-1 rt^-1, -rt^-1 a]]
    Even k: [[-rt^-1 a, rt^-1], [r^-1, -r^-1 a*]]
    """
    return -_as_steps(_path_band(seq, require_nonzero(z), k, k, inverse=True))[0]


class FamilySite(NamedTuple):
    P: np.ndarray
    R: np.ndarray
    Q: np.ndarray
    S: np.ndarray


@dataclass(frozen=True)
class SolutionFamily:
    """Values of the four letters P, R, Q, S over a run of sites.

    X holds the state [[P, Q], [R, S]] of site k at index k - k_lo, shape
    (n_sites, 2m, 2m); P, R, Q, S are views of its (n_sites, m, m) blocks.
    The U-components are P and Q, the V-components R and S; (P(k); R(k))
    and (Q(k); S(k)) both satisfy the transfer recursion. boundary holds
    the gamma and the square root the seeds were built from.
    """

    sign: int
    z: complex
    boundary: BoundaryUnitary
    k0: int
    k_lo: int
    X: np.ndarray

    m = property(lambda self: self.X.shape[1] // 2)
    P = cached_property(lambda self: self.X[:, :self.m, :self.m])
    R = cached_property(lambda self: self.X[:, self.m:, :self.m])
    Q = cached_property(lambda self: self.X[:, :self.m, self.m:])
    S = cached_property(lambda self: self.X[:, self.m:, self.m:])
    k_hi = property(lambda self: self.k_lo + self.X.shape[0] - 1)

    def covers(self, k: int) -> bool:
        return self.k_lo <= k <= self.k_hi

    def at(self, k: int) -> FamilySite:
        if not self.covers(k):
            raise SiteOutOfWindow(f"site {k} not covered, family spans "
                                  f"[{self.k_lo}, {self.k_hi}]")
        i = k - self.k_lo
        return FamilySite(P=self.P[i], R=self.R[i], Q=self.Q[i], S=self.S[i])


def seed_family(gamma, z, k0: int, sign) -> SolutionFamily:
    """Single-site family holding the initial values at k0.

    Plus sign, odd k0:  P = z g, R = g*; Q = z g, S = -g*
    Plus sign, even k0: P = g*, R = g; Q = -g*, S = g
    Minus sign, odd k0:  P = g, R = -g*; Q = g, S = g*
    Minus sign, even k0: P = -z g*, R = g; Q = z g*, S = g

    where g is the root of gamma (an array or a BoundaryUnitary; the
    principal root for an array) and g* doubles as gamma^{-1/2}.
    MalformedInput for a k0 that is not an integer (errors.require_cut).
    """
    z, k0, sign = require_nonzero(z), require_cut(k0), _norm_sign(sign)
    boundary = as_boundary(gamma)
    return SolutionFamily(sign, z, boundary, k0, k0, _seeds(boundary, (z,), k0, sign))


def _seeds(boundary: BoundaryUnitary, zs, k0: int, sign: int) -> np.ndarray:
    """seed_family's state at k0 for each of zs (checked by the caller), stacked
    (len(zs), 2m, 2m); each z-dependent block is the one-z product (a product over a stack
    of z may round otherwise), the others are written once for all."""
    gh = boundary.root
    ghi, m = gh.conj().T, gh.shape[0]
    X = np.empty((len(zs), 2 * m, 2 * m), dtype=complex)
    P, R, Q, S = X[:, :m, :m], X[:, m:, :m], X[:, :m, m:], X[:, m:, m:]
    if sign == PLUS and k0 % 2 == 1:
        R[:], S[:] = ghi, -ghi
        for p, q, z in zip(P, Q, zs):
            p[:] = q[:] = z * gh
    elif sign == PLUS:
        P[:], R[:], Q[:], S[:] = ghi, gh, -ghi, gh
    elif k0 % 2 == 1:
        P[:], R[:], Q[:], S[:] = gh, -ghi, gh, ghi
    else:
        R[:] = S[:] = gh
        for p, q, z in zip(P, Q, zs):
            p[:], q[:] = -z * ghi, z * ghi
    return X


def _chain(seq: VerblunskySequence, paths) -> tuple:
    """The states along several paths from one banded solve.

    Each path (z, X0, k_from, k_to) starts from the state X_0 = X0 at site k_from and moves
    one site toward k_to per step, |k_to - k_from| steps: X_i = T(z, k_from + i) X_{i-1}
    forward, X_i = T(z, k_from - i + 1)^-1 X_{i-1} backward. z is checked by the caller.
    Returns (X, starts): X stacks each path's X_0 .. X_n in turn, shape (rows, 2m, 2m), and
    path p's X_0 is X[starts[p]].

    The recursion is the unit block-lower-bidiagonal system X_0 = X0, X_i - T_i X_{i-1} = 0,
    of band width 4m - 1 with 2m right-hand sides; band[j, b, d] holds its entry
    A[(j*w + b) + d, j*w + b], which is -T_{j+1}[b + d - w, b] for d >= w - b and 0 for
    0 < d < w - b (_path_band). Each path's band ends in an all-zero row, so the paths
    stacked in one band stay decoupled: LAPACK's tbtrs solves them all by substitution
    without pivoting, and each X_i is T_i X_{i-1} summed in another order, bit for bit the
    value of a solve of its path alone. The zero terms may flip a signed zero of an X_0,
    so each X0 is written back. A value that overflows makes every later state of its path
    non-finite (each T is invertible), and through the zero row every later path: so the
    first path whose last state is not finite is the one that overflowed, and NotFinite
    names the sites and z of its family (the paths at its z).
    """
    w, starts, rows = 2 * seq.m, [], 0
    for _, _, k_from, k_to in paths:
        starts.append(rows)
        rows += abs(k_to - k_from) + 1
    band = np.empty((rows, w, 2 * w), dtype=complex)
    rhs = np.zeros((rows * w, w), dtype=complex, order="F")
    with np.errstate(over="ignore", invalid="ignore"):     # reported below as NotFinite
        for (z, X0, k_from, k_to), s in zip(paths, starts):
            rhs[s * w:(s + 1) * w] = X0
            n = abs(k_to - k_from)
            if n:
                _path_band(seq, z, min(k_from, k_to) + 1, max(k_from, k_to),
                           inverse=k_to < k_from, out=band[s:s + n + 1])
            else:
                band[s] = 0.0
    # info is nonzero only for malformed arguments: a unit diagonal is never singular
    x, _ = _tbtrs(band.reshape(-1, 2 * w).T, rhs, uplo="L", diag="U", overwrite_b=1)
    X = x.reshape(rows, w, w)
    last = starts[1:] + [rows]          # after each path's last state
    if not np.isfinite(X[[e - 1 for e in last]]).all():
        bad = next(p for p, e in enumerate(last) if not np.isfinite(X[e - 1]).all())
        z = paths[bad][0]
        ends = [k for path in paths if path[0] == z for k in path[2:]]
        raise NotFinite(f"solution family overflows on sites {min(ends)}..{max(ends)} "
                        f"at z = {z}")
    for (_, X0, _, _), s in zip(paths, starts):
        X[s] = X0
    return X, starts


def propagate(seq: VerblunskySequence, family: SolutionFamily, *targets: int) -> SolutionFamily:
    """Extend a family so that it covers every target site.

    The family's state X = [[P, Q], [R, S]] has columns (P; R) and (Q; S)
    that obey the same recursion. It moves backward from its first site
    with the transfer matrices' explicit inverses and forward from its
    last with the transfer matrices: two paths of one banded triangular
    solve (_chain) over bands sliced from the sequence's z-free cache.
    Already-covered sites are kept as stored, family.X copied once.
    MalformedInput for a target that is not an integer; ZeroZ for a family at
    z = 0; NotFinite when a propagated value overflows.
    """
    targets = require_sites(targets, "each target must be an integer site")
    for k in targets:
        if not seq.k_min <= k <= seq.k_max - 1:
            raise PathLeavesWindow(f"target site {k} outside [{seq.k_min}, {seq.k_max - 1}]")
    new_lo, new_hi = min((family.k_lo, *targets)), max((family.k_hi, *targets))
    if (new_lo, new_hi) == (family.k_lo, family.k_hi):
        return family
    z = require_nonzero(family.z)
    X, (back, fwd) = _chain(seq, ((z, family.X[0], family.k_lo, new_lo),
                                  (z, family.X[-1], family.k_hi, new_hi)))
    X = np.concatenate((X[back + family.k_lo - new_lo:back:-1], family.X,
                        X[fwd + 1:fwd + 1 + new_hi - family.k_hi]))
    return SolutionFamily(family.sign, z, family.boundary, family.k0, new_lo, X)


def window_family(seq: VerblunskySequence, gamma, z, k0: int, sign) -> SolutionFamily:
    """Seed at k0 and propagate over all sites of the window."""
    return propagate(seq, seed_family(as_boundary(gamma, seq.m), z, k0, sign),
                     seq.k_min, seq.k_max - 1)


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Right-multiplication coefficients relating two seed choices.

    C1/D1 map between same-sign families with boundary unitaries gamma1
    and gamma2; C3/D3/C4/D4 map the plus family referenced at k0 to the
    minus family referenced at k0 - 1. The z-dependent pair C2/D2
    (plus to minus at equal reference site) is exposed as methods since
    it also carries a z^(k0 mod 2) prefactor.
    """

    C3: np.ndarray
    D3: np.ndarray
    C4: np.ndarray
    D4: np.ndarray
    parity: int
    g1_sqrt: np.ndarray
    g2_sqrt: np.ndarray

    def _plus_to_minus(self, z, op) -> np.ndarray:
        """op(g1h* g2h, z g1h g2h*) / (2 z^parity): c2(z) with op subtract, d2(z) with add."""
        z = require_nonzero(z)
        g1h, g2h = self.g1_sqrt, self.g2_sqrt
        return op(g1h.conj().T @ g2h, z * g1h @ g2h.conj().T) / (2.0 * z ** self.parity)

    c2 = partialmethod(_plus_to_minus, op=np.subtract)
    d2 = partialmethod(_plus_to_minus, op=np.add)
    C1 = cached_property(lambda self: self.d2(1))    # at z = 1, z^parity = 1
    D1 = cached_property(lambda self: self.c2(1))


def connection(gamma1, gamma2, alpha_k0, k0: int) -> ConnectionCoefficients:
    """Connection coefficients for families seeded at k0.

    Args:
        gamma1, gamma2: the families' boundary unitaries (arrays or
            BoundaryUnitary values, whose roots seeded the families).
        alpha_k0: the contractive coefficient at the reference site,
            used by the cross-site pairs C3/D3/C4/D4.
        k0: reference site; only its parity enters (through c2/d2).

    Returns:
        ConnectionCoefficients with C3, D3, C4, D4 as fields, c2(z), d2(z)
        as methods, and C1 = d2(1), D1 = c2(1).
    """
    alpha = _as_square(alpha_k0)
    d = defect_matrices(alpha)
    return _connection(gamma1, gamma2, alpha, np.linalg.inv(d.rho), np.linalg.inv(d.rho_tilde),
                       require_cut(k0))


def _cut_connection(seq: VerblunskySequence, gamma, k0: int) -> ConnectionCoefficients:
    """connection(gamma, gamma, seq.alpha(k0), k0) for a checked k0, from the sequence's
    defect inverses (seq.defect_inverses) where k0 is interior, the same values; elsewhere
    connection's own route and its error."""
    i = k0 - seq.k_min - 1
    if not 0 <= i < seq.n_sites - 1:
        return connection(gamma, gamma, seq.alpha(k0), k0)
    ri, rti = seq.defect_inverses[:, i]
    return _connection(gamma, gamma, seq.alpha(k0), ri, rti, k0)


def _connection(gamma1, gamma2, alpha: np.ndarray, ri: np.ndarray, rti: np.ndarray,
                k0: int) -> ConnectionCoefficients:
    """connection from alpha_k0 and its inverse defects ri = rho^-1, rti = rho~^-1."""
    g1h, g2h = (as_boundary(g, alpha.shape[0]).root for g in (gamma1, gamma2))
    g1i, g2i = g1h.conj().T, g2h.conj().T
    X1 = g1i @ rti @ alpha @ g2i
    X2 = g1h @ ri @ alpha.conj().T @ g2h
    X3 = g1i @ rti @ g2h
    X4 = g1h @ ri @ g2i
    C3 = ((X1 - X2) + (X3 - X4)) / 2.0
    D3 = ((X1 + X2) + (X3 + X4)) / 2.0
    C4 = (-(X1 + X2) + (X3 + X4)) / 2.0
    D4 = (-(X1 - X2) + (X3 - X4)) / 2.0
    return ConnectionCoefficients(C3=C3, D3=D3, C4=C4, D4=D4,
                                  parity=k0 % 2, g1_sqrt=g1h, g2_sqrt=g2h)


def _check_pair(fam: SolutionFamily, fam_conj: SolutionFamily):
    want = 1.0 / np.conj(fam.z)
    if abs(fam_conj.z - want) > 1e-12 * max(1.0, abs(want)):
        raise CmvError(
            f"second family must be evaluated at 1/conj(z) = {want}, "
            f"got {fam_conj.z}"
        )
    if fam.sign != fam_conj.sign or fam.k0 != fam_conj.k0:
        raise CmvError("paired families must share sign and reference site")
    if not np.allclose(fam.boundary.root, fam_conj.boundary.root, atol=1e-12):
        raise CmvError("paired families must use the same gamma square root")


def _rel(residual: float, *scales: float, unit: float = 1.0) -> float:
    return residual / max(unit, *scales)


def _unit_scale(x: np.ndarray, axis=None):
    """The power of two bringing max |x| over axis into [1/2, 1) (1 where that is 0 or not
    finite): scaling by it is exact barring underflow, and no square or product overflows."""
    return np.ldexp(1.0, -np.frexp(np.abs(x).max(axis=axis))[1])


def quadratic_identities(pair_plus, pair_minus, k: int) -> dict:
    """Residuals of the four bilinear identities at site k.

    Each argument is a tuple (family at z, family at 1/conj(z)) of one
    sign. With A* denoting the conjugate transpose of the value at
    1/conj(z), the identities are

        P A(Q)* + Q A(P)* = 2 (-1)^(k+1) I
        R A(S)* + S A(R)* = 2 (-1)^k I
        P A(S)* + Q A(R)* = 0
        R A(Q)* + S A(P)* = 0

    Returns a dict of relative residuals keyed like "PQ+", "RS-", each the unscaled one:
    each family's values at k are scaled by its _unit_scale, c and the floor 1 by both.
    """
    out = {}
    for label, (fam, fam_conj) in (("+", pair_plus), ("-", pair_minus)):
        _check_pair(fam, fam_conj)
        a, b = fam.at(k), fam_conj.at(k)
        sa, sb = (_unit_scale(f.X[k - f.k_lo]) for f in (fam, fam_conj))
        a, b = FamilySite._make(v * sa for v in a), FamilySite._make(v * sb for v in b)
        eye = np.eye(fam.m)
        sgn = -1.0 if k % 2 == 0 else 1.0
        # key: (X, Y, X', Y', c) for X A(Y)* + X' A(Y')* = c I
        identities = {"PQ": (a.P, b.Q, a.Q, b.P, 2.0 * sgn),
                      "RS": (a.R, b.S, a.S, b.R, -2.0 * sgn),
                      "PS": (a.P, b.S, a.Q, b.R, 0.0),
                      "RQ": (a.R, b.Q, a.S, b.P, 0.0)}
        for key, (x1, y1, x2, y2, c) in identities.items():
            t1, t2 = x1 @ y1.conj().T, x2 @ y2.conj().T
            out[key + label] = _rel(np.linalg.norm(t1 + t2 - c * sa * sb * eye),
                                    np.linalg.norm(t1), np.linalg.norm(t2), unit=sa * sb)
    return out


def conjugation_symmetry(pair, k: int) -> dict:
    """Scalar-only residuals tying R, S at z to P, Q at 1/conj(z).

    For the plus family with p = k0 mod 2:

        r(z, k) = z^p conj(p(1/conj(z), k))
        s(z, k) = -z^p conj(q(1/conj(z), k))

    and for the minus family with e = (k0 + 1) mod 2 the same relations
    with both right-hand signs flipped. Returns relative residuals
    keyed "R" and "S".
    """
    fam, fam_conj = pair
    if fam.m != 1:
        raise MatrixCaseUnsupported("conjugation symmetry applies to m = 1 only")
    _check_pair(fam, fam_conj)
    a, b = fam.at(k), fam_conj.at(k)
    w = fam.sign * fam.z ** ((fam.k0 + (fam.sign == MINUS)) % 2)   # +z^p or -z^e
    pred_r, pred_s = w * np.conj(b.P[0, 0]), -w * np.conj(b.Q[0, 0])
    return {
        "R": _rel(abs(a.R[0, 0] - pred_r), abs(a.R[0, 0]), abs(pred_r)),
        "S": _rel(abs(a.S[0, 0] - pred_s), abs(a.S[0, 0]), abs(pred_s)),
    }
