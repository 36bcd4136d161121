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
inverses (stacked by site from the sequence's arrays), seed construction,
propagation of X by one banded triangular solve (LAPACK ztbtrs, from
_lapack) per direction, the connection coefficients relating families
with different gamma or different sign, and residual checks for the
quadratic and conjugation identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partialmethod
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
    require_nonzero,
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


def _transfers(seq: VerblunskySequence, z, k_lo: int, k_hi: int,
               inverse: bool = False) -> np.ndarray:
    """T(z, k) for k = k_lo .. k_hi stacked by site (their inverses if inverse),
    placed from the sequence's stacked blocks; only the odd sites depend on z."""
    z = require_nonzero(z)
    if not seq.k_min < k_lo <= k_hi < seq.k_max:
        raise PathLeavesWindow(f"transfer at sites {k_lo}..{k_hi} needs contractive "
                               f"coefficients, window is [{seq.k_min}, {seq.k_max}]")
    A, m, rows = seq.arrays, seq.m, slice(k_lo - seq.k_min - 1, k_hi - seq.k_min)
    ri, rti = A.rho_inv[rows], A.rho_tilde_inv[rows]
    ri_ah, rti_a = A.rho_inv_alpha_star[rows], A.rho_tilde_inv_alpha[rows]
    # odd k: [[d1, z o1], [o2 / z, d2]]; even k: [[d2, o2], [o1, d1]]
    d1, d2, o1, o2 = (-ri_ah, -rti_a, ri, rti) if inverse else (rti_a, ri_ah, rti, ri)
    T = np.empty((len(ri), 2 * m, 2 * m), dtype=complex)
    odd, even = slice((k_lo + 1) % 2, None, 2), slice(k_lo % 2, None, 2)
    T[odd, :m, :m], T[odd, :m, m:] = d1[odd], z * o1[odd]
    T[odd, m:, :m], T[odd, m:, m:] = o2[odd] / z, d2[odd]
    T[even, :m, :m], T[even, :m, m:] = d2[even], o2[even]
    T[even, m:, :m], T[even, m:, m:] = o1[even], d1[even]
    return T


def transfer(seq: VerblunskySequence, z, k: int) -> np.ndarray:
    """Transfer matrix T(z, k) moving a solution pair from k-1 to k.

    Odd k:  [[rt^-1 a, z rt^-1], [z^-1 r^-1, r^-1 a*]]
    Even k: [[r^-1 a*, r^-1], [rt^-1, rt^-1 a]]

    with a = alpha_k, r = rho_k, rt = rho_tilde_k.
    """
    return _transfers(seq, z, k, k)[0]


def transfer_inverse(seq: VerblunskySequence, z, k: int) -> np.ndarray:
    """Explicit inverse of transfer(seq, z, k), no solve involved.

    Odd k:  [[-r^-1 a*, z r^-1], [z^-1 rt^-1, -rt^-1 a]]
    Even k: [[-rt^-1 a, rt^-1], [r^-1, -r^-1 a*]]
    """
    return _transfers(seq, z, k, k, inverse=True)[0]


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
    """
    z = require_nonzero(z)
    sign = _norm_sign(sign)
    boundary = as_boundary(gamma)
    gh, ghi = boundary.root, boundary.root.conj().T
    if sign == PLUS and k0 % 2 == 1:
        vals = (z * gh, ghi, z * gh, -ghi)
    elif sign == PLUS:
        vals = (ghi, gh, -ghi, gh)
    elif k0 % 2 == 1:
        vals = (gh, -ghi, gh, ghi)
    else:
        vals = (-z * ghi, gh, z * ghi, gh)
    m = gh.shape[0]
    X = np.empty((1, 2 * m, 2 * m), dtype=complex)
    X[0, :m, :m], X[0, m:, :m], X[0, :m, m:], X[0, m:, m:] = vals
    return SolutionFamily(sign=sign, z=z, boundary=boundary, k0=k0, k_lo=k0, X=X)


def _chain(steps: np.ndarray, X0: np.ndarray) -> np.ndarray:
    """X_i = steps[i - 1] X_{i - 1} for i = 1 .. n, stacked, from one banded solve.

    The recursion is the unit block-lower-bidiagonal system X_0 = X0,
    X_i - T_i X_{i-1} = 0, of band width 4m - 1 with 2m right-hand sides;
    LAPACK's tbtrs solves it by substitution without pivoting, so each
    X_i is T_i X_{i-1} summed in another order.
    """
    n, w = steps.shape[:2]
    # band[j, b, d] holds A[(j*w + b) + d, j*w + b]: -T_{j+1}[b + d - w, b] for d >= w - b
    band = np.zeros((n + 1, w, 2 * w), dtype=complex)
    for b in range(w):
        np.negative(steps[:, :, b], out=band[:n, b, w - b:2 * w - b])
    rhs = np.zeros(((n + 1) * w, w), dtype=complex, order="F")
    rhs[:w] = X0
    # info is nonzero only for malformed arguments: a unit diagonal is never singular
    x, _ = _tbtrs(band.reshape(-1, 2 * w).T, rhs, uplo="L", diag="U", overwrite_b=1)
    return x[w:].reshape(n, w, w)


def propagate(seq: VerblunskySequence, family: SolutionFamily, *targets: int) -> SolutionFamily:
    """Extend a family so that it covers every target site.

    The family's state X = [[P, Q], [R, S]] has columns (P; R) and (Q; S)
    that obey the same recursion. It moves backward from its first site
    with the transfer matrices' explicit inverses and forward from its
    last with the transfer matrices, each direction one banded triangular
    solve over the path's matrices, built as one stack. Already-covered
    sites are kept as stored, family.X copied once. Raises NotFinite when
    a propagated value overflows.
    """
    for k in targets:
        if not seq.k_min <= k <= seq.k_max - 1:
            raise PathLeavesWindow(f"target site {k} outside [{seq.k_min}, {seq.k_max - 1}]")
    new_lo, new_hi = min((family.k_lo, *targets)), max((family.k_hi, *targets))
    if (new_lo, new_hi) == (family.k_lo, family.k_hi):
        return family
    X = np.empty((new_hi - new_lo + 1, *family.X.shape[1:]), dtype=complex)
    lo, hi = family.k_lo - new_lo, family.k_hi - new_lo    # kept sites' indices
    X[lo:hi + 1] = family.X
    with np.errstate(over="ignore", invalid="ignore"):    # reported below as NotFinite
        if new_lo < family.k_lo:
            steps = _transfers(seq, family.z, new_lo + 1, family.k_lo, inverse=True)
            X[:lo] = _chain(steps[::-1], X[lo])[::-1]
        if new_hi > family.k_hi:
            steps = _transfers(seq, family.z, family.k_hi + 1, new_hi)
            X[hi + 1:] = _chain(steps, X[hi])
    if not np.isfinite(X).all():
        raise NotFinite(f"solution family overflows on sites {new_lo}..{new_hi} "
                        f"at z = {family.z}")
    return SolutionFamily(family.sign, family.z, family.boundary, family.k0, new_lo, X)


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
    g1h, g2h = (as_boundary(g, alpha.shape[0]).root for g in (gamma1, gamma2))
    g1i, g2i = g1h.conj().T, g2h.conj().T
    d = defect_matrices(alpha)
    ri = np.linalg.inv(d.rho)
    rti = np.linalg.inv(d.rho_tilde)

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
