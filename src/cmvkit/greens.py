"""Explicit resolvent kernels and the matrix Wronskian.

Half- and full-window resolvents share one factorized form: the pairing
step _pairing, (2z)^{-1} left(k) W^{-1} right(kp)* stacked over a batch
of (k, kp) pairs at one z. The half kernels hand it family values P and
hats Q + P m = X [m; I] at the pairs' sites, with no W; the full kernel
the Weyl solutions U_+/- and W = M_+ - M_-. Each family is one propagate
call over the span of the pairs' sites. A half-window operator U_h is
exactly unitary, so m(1/conj(z)) = -m(z)*: the kernels read each m or M
at 1/conj(z) from the solve at z. Each kernel is an independent formula
meant to be compared against the oracle dense_resolvent_entries, one
banded LU per z of the same finite operator (assembly.resolvent_blocks)
that propagates no solution; the tests check that solve against a dense
LU. half_lattice_green and dense_resolvent_entry are the single-pair forms
of the half kernel and the oracle; the full kernel takes a one-pair batch.

Scalar-only variants of the kernels, written with same-z values and a
power-of-z prefactor instead of conjugated values, are provided as a
separate code path. Each kernel turns gamma into one coefficients.BoundaryUnitary
at entry and hands it to every family and m-function it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .assembly import half_sites, resolvent_blocks
from .coefficients import VerblunskySequence, as_boundary
from .errors import (
    MatrixCaseUnsupported,
    SingularWronskian,
    SiteOutOfWindow,
    require_off_circle,
    solve,
)
from .laurent import (
    PLUS,
    _norm_sign,
    _rel,
    propagate,
    seed_family,
)
from .weyl import _combination, _weyl_solutions, m_function


class GreensBranch(Enum):
    UPPER_ODD = "upper-odd"
    LOWER_EVEN = "lower-even"


@dataclass(frozen=True)
class GreensEntry:
    """One m x m block of a resolvent, tagged with the branch used."""

    k: int
    kp: int
    value: np.ndarray
    branch: GreensBranch


def _branch(k: int, kp: int) -> GreensBranch:
    if k < kp or (k == kp and k % 2 == 1):
        return GreensBranch.UPPER_ODD
    return GreensBranch.LOWER_EVEN


def wronskian(pair_conj, pair_z, k: int) -> np.ndarray:
    """Bilinear pairing of two solution pairs, constant in k.

    Args:
        pair_conj: (U, V) values at 1/conj(z), site k.
        pair_z: (U, V) values at z, site k.
        k: the site, entering only through (-1)^(k+1).

    Returns:
        ((-1)^(k+1) / 2) (U_conj* U_z - V_conj* V_z).
    """
    Ua, Va = pair_conj
    Ub, Vb = pair_z
    sgn = 1.0 if k % 2 == 1 else -1.0
    return (sgn / 2.0) * (Ua.conj().T @ Ub - Va.conj().T @ Vb)


def wronskian_symmetry_check(M_plus: np.ndarray, M_minus: np.ndarray) -> float:
    """Residual of M+ W^{-1} M- = M- W^{-1} M+ with W = M+ - M-."""
    W = M_plus - M_minus
    left = M_plus @ solve(W, M_minus, SingularWronskian)
    right = M_minus @ solve(W, M_plus, SingularWronskian)
    return float(_rel(np.linalg.norm(left - right), np.linalg.norm(left), np.linalg.norm(right)))


def _check_pairs(seq: VerblunskySequence, k0: int, sign: int | None, pairs):
    """pairs as a list, and their sites, after checking that every site lies in the half
    window of sign at k0, or in the window when sign is None."""
    pairs = list(pairs)
    sites = [site for pair in pairs for site in pair]
    lo, hi = (seq.k_min, seq.k_max - 1) if sign is None else half_sites(seq, k0, sign)
    where = "window" if sign is None else "half-window"
    for site in sites:
        if not lo <= site <= hi:
            raise SiteOutOfWindow(f"site {site} outside the {where} [{lo}, {hi}]")
    return pairs, sites


def _pairing(z, pairs, upper, lower, W=None) -> list:
    """(2z)^{-1} left(k) W^{-1} right(kp)* per pair, one stacked call per step (no W if None),
    from the (left, right) stacks upper or lower, as the pair's _branch names."""
    branches = [_branch(k, kp) for k, kp in pairs]
    up = np.array([branch is GreensBranch.UPPER_ODD for branch in branches], dtype=bool)
    left, right = (np.where(up[:, None, None], u, low) for u, low in zip(upper, lower))
    right = right.conj().transpose(0, 2, 1)
    if W is not None:
        right = solve(W, right, SingularWronskian)
    return [GreensEntry(k=k, kp=kp, value=value, branch=branch)
            for (k, kp), value, branch in zip(pairs, left @ right / (2.0 * z), branches)]


def half_green_entries(seq: VerblunskySequence, k0: int, gamma, z, pairs, sign) -> list:
    """Blocks of (U_half - z)^{-1} for many (k, kp) pairs at one z, from the factorized kernel.

    Sign +, with hat(z, k) = Q(z, k) + P(z, k) m(z):

        upper: -(2z)^{-1} P(z, k) hat(1/conj(z), kp)*
        lower:  (2z)^{-1} hat(z, k) P(1/conj(z), kp)*

    Sign - swaps which side carries the hatted combination and flips
    the branch signs. U_half is exactly unitary, so m(1/conj(z)) = -m(z)*
    and one banded solve gives m at both points. One family per z and
    1/conj(z) is propagated from k0 to the farthest site any pair reads;
    all share one square root of gamma.
    """
    sign = _norm_sign(sign)
    z = require_off_circle(z)
    zc = 1.0 / np.conj(z)
    pairs, sites = _check_pairs(seq, k0, sign, pairs)
    gamma = as_boundary(gamma, seq.m)
    fam_z, fam_c = (propagate(seq, seed_family(gamma, w, k0, sign), *sites) for w in (z, zc))
    m_z = m_function(seq, k0, gamma, z, sign)
    ik, ikp = np.array(pairs, dtype=int).reshape(-1, 2).T - fam_z.k_lo   # fam_c's span is fam_z's
    top_z, top_c = fam_z.X[ik, :seq.m], fam_c.X[ikp, :seq.m]    # (P, Q) at k and at kp
    P_z, P_c = top_z[..., :seq.m], top_c[..., :seq.m]
    hat_z, hat_c = _combination(top_z, m_z), _combination(top_c, -m_z.conj().T)
    if sign == PLUS:
        return _pairing(z, pairs, (-P_z, hat_c), (hat_z, P_c))
    return _pairing(z, pairs, (-hat_z, P_c), (P_z, hat_c))


def half_lattice_green(seq: VerblunskySequence, k0: int, gamma, z,
                       k: int, kp: int, sign) -> GreensEntry:
    """One block of (U_half - z)^{-1}: the single-pair half_green_entries."""
    return half_green_entries(seq, k0, gamma, z, ((k, kp),), sign)[0]


def full_green_entries(seq: VerblunskySequence, k0: int, gamma, z, pairs) -> list:
    """Blocks of (U - z)^{-1} for many (k, kp) pairs at one z.

    The kernel is

        upper: (2z)^{-1} U_-(z, k) W^{-1} U_+(1/conj(z), kp)*
        lower: (2z)^{-1} U_+(z, k) W^{-1} U_-(1/conj(z), kp)*

    with W = M_plus(z) - M_minus(z). Both half-window operators are exactly unitary,
    so M_+/-(1/conj(z)) = -M_+/-(z)*: the solutions at 1/conj(z) take the M's solved
    at z. Weyl solutions are built once and reused across the pairs and share one
    root of gamma; each sign pair shares one family, propagated only between k0 and
    the pairs' sites.
    """
    z = require_off_circle(z)
    zc = 1.0 / np.conj(z)
    gamma = as_boundary(gamma, seq.m)
    pairs, sites = _check_pairs(seq, k0, None, pairs)
    sol_p, sol_m = _weyl_solutions(seq, k0, gamma, z, sites)
    sol_pc, sol_mc = _weyl_solutions(seq, k0, gamma, zc, sites,
                                     Ms=[-sol.M.conj().T for sol in (sol_p, sol_m)])
    ik, ikp = np.array(pairs, dtype=int).reshape(-1, 2).T - sol_p.k_lo   # all four share one span
    return _pairing(z, pairs, (sol_m.U[ik], sol_pc.U[ikp]), (sol_p.U[ik], sol_mc.U[ikp]),
                    W=sol_p.M - sol_m.M)


def dense_resolvent_entries(seq: VerblunskySequence, z, pairs, half=None,
                            k0: int | None = None, gamma=None) -> list:
    """Oracle blocks of (U - z)^{-1} for many (k, kp) pairs at one z, from one banded LU
    (assembly.resolvent_blocks); with half = +1/-1 (and k0, gamma) those of the half-window
    operator. It propagates no solution family, so it checks the factorized kernels;
    m_function reads G(k0, k0) from the same banded solve. No dense matrix is formed."""
    z = require_off_circle(z, allow_zero=True)
    sign = None if half is None else _norm_sign(half)
    pairs, _ = _check_pairs(seq, k0, sign, pairs)
    return resolvent_blocks(seq, z, pairs, sign, k0, gamma)


def dense_resolvent_entry(seq: VerblunskySequence, z, k: int, kp: int,
                          half=None, k0: int | None = None,
                          gamma=None) -> np.ndarray:
    """One oracle block of (U - z)^{-1}: the single-pair dense_resolvent_entries."""
    return dense_resolvent_entries(seq, z, ((k, kp),), half, k0, gamma)[0]


def half_green_scalar_prefactor(seq: VerblunskySequence, k0: int, gamma, z,
                                k: int, kp: int, sign) -> complex:
    """Scalar half-window kernel in its same-z, power-prefactor form.

    Sign +, with w = z^(-(k0 mod 2)) / (2z):

        upper: w p(z, k) vhat(z, kp)
        lower: w uhat(z, k) r(z, kp)

    where p, r and the hatted pair uhat = q + p m, vhat = s + r m all come
    from the plus family. Sign - uses the minus family, exponent
    (k0 + 1) mod 2, and the mirrored branch assignment.
    """
    if seq.m != 1:
        raise MatrixCaseUnsupported("prefactor kernels are scalar-only")
    sign = _norm_sign(sign)
    z = require_off_circle(z)
    _check_pairs(seq, k0, sign, [(k, kp)])
    gamma = as_boundary(gamma, seq.m)
    m_val = m_function(seq, k0, gamma, z, sign)[0, 0]
    fam = propagate(seq, seed_family(gamma, z, k0, sign), k, kp)
    exponent = k0 % 2 if sign == PLUS else (k0 + 1) % 2
    pref = z ** (-exponent) / (2.0 * z)
    a, b = fam.at(k), fam.at(kp)
    if (sign == PLUS) == (_branch(k, kp) is GreensBranch.UPPER_ODD):
        return complex(pref * a.P[0, 0] * (b.S[0, 0] + b.R[0, 0] * m_val))
    return complex(pref * (a.Q[0, 0] + a.P[0, 0] * m_val) * b.R[0, 0])


def full_green_scalar_prefactor(seq: VerblunskySequence, k0: int, gamma, z,
                                k: int, kp: int) -> complex:
    """Scalar full-window kernel in its same-z, power-prefactor form.

    With w = -z^(-(k0 mod 2)) / (2z (M+ - M-)):

        upper: w u_minus(z, k) v_plus(z, kp)
        lower: w u_plus(z, k) v_minus(z, kp)
    """
    if seq.m != 1:
        raise MatrixCaseUnsupported("prefactor kernels are scalar-only")
    z = require_off_circle(z)
    _check_pairs(seq, k0, None, [(k, kp)])
    sol_p, sol_m = _weyl_solutions(seq, k0, gamma, z, (k, kp))
    Wv = (sol_p.M - sol_m.M)[0, 0]
    if abs(Wv) < 1e-14:
        raise SingularWronskian(f"M_plus - M_minus vanished at z = {z}")
    pref = -z ** (-(k0 % 2)) / (2.0 * z * Wv)
    if _branch(k, kp) is GreensBranch.UPPER_ODD:
        return complex(pref * sol_m.at(k)[0][0, 0] * sol_p.at(kp)[1][0, 0])
    return complex(pref * sol_p.at(k)[0][0, 0] * sol_m.at(kp)[1][0, 0])
