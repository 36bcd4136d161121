"""Explicit resolvent kernels and the matrix Wronskian.

Half- and full-window resolvents share one body, _kernel: (2z)^{-1}
left(k) W^{-1} right(kp)* stacked over a batch of (k, kp) pairs at one z,
each pair two integer sites (else MalformedInput). It propagates one family
at z and one at 1/conj(z), each one propagate call over the span of the
pairs' sites, and forms each pair's factors from their (P, Q) rows at k and
kp only: P, or X [c; I] = Q + P c for one m x m coefficient c (m, M_+/-, or
their values at 1/conj(z)); the full kernel adds W = M_+ - M_-. A half-window
operator U_h is exactly unitary, so m(1/conj(z)) = -m(z)*: the kernels read
each m or M at 1/conj(z) from the solve at z. Each kernel is an independent
formula meant to be compared against the oracle dense_resolvent_entries, one
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

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .assembly import half_sites, resolvent_blocks
from .coefficients import VerblunskySequence, as_boundary
from .errors import (
    MalformedInput,
    MatrixCaseUnsupported,
    SingularWronskian,
    SiteOutOfWindow,
    require_off_circle,
    solve,
)
from .laurent import (
    MINUS,
    PLUS,
    _norm_sign,
    _rel,
    propagate,
    seed_family,
)
from .weyl import _M_functions, _combination, _weyl_solutions, m_function


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
    """pairs as a list of (k, kp) int tuples, and their sites, after checking that each is two
    integer sites lying in the half window of sign at k0, or in the window when sign is None."""
    try:
        pairs = [(operator.index(k), operator.index(kp)) for k, kp in pairs]
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"each pair must be two integer sites (k, kp): {exc}") from exc
    sites = [site for pair in pairs for site in pair]
    lo, hi = (seq.k_min, seq.k_max - 1) if sign is None else half_sites(seq, k0, sign)
    where = "window" if sign is None else "half-window"
    for site in sites:
        if not lo <= site <= hi:
            raise SiteOutOfWindow(f"site {site} outside the {where} [{lo}, {hi}]")
    return pairs, sites


def _side(top: np.ndarray, coefficients, up: list) -> np.ndarray:
    """One side's factor per pair from its (P, Q) rows top, with coefficients[0] on the rows
    up marks UPPER_ODD and coefficients[1] on the others: None reads P, c reads X [c; I].
    A one-branch batch takes one slice or one product over the whole stack."""
    def read(part, c):
        return part[..., :part.shape[1]] if c is None else _combination(part, c)
    if all(up) or not any(up):
        return read(top, coefficients[0 if all(up) else 1])
    mask = np.array(up)
    out = np.empty_like(top[..., :top.shape[1]])
    for rows, c in zip((mask, ~mask), coefficients):
        out[rows] = read(top[rows], c)
    return out


def _kernel(seq: VerblunskySequence, k0: int, gamma, z, pairs, sign) -> list:
    """(2z)^{-1} left(k) W^{-1} right(kp)* for many (k, kp) pairs at one z: the half kernel
    of sign, or the full kernel when sign is None.

    One family seeded at k0 (with sign; PLUS for the full kernel) is propagated at z and
    one at 1/conj(z), each to the farthest site any pair reads, and their (P, Q) rows are
    sliced at the pairs' k and kp. Each pair's left and right factor is formed once, on its
    branch: P, or hat(c) = X [c; I] = Q + P c for one m x m coefficient c. A subscript c
    reads -c* (m_c = -m*, M_+c = -M_+*), since m(1/conj(z)) = -m(z)* and likewise M_+/-:

        half +:  upper -(P, hat(m_c)),   lower (hat(m), P)
        half -:  upper -(hat(m), P),     lower (P, hat(m_c))
        full:    upper (hat(M_-), hat(M_+c)),  lower (hat(M_+), hat(M_-c)),  W = M_+ - M_-

    The half kernels have no W; an upper half entry is negated after the division.
    """
    z = require_off_circle(z)
    zc = 1.0 / np.conj(z)
    pairs, sites = _check_pairs(seq, k0, sign, pairs)
    gamma = as_boundary(gamma, seq.m)
    seed = PLUS if sign is None else sign
    fam_z, fam_c = (propagate(seq, seed_family(gamma, w, k0, seed), *sites) for w in (z, zc))
    if sign is None:        # coefficients (upper, lower) of the left and of the right factor
        Mp, Mm = _M_functions(seq, k0, gamma, z)
        lefts, rights, W = (Mm, Mp), (-Mp.conj().T, -Mm.conj().T), Mp - Mm
    else:
        m_z = m_function(seq, k0, gamma, z, sign)
        lefts, rights, W = (None, m_z), (-m_z.conj().T, None), None
        if sign == MINUS:
            lefts, rights = lefts[::-1], rights[::-1]
    ik, ikp = np.array(pairs, dtype=int).reshape(-1, 2).T - fam_z.k_lo   # fam_c's span is fam_z's
    up = [_branch(k, kp) is GreensBranch.UPPER_ODD for k, kp in pairs]
    left = _side(fam_z.X[ik, :seq.m], lefts, up)
    right = _side(fam_c.X[ikp, :seq.m], rights, up).conj().transpose(0, 2, 1)
    if W is not None:
        right = solve(W, right, SingularWronskian)
    values = left @ right / (2.0 * z)
    if sign is not None and any(up):
        np.negative(values, out=values, where=np.array(up)[:, None, None])
    return [GreensEntry(k=k, kp=kp, value=value,
                        branch=GreensBranch.UPPER_ODD if u else GreensBranch.LOWER_EVEN)
            for (k, kp), value, u in zip(pairs, values, up)]


def half_green_entries(seq: VerblunskySequence, k0: int, gamma, z, pairs, sign) -> list:
    """Blocks of (U_half - z)^{-1} for many (k, kp) pairs at one z, from the factorized
    kernel (_kernel), with one banded solve for m at z and at 1/conj(z)."""
    return _kernel(seq, k0, gamma, z, pairs, _norm_sign(sign))


def half_lattice_green(seq: VerblunskySequence, k0: int, gamma, z,
                       k: int, kp: int, sign) -> GreensEntry:
    """One block of (U_half - z)^{-1}: the single-pair half_green_entries."""
    return half_green_entries(seq, k0, gamma, z, ((k, kp),), sign)[0]


def full_green_entries(seq: VerblunskySequence, k0: int, gamma, z, pairs) -> list:
    """Blocks of (U - z)^{-1} for many (k, kp) pairs at one z, from the factorized kernel
    (_kernel) with the Weyl solutions U_+/- = X [M_+/-; I] of the plus family, formed
    only at the pairs' sites, and one banded solve per half window."""
    return _kernel(seq, k0, gamma, z, pairs, None)


def dense_resolvent_entries(seq: VerblunskySequence, z, pairs, half=None,
                            k0: int | None = None, gamma=None) -> list:
    """Oracle blocks of (U - z)^{-1} for many (k, kp) pairs at one z, from one banded LU
    (assembly.resolvent_blocks); with half = +1/-1 (and k0, gamma) those of the half-window
    operator. It propagates no solution family, so it checks the factorized kernels, and
    it checks m_function, whose G(k0, k0) comes from a solve of its own
    (assembly.cut_resolvent_blocks). No dense matrix is formed."""
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
