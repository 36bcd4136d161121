"""Explicit resolvent kernels and the matrix Wronskian.

Half- and full-window resolvents share one body, _kernel: (2z)^{-1}
left(k) W^{-1} right(kp)* stacked over a batch of (k, kp) pairs at one z,
each pair two integer sites (else MalformedInput). It checks z, k0, the pairs
and gamma once, propagates one family at z and one at 1/conj(z) over the span
of k0 and the pairs' sites, both families and both directions in one banded
solve (laurent._chain), and forms each pair's factors from their (P, Q) rows
at k and kp only, on its branch: P, or X [c; I] = Q + P c for one m x m
coefficient c (m, M_+/-, or their values at 1/conj(z)); the full kernel adds
W = M_+ - M_-. A half-window operator U_h is exactly unitary, so m(1/conj(z)) = -m(z)*: the kernels read
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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .assembly import half_sites, resolvent_blocks
from .coefficients import VerblunskySequence, as_boundary
from .errors import (MalformedInput, MatrixCaseUnsupported, SingularWronskian, SiteOutOfWindow,
                     require_cut, require_off_circle, require_sites, solve)
from .laurent import MINUS, PLUS, _chain, _norm_sign, _rel, _seeds, propagate, seed_family
from .weyl import _M_functions, _combination, _m_functions, m_function, weyl_solutions


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
    """pairs as a list of (k, kp) int tuples, and their sites, after checking that pairs is an
    iterable of two integer sites each (else MalformedInput) lying in the half window of sign
    at k0, or in the window when sign is None."""
    try:
        pairs = iter(pairs)
    except TypeError as exc:
        raise MalformedInput(f"pairs must be an iterable of (k, kp): {exc}") from exc
    sites = require_sites((site for k, kp in pairs for site in (k, kp)),
                          "each pair must be two integer sites (k, kp)")
    pairs = list(zip(sites[::2], sites[1::2]))
    lo, hi = (seq.k_min, seq.k_max - 1) if sign is None else half_sites(seq, k0, sign)
    where = "window" if sign is None else "half-window"
    for site in sites:
        if not lo <= site <= hi:
            raise SiteOutOfWindow(f"site {site} outside the {where} [{lo}, {hi}]")
    return pairs, sites


def _side(top: np.ndarray, coefficients, n_up: int) -> np.ndarray:
    """One side's factor per pair from its (P, Q) rows top, the n_up UPPER_ODD pairs first:
    coefficients[0] on their rows and coefficients[1] on the others; None reads P, c reads
    X [c; I]. A batch on one branch takes one slice or one product over the whole stack."""
    def read(part, c):
        return part[..., :part.shape[1]] if c is None else _combination(part, c)
    if n_up in (0, len(top)):
        return read(top, coefficients[0 if n_up else 1])
    return np.concatenate((read(top[:n_up], coefficients[0]), read(top[n_up:], coefficients[1])))


def _kernel(seq: VerblunskySequence, k0: int, gamma, z, pairs, sign) -> list:
    """(2z)^{-1} left(k) W^{-1} right(kp)* for many (k, kp) pairs at one z: the half kernel
    of sign, or the full kernel when sign is None.

    One family seeded at k0 (with sign; PLUS for the full kernel) is propagated at z and
    one at 1/conj(z), each from k0 to both ends of the span of k0 and the pairs' sites: a
    path per end other than k0 (one empty path when there is none), all in one banded solve
    (laurent._chain). Their (P, Q) rows are read at the pairs' k and kp, the UPPER_ODD pairs
    first. Each pair's left and right factor is formed once, on its branch: P, or
    hat(c) = X [c; I] = Q + P c for one m x m coefficient c. A subscript c
    reads -c* (m_c = -m*, M_+c = -M_+*), since m(1/conj(z)) = -m(z)* and likewise M_+/-:

        half +:  upper -(P, hat(m_c)),   lower (hat(m), P)
        half -:  upper -(hat(m), P),     lower (P, hat(m_c))
        full:    upper (hat(M_-), hat(M_+c)),  lower (hat(M_+), hat(M_-c)),  W = M_+ - M_-

    The half kernels have no W; an upper half entry is negated after the division. z, k0,
    the pairs and gamma are checked here once; m or M is read by its one-sign route.
    """
    z, k0 = require_off_circle(z), require_cut(k0)
    pairs, sites = _check_pairs(seq, k0, sign, pairs)
    gamma, zs = as_boundary(gamma, seq.m), (z, 1.0 / np.conj(z))
    lo, hi = min((k0, *sites)), max((k0, *sites))
    ends = [end for end in (lo, hi) if end != k0] or [k0]     # a path per end away from k0
    X0 = _seeds(gamma, zs, k0, PLUS if sign is None else sign)
    X, starts = _chain(seq, [(w, x0, k0, end) for w, x0 in zip(zs, X0) for end in ends])
    if sign is None:        # coefficients (upper, lower) of the left and of the right factor
        Mp, Mm = _M_functions(seq, k0, gamma, z)
        lefts, rights, W = (Mm, Mp), (-Mp.conj().T, -Mm.conj().T), Mp - Mm
    else:
        m_z = _m_functions(seq, k0, gamma, z, (sign,))[0]
        lefts, rights, W = (None, m_z), (-m_z.conj().T, None), None
        if sign == MINUS:
            lefts, rights = lefts[::-1], rights[::-1]

    branches = [_branch(k, kp) for k, kp in pairs]      # the UPPER_ODD pairs are read first
    order = sorted(range(len(pairs)), key=lambda i: branches[i] is GreensBranch.LOWER_EVEN)
    n_up, per = branches.count(GreensBranch.UPPER_ODD), len(ends)

    def row(f, k):      # the row of site k in the paths of family f (0: at z, 1: at 1/conj(z))
        return starts[f * per + per - 1] + k - k0 if k > k0 else starts[f * per] + k0 - k

    left = _side(X[[row(0, pairs[i][0]) for i in order], :seq.m], lefts, n_up)
    right = _side(X[[row(1, pairs[i][1]) for i in order], :seq.m], rights, n_up)
    right = right.conj().transpose(0, 2, 1)
    if W is not None:
        right = solve(W, right, SingularWronskian)
    values = left @ right / (2.0 * z)
    if sign is not None and n_up:
        np.negative(values[:n_up], out=values[:n_up])
    entries = [None] * len(pairs)
    for i, value in zip(order, values):
        entries[i] = GreensEntry(k=pairs[i][0], kp=pairs[i][1], value=value, branch=branches[i])
    return entries


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
    sol_p, sol_m = weyl_solutions(seq, k0, gamma, z, sites=(k, kp))
    Wv = (sol_p.M - sol_m.M)[0, 0]
    if abs(Wv) < 1e-14:
        raise SingularWronskian(f"M_plus - M_minus vanished at z = {z}")
    pref = -z ** (-(k0 % 2)) / (2.0 * z * Wv)
    if _branch(k, kp) is GreensBranch.UPPER_ODD:
        return complex(pref * sol_m.at(k)[0][0, 0] * sol_p.at(kp)[1][0, 0])
    return complex(pref * sol_p.at(k)[0][0, 0] * sol_m.at(kp)[1][0, 0])
