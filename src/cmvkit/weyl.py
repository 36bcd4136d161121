"""Half-lattice m-functions, M-functions, and Schur transforms.

The m-function of a half-window operator at its reference site k0 is

    m(z) = +/- E* (U_h + z)(U_h - z)^{-1} E

with E the coordinate injection at k0. The plus operator lives on sites [k0, k_max - 1]
with the boundary unitary gamma installed at k0; the minus operator lives on [k_min, k0]
with gamma installed at k0 + 1. Since (U_h + z)(U_h - z)^{-1} = I + 2z (U_h - z)^{-1},
m = +/- (I + 2z G(k0, k0)) with G the half window's resolvent. G(k0, k0) comes from
assembly.cut_resolvent_blocks: one banded LU of the half windows' pencils V - z W*, k0
eliminated last in each, a solve over the trailing block only, both halves at once;
neither U_h = V W nor the half window's sequence is formed. Two routes check it: the
Green oracle's assembly.resolvent_blocks, a separate solve, and m_from_edge_condition,
which carries the subspace the far edge relation defines back to k0 site by site,
orthonormalized after each step.

Each quantity at the cut has one route: _m_functions for m, _M_functions for M
(M_plus = m_plus; M_minus the Cayley-type transform of m_minus, or its closed form at
z = 0). Both directions of that transform, the Schur-function maps, and the parity
formula expressing the Schur function through Weyl solution values are provided as
code paths of their own, so that they check one another. The frame is set by the root
of one coefficients.BoundaryUnitary, shared with the families.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._lapack import zgeqrf as _geqrf, zgesdd as _gesdd, zheevd as _heevd, zungqr as _ungqr
from .assembly import cut_resolvent_blocks
from .coefficients import VerblunskySequence, _as_square, as_boundary
from .errors import (NotConverged, NotFinite, OutOfRange, SingularSolutionValue, SiteOutOfWindow,
                     require_cut, require_finite, require_off_circle, require_tolerance, solve)
from .laurent import (MINUS, PLUS, SolutionFamily, _as_steps, _cut_connection, _norm_sign,
                      _path_band, connection, propagate, seed_family)


def m_function(seq: VerblunskySequence, k0: int, gamma, z, sign) -> np.ndarray:
    """Half-lattice m-function at the reference site, by a banded pencil solve.

    The raw sandwich +/- E*(U_h + z)(U_h - z)^{-1} E = +/- (I + 2z G(k0, k0)), with
    G(k0, k0) from assembly.cut_resolvent_blocks (which slices V - z W* from seq.bands and
    never forms U_h), carries the boundary unitary in a frame that differs from the Laurent
    families by a one-sided square root of gamma. To keep every downstream identity
    (boundary matching, Green kernels, Wronskians) in a single convention, the raw value is
    conjugated back into the family frame before being returned. For scalar gamma, and
    whenever gamma commutes with its own square root sandwich, the conjugation is invisible.

    Parameters
    ----------
    seq : VerblunskySequence
        Full window; the relevant half is carved out internally.
    k0 : int
        Reference site.
    gamma : unitary m x m array or BoundaryUnitary
        Boundary unitary installed at the cut, with the square root used
        for the frame change (the principal root for an array).
    z : complex
        Off the unit circle; z = 0 is allowed and returns +/- identity.
    sign : +1 or -1

    Returns
    -------
    The m x m matrix-valued m-function in the family frame.
    """
    sign, k0 = _norm_sign(sign), require_cut(k0)
    return _m_functions(seq, k0, gamma, require_off_circle(z, allow_zero=True), (sign,))[0]


def _m_functions(seq: VerblunskySequence, k0: int, gamma, z, signs=(PLUS, MINUS)) -> np.ndarray:
    """The stack of m_function for each of signs at a z and k0 the caller has checked, from
    one banded LU of their half windows; the frame and the sums act on the whole stack."""
    boundary = as_boundary(gamma, seq.m)      # a BoundaryUnitary passes as it is
    gh = boundary.root
    ghi = gh.conj().T
    left, right = (gh, ghi) if k0 % 2 == 0 else (ghi, gh)
    raw = 2.0 * (z * cut_resolvent_blocks(seq, z, k0, boundary, signs))    # no 2z to overflow
    raw.reshape(len(signs), -1)[:, ::seq.m + 1] += 1.0     # I + 2z G
    for h, sign in enumerate(signs):
        if sign == MINUS:
            np.negative(raw[h], out=raw[h])
    return left @ raw @ right


def m_from_edge_condition(seq: VerblunskySequence, k0: int, gamma, z, sign) -> np.ndarray:
    """Same m-function, computed by matching the far boundary instead (z off the unit circle).

    The solutions obeying the edge relation U = C V at the half window's far site span
    (C; I) there. That m-dimensional subspace is carried one site at a time to k0 (by T^-1
    for plus, T for minus), an orthonormal basis of it taken after each step (LAPACK zgeqrf,
    zungqr): Miller's backward recursion (Gautschi, SIAM Review 9, 1967), no resolvent in it.
    At k0 it is X_seed (c_top; c_bottom), X_seed the seed of this sign, and m = c_top
    c_bottom^{-1}; with the plus seed, the minus route would return M_minus instead.
    NotFinite when a step overflows: the odd sites' steps hold z and 1/z, so the route's
    z-range ends where |z| or 1/|z| times the transfer entries passes the float maximum
    (between |z| = 1e307 and 1e308 on a typical window), short of m_function's.
    """
    m, sign, z, k0 = seq.m, _norm_sign(sign), require_off_circle(z), require_cut(k0)
    if sign == PLUS:
        k_edge, g = seq.k_max - 1, seq.alpha(seq.k_max)
        C, path = (-g if k_edge % 2 == 1 else -z * g.conj().T), (k0 + 1, k_edge)
    else:
        k_edge, g = seq.k_min, seq.alpha(seq.k_min)
        C, path = (z * g if k_edge % 2 == 1 else g.conj().T), (k_edge + 1, k0)
    X_seed = seed_family(as_boundary(gamma, m), z, k0, sign).X[0]
    Y = np.vstack((C, np.eye(m)))
    with np.errstate(over="ignore", invalid="ignore"):     # an overflow is reported below
        # the steps -T toward k0; the band's last row is its zero closing row
        steps = [] if k0 == k_edge else _as_steps(
            _path_band(seq, z, *path, inverse=sign == PLUS))[:-1]
        for step in steps:
            Y, tau, _, _ = _geqrf(step @ Y, overwrite_a=True)
            Y, _, _ = _ungqr(Y, tau, overwrite_a=True)
    if not np.isfinite(Y).all():              # a step (z o1, o2 / z) or step @ Y overflowed
        raise NotFinite(f"edge route: a transfer step overflows at z = {z}; the route holds "
                        "while |z| and 1/|z| times the transfer entries stay below 1.8e308")
    c = solve(X_seed, Y)
    return solve(c[:m], c[m:], right=True)


def M_minus_from_m_minus(m_minus: np.ndarray, z) -> np.ndarray:
    """Transform the minus m-function into M_minus at the same site.

    M = [(m + I) - z(m - I)] [(m + I) + z(m - I)]^{-1}; the two factors
    commute, so the quotient may be taken on either side.
    """
    return _M_from_m(_as_square(m_minus), require_finite(z))


_eye = functools.cache(lambda m: np.broadcast_to(np.eye(m), (m, m)))     # read-only, one per m


def _M_from_m(m: np.ndarray, z: complex) -> np.ndarray:
    """M_minus_from_m_minus for an m the caller has produced finite and square itself."""
    eye = _eye(m.shape[0])
    plus, minus = m + eye, z * (m - eye)
    return solve(plus - minus, plus + minus, right=True)


def m_minus_from_M_minus(M_minus: np.ndarray, z) -> np.ndarray:
    """Inverse transform: m = [z(M + I) - (M - I)] [z(M + I) + (M - I)]^{-1}."""
    z, M = require_finite(z), _as_square(M_minus)
    plus, minus = z * (M + _eye(len(M))), M - _eye(len(M))
    return solve(plus - minus, plus + minus, right=True)


def M_minus_via_connection(seq: VerblunskySequence, k0: int, gamma, z) -> np.ndarray:
    """M_minus from the connection coefficients and m_minus one site down.

    M_minus(z, k0) = [D3 + D4 m][C3 + C4 m]^{-1} with m = m_minus(z, k0 - 1),
    the m-function of the summand left of the cut at k0. Independent of
    the Cayley-type route, so the two can be compared.
    """
    z, k0 = require_off_circle(z, allow_zero=True), require_cut(k0)
    gamma = as_boundary(gamma, seq.m)
    mm = m_function(seq, k0 - 1, gamma, z, MINUS)
    cc = _cut_connection(seq, gamma, k0)
    return solve(cc.D3 + cc.D4 @ mm, cc.C3 + cc.C4 @ mm, right=True)


def M_minus_at_zero(alpha_k0, gamma) -> np.ndarray:
    """Closed form of M_minus(0) from the coefficient at the cut.

    Equals (D3 - D4)(C3 - C4)^{-1}, which the connection formulas give
    once m_minus(0) = -I is inserted; no window data is needed.
    """
    gamma = as_boundary(gamma)
    return _at_zero(connection(gamma, gamma, alpha_k0, 0))


def _at_zero(cc) -> np.ndarray:
    """M_minus(0) = (D3 - D4)(C3 - C4)^{-1} from connection coefficients at the cut."""
    return solve(cc.D3 - cc.D4, cc.C3 - cc.C4, right=True)


def M_function(seq: VerblunskySequence, k0: int, gamma, z, sign) -> np.ndarray:
    """M_plus or M_minus at the reference site: m_plus, or the Cayley-type transform of
    m_minus, except at z = 0 where the transform degenerates and the closed form takes over.
    The one-sign form of _M_functions, as m_function is of _m_functions."""
    z, k0 = require_off_circle(z, allow_zero=True), require_cut(k0)
    return _M_functions(seq, k0, gamma, z, (_norm_sign(sign),))[0]


def _M_functions(seq: VerblunskySequence, k0: int, gamma, z, signs=(PLUS, MINUS),
                 ms=None) -> list:
    """M_function for each of signs at one z and k0 the caller has checked, from ms, their
    m-functions (solved if None and needed: M_minus(0) is the closed form M_minus_at_zero,
    read from the sequence's defect inverses, so M_minus alone at z = 0 factors nothing)."""
    if ms is None and (z != 0 or PLUS in signs):
        ms = _m_functions(seq, k0, gamma, z, signs)
    return [ms[h] if sign == PLUS else
            _at_zero(_cut_connection(seq, gamma, k0)) if z == 0 else _M_from_m(ms[h], z)
            for h, sign in enumerate(signs)]


def schur_from_M(M: np.ndarray) -> np.ndarray:
    """Cayley transform Phi = (M - I)(M + I)^{-1} of one M or of a stack (..., m, m);
    also analytic.cayley."""
    return _schur(_as_square(M, stack=True))


def _schur(M: np.ndarray) -> np.ndarray:
    """schur_from_M for an M, or stack, the caller has produced finite and square itself."""
    eye = _eye(M.shape[-1])
    return solve(M - eye, M + eye, right=True)


def M_from_schur(phi: np.ndarray) -> np.ndarray:
    """Inverse Cayley transform M = (I - Phi)^{-1}(I + Phi); also analytic.inverse_cayley."""
    phi = _as_square(phi)
    eye = np.eye(phi.shape[0])
    return solve(eye - phi, eye + phi)


def m_minus_from_schur_minus(phi_minus: np.ndarray, z) -> np.ndarray:
    """m_minus = (z I + Phi_minus)^{-1} (z I - Phi_minus)."""
    z = require_finite(z)
    phi = _as_square(phi_minus)
    eye = np.eye(phi.shape[0])
    return solve(z * eye + phi, z * eye - phi)


def schur_gamma_conjugation(phi1: np.ndarray, g1_sqrt: np.ndarray,
                            g2_sqrt: np.ndarray) -> np.ndarray:
    """Rewrite a Schur function from boundary gamma1 to gamma2.

    Phi2 = g2^{1/2} g1^{-1/2} Phi1 g1^{-1/2} g2^{1/2}.
    """
    left = g2_sqrt @ g1_sqrt.conj().T
    right = g1_sqrt.conj().T @ g2_sqrt
    return left @ phi1 @ right


def M_gamma_transform(M1: np.ndarray, g1_sqrt: np.ndarray,
                      g2_sqrt: np.ndarray) -> np.ndarray:
    """Rewrite an M-function from boundary gamma1 to gamma2.

    With A = g2^{-1/2} g1^{1/2} + g2^{1/2} g1^{-1/2} and
    B = g2^{-1/2} g1^{1/2} - g2^{1/2} g1^{-1/2}:

        M2 = (A M1 + B)(B M1 + A)^{-1}.
    """
    A = g2_sqrt.conj().T @ g1_sqrt + g2_sqrt @ g1_sqrt.conj().T
    B = g2_sqrt.conj().T @ g1_sqrt - g2_sqrt @ g1_sqrt.conj().T
    return solve(A @ M1 + B, B @ M1 + A, right=True)


@dataclass(frozen=True)
class WeylSolution:
    """Per-site values of one Weyl solution over sites k_lo .. k_hi: the window for
    weyl_solution, and for weyl_solutions the span from k0 to its farthest sites.

    UV holds (U(k); V(k)) = X(k) [M; I] at index k - k_lo, shape (n_sites, 2m, m),
    with U = Q_plus + P_plus M and V = S_plus + R_plus M as views of its blocks,
    from the state X of the plus family seeded at k0 (kept as family, with the
    boundary unitary as family.boundary); M is M_plus or M_minus by sign.
    """

    sign: int
    z: complex
    k0: int
    M: np.ndarray
    k_lo: int
    UV: np.ndarray
    family: SolutionFamily

    m = property(lambda self: self.UV.shape[2])
    U = property(lambda self: self.UV[:, :self.m])
    V = property(lambda self: self.UV[:, self.m:])
    k_hi = property(lambda self: self.k_lo + self.UV.shape[0] - 1)

    def at(self, k: int):
        if not self.k_lo <= k <= self.k_hi:
            raise SiteOutOfWindow(f"site {k} outside [{self.k_lo}, {self.k_hi}]")
        uv, m = self.UV[k - self.k_lo], self.m
        return uv[:m], uv[m:]


def weyl_solution(seq: VerblunskySequence, k0: int, gamma, z, sign) -> WeylSolution:
    """Weyl solution of the given sign over the whole window.

    The plus solution satisfies the right-edge relation at k_max - 1,
    the minus solution the left-edge relation at k_min; both emerge
    from the plus-seeded polynomial families combined with M.
    """
    return weyl_solutions(seq, k0, gamma, z, (sign,))[0]


def weyl_solutions(seq: VerblunskySequence, k0: int, gamma, z,
                   signs=(PLUS, MINUS), sites=None) -> tuple:
    """Weyl solutions of the given signs (OutOfRange if none) at z, sharing one family,
    one root of gamma and one banded LU for their M. The family runs from k0 to the
    farthest of sites on each side, or over the whole window when sites is None."""
    signs = [_norm_sign(sign) for sign in signs]
    if not signs:
        raise OutOfRange("weyl_solutions needs one or more signs")
    z, k0 = require_off_circle(z), require_cut(k0)
    gamma = as_boundary(gamma, seq.m)
    Ms = _M_functions(seq, k0, gamma, z, signs)
    fam = propagate(seq, seed_family(gamma, z, k0, PLUS),
                    *((seq.k_min, seq.k_max - 1) if sites is None else sites))
    return tuple(WeylSolution(sign=sign, z=z, k0=k0, M=M, k_lo=fam.k_lo,
                              UV=_combination(fam.X, M), family=fam)
                 for sign, M in zip(signs, Ms))


def _combination(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """X [M; I] for a stack of family states X (..., r, 2m), one product over the stack:
    (Q + P M; S + R M) for whole states, Q + P M for their top rows (P, Q)."""
    m = M.shape[0]
    rows = X.reshape(-1, 2 * m)
    out = rows[:, :m] @ M
    out += rows[:, m:]
    return out.reshape(*X.shape[:-1], m)


def schur_parity_formula(seq: VerblunskySequence, k0: int, gamma, z, k: int,
                         sign) -> np.ndarray:
    """Schur function from Weyl solution values at one site.

    Odd k:  Phi = z g^{1/2} V(k) U(k)^{-1} g^{1/2}
    Even k: Phi = g^{1/2} U(k) V(k)^{-1} g^{1/2}

    At k = k0 this reproduces the Cayley transform of M.
    """
    sol, = weyl_solutions(seq, k0, gamma, z, (sign,), sites=(k,))
    Uk, Vk = sol.at(k)
    gh = sol.family.boundary.root
    if k % 2 == 1:
        core = solve(Vk, Uk, SingularSolutionValue, right=True)
        return sol.z * (gh @ core @ gh)
    core = solve(Uk, Vk, SingularSolutionValue, right=True)
    return gh @ core @ gh


@dataclass(frozen=True)
class SpectralSample:
    """All six spectral functions at one z, with validity flags.

    Flags encode the disk-side conventions: inside the unit disk the
    plus data should be Caratheodory/Schur and the minus data their
    anti counterparts; outside the disk the roles flip.
    """

    z: complex
    m_plus: np.ndarray
    m_minus: np.ndarray
    M_plus: np.ndarray
    M_minus: np.ndarray
    Phi_plus: np.ndarray
    Phi_minus: np.ndarray
    caratheodory_plus: bool
    anti_caratheodory_minus: bool
    schur_plus: bool
    anti_schur_minus: bool


def _herm_eigs(F: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of one matrix or of each in a stack: zheevd
    on the lower triangle, as numpy.linalg.eigvalsh (UPLO='L'). NotConverged if it fails."""
    H = (F + F.conj().swapaxes(-1, -2)) / 2.0
    out = np.empty(H.shape[:-1])
    for h, w in zip(H.reshape(-1, *H.shape[-2:]), out.reshape(-1, H.shape[-1])):
        w[:], _, info = _heevd(h, 0, 1)      # compute_v=0, lower=1
        if info != 0:
            raise NotConverged(f"zheevd failed to converge (info = {info})")
    return out


def _svals(a: np.ndarray) -> list:
    """Descending singular values of a matrix as floats: zgesdd, as numpy.linalg.svd."""
    _, s, _, info = _gesdd(a, 0)             # compute_uv=0
    if info != 0:
        raise NotConverged(f"zgesdd failed to converge (info = {info})")
    return s.tolist()


def spectral_sample(seq: VerblunskySequence, k0: int, gamma, z,
                    tol: float = 1e-10) -> SpectralSample:
    """Evaluate m, M, and Phi for both signs at one point, from one root of gamma
    and one banded LU of both half windows (_m_functions).

    z, k0, tol and gamma are checked once; gamma is rooted once per distinct value
    (coefficients.as_boundary). The transforms take the m-functions, which the solve has
    checked finite, as they are. The flags read one end of the sorted LAPACK eigenvalues
    and singular values; every value equals numpy.linalg's bit for bit, and no numpy.linalg
    call is made once the sequence's defect inverses are kept (M_minus(0) reads them).
    OutOfRange unless tol is finite and >= 0.
    """
    z, tol = require_off_circle(z, allow_zero=True), require_tolerance(tol)
    k0, gamma = require_cut(k0), as_boundary(gamma, seq.m)
    ms = _m_functions(seq, k0, gamma, z)
    mp, mm = ms
    Mm, = _M_functions(seq, k0, gamma, z, (MINUS,), ms=(mm,))      # M_plus = m_plus
    phi_p, phi_m = _schur(mp), _schur(Mm)
    (eig_p, eig_m), sv_p, sv_m = _herm_eigs(ms).tolist(), _svals(phi_p), _svals(phi_m)
    if abs(z) < 1.0:
        flags = (eig_p[0] >= -tol, eig_m[-1] <= tol, sv_p[0] <= 1.0 + tol, sv_m[-1] >= 1.0 - tol)
    else:
        flags = (eig_p[-1] <= tol, eig_m[0] >= -tol, sv_p[0] >= 1.0 - tol, sv_m[-1] <= 1.0 + tol)
    return SpectralSample(z, mp, mm, mp, Mm, phi_p, phi_m, *flags)     # the fields in order
