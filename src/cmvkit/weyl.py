"""Half-lattice m-functions, M-functions, and Schur transforms.

The m-function of a half-window operator at its reference site k0 is

    m(z) = +/- E* (U_h + z)(U_h - z)^{-1} E

with E the coordinate injection at k0. The plus operator lives on sites
[k0, k_max - 1] with the boundary unitary gamma installed at k0; the
minus operator lives on [k_min, k0] with gamma installed at k0 + 1.
Since (U_h + z)(U_h - z)^{-1} = I + 2z (U_h - z)^{-1}, m is the resolvent
block G(k0, k0) of the half window, m = +/- (I + 2z G(k0, k0)). It comes
from assembly.resolvent_blocks, the one banded LU of the pencil
V - z W* sliced from seq.bands that also serves the Green oracle; neither
U_h = V W nor the half window's sequence is formed.

M_plus coincides with m_plus. M_minus is a Cayley-type transform of
m_minus; both directions of that transform, its z = 0 closed form, the
Schur-function maps, and the parity formula expressing the Schur
function through Weyl solution values are provided, each as its own
code path so they can be checked against one another. The frame is set
by the root of one coefficients.BoundaryUnitary, shared with the families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import resolvent_blocks
from .coefficients import (
    VerblunskySequence,
    _as_square,
    as_boundary,
)
from .errors import (
    SingularSolutionValue,
    SiteOutOfWindow,
    require_off_circle,
    require_tolerance,
    solve,
)
from .laurent import (
    MINUS,
    PLUS,
    SolutionFamily,
    _norm_sign,
    connection,
    propagate,
    seed_family,
)


def m_function(seq: VerblunskySequence, k0: int, gamma, z, sign) -> np.ndarray:
    """Half-lattice m-function at the reference site, by a banded pencil solve.

    The raw sandwich +/- E*(U_h + z)(U_h - z)^{-1} E = +/- (I + 2z G(k0, k0)),
    with G(k0, k0) from assembly.resolvent_blocks (which slices V - z W* from
    seq.bands and never forms U_h), carries the
    boundary unitary in a frame that differs from the Laurent families by
    a one-sided square root of gamma.  To keep every downstream identity
    (boundary matching, Green kernels, Wronskians) in a single convention,
    the raw value is conjugated back into the family frame before being
    returned.  For scalar gamma, and whenever gamma commutes with its own
    square root sandwich, the conjugation is invisible.

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
    sign = _norm_sign(sign)
    z = require_off_circle(z, allow_zero=True)
    boundary = as_boundary(gamma, seq.m)
    G, = resolvent_blocks(seq, z, ((k0, k0),), sign, k0, boundary)
    raw = float(sign) * (np.eye(seq.m) + 2.0 * z * G)
    gh = boundary.root
    ghi = gh.conj().T
    if k0 % 2 == 0:
        return gh @ raw @ ghi
    return ghi @ raw @ gh


def m_from_edge_condition(seq: VerblunskySequence, k0: int, gamma, z, sign) -> np.ndarray:
    """Same m-function, computed by matching the far boundary instead.

    The solution Q + P m must be proportional to its V-component through
    the edge unitary of the half-window; solving that linear condition
    for m gives a route with no resolvent in it. z must lie off the unit
    circle, as for m_function.
    """
    sign = _norm_sign(sign)
    z = require_off_circle(z)
    if sign == PLUS:
        k_edge, g = seq.k_max - 1, seq.alpha(seq.k_max)
        C = -g if k_edge % 2 == 1 else -z * g.conj().T
    else:
        k_edge, g = seq.k_min, seq.alpha(seq.k_min)
        C = z * g if k_edge % 2 == 1 else g.conj().T
    fam = seed_family(as_boundary(gamma, seq.m), z, k0, sign)
    site = propagate(seq, fam, k_edge).at(k_edge)
    # [I, -C] X at the edge, one column block of X at a time: (P - C R, Q - C S)
    A, B = np.stack((site.P, site.Q)) - C @ np.stack((site.R, site.S))
    return solve(A, -B)


def M_minus_from_m_minus(m_minus: np.ndarray, z) -> np.ndarray:
    """Transform the minus m-function into M_minus at the same site.

    M = [(m + I) - z(m - I)] [(m + I) + z(m - I)]^{-1}; the two factors
    commute, so the quotient may be taken on either side.
    """
    z = complex(z)
    m = _as_square(m_minus)
    eye = np.eye(m.shape[0])
    num = (m + eye) - z * (m - eye)
    den = (m + eye) + z * (m - eye)
    return solve(num, den, right=True)


def m_minus_from_M_minus(M_minus: np.ndarray, z) -> np.ndarray:
    """Inverse transform: m = [z(M + I) - (M - I)] [z(M + I) + (M - I)]^{-1}."""
    z = complex(z)
    M = _as_square(M_minus)
    eye = np.eye(M.shape[0])
    num = z * (M + eye) - (M - eye)
    den = z * (M + eye) + (M - eye)
    return solve(num, den, right=True)


def M_minus_via_connection(seq: VerblunskySequence, k0: int, gamma, z) -> np.ndarray:
    """M_minus from the connection coefficients and m_minus one site down.

    M_minus(z, k0) = [D3 + D4 m][C3 + C4 m]^{-1} with m = m_minus(z, k0 - 1),
    the m-function of the summand left of the cut at k0. Independent of
    the Cayley-type route, so the two can be compared.
    """
    z = require_off_circle(z, allow_zero=True)
    gamma = as_boundary(gamma, seq.m)
    mm = m_function(seq, k0 - 1, gamma, z, MINUS)
    cc = connection(gamma, gamma, seq.alpha(k0), k0)
    return solve(cc.D3 + cc.D4 @ mm, cc.C3 + cc.C4 @ mm, right=True)


def M_minus_at_zero(alpha_k0, gamma) -> np.ndarray:
    """Closed form of M_minus(0) from the coefficient at the cut.

    Equals (D3 - D4)(C3 - C4)^{-1}, which the connection formulas give
    once m_minus(0) = -I is inserted; no window data is needed.
    """
    gamma = as_boundary(gamma)
    cc = connection(gamma, gamma, alpha_k0, 0)
    return solve(cc.D3 - cc.D4, cc.C3 - cc.C4, right=True)


def M_function(seq: VerblunskySequence, k0: int, gamma, z, sign) -> np.ndarray:
    """M_plus or M_minus at the reference site.

    Plus: identical to m_plus. Minus: Cayley-type transform of m_minus,
    except at z = 0 where the transform degenerates and the closed form
    takes over.
    """
    sign = _norm_sign(sign)
    if sign == PLUS:
        return m_function(seq, k0, gamma, z, PLUS)
    return _M_minus(seq, k0, gamma, require_off_circle(z, allow_zero=True))


def _M_minus(seq: VerblunskySequence, k0: int, gamma, z, m_minus=None):
    """M_minus at k0: the closed form at z = 0, else the transform of m_minus (solved if None)."""
    if z == 0:
        return M_minus_at_zero(seq.alpha(k0), gamma)
    if m_minus is None:
        m_minus = m_function(seq, k0, gamma, z, MINUS)
    return M_minus_from_m_minus(m_minus, z)


def schur_from_M(M: np.ndarray) -> np.ndarray:
    """Cayley transform Phi = (M - I)(M + I)^{-1} of one M or of a stack (..., m, m);
    also analytic.cayley."""
    M = _as_square(M, stack=True)
    eye = np.eye(M.shape[-1])
    return solve(M - eye, M + eye, right=True)


def M_from_schur(phi: np.ndarray) -> np.ndarray:
    """Inverse Cayley transform M = (I - Phi)^{-1}(I + Phi); also analytic.inverse_cayley."""
    phi = _as_square(phi)
    eye = np.eye(phi.shape[0])
    return solve(eye - phi, eye + phi)


def m_minus_from_schur_minus(phi_minus: np.ndarray, z) -> np.ndarray:
    """m_minus = (z I + Phi_minus)^{-1} (z I - Phi_minus)."""
    z = complex(z)
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
    """Per-site values of one Weyl solution over sites k_lo .. k_hi (the window
    for weyl_solution and weyl_solutions).

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
                   signs=(PLUS, MINUS)) -> tuple:
    """Weyl solutions of the given signs at z, sharing one propagated family
    and one square root of gamma."""
    return _weyl_solutions(seq, k0, gamma, z, (seq.k_min, seq.k_max - 1), signs)


def _weyl_solutions(seq: VerblunskySequence, k0: int, gamma, z, sites,
                    signs=(PLUS, MINUS), Ms=None) -> tuple:
    """weyl_solutions over the sites from k0 to the farthest of sites on each
    side only: the family is propagated no farther than the sites read. Ms,
    one per sign, are taken as given; None solves them at z."""
    signs = [_norm_sign(sign) for sign in signs]
    z = require_off_circle(z)
    gamma = as_boundary(gamma, seq.m)
    Ms = [M_function(seq, k0, gamma, z, sign) for sign in signs] if Ms is None else Ms
    fam = propagate(seq, seed_family(gamma, z, k0, PLUS), *sites)
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
    sol, = _weyl_solutions(seq, k0, gamma, z, (k,), (sign,))
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
    """Eigenvalues of the Hermitian part of one matrix or of each in a stack (..., m, m)."""
    return np.linalg.eigvalsh((F + F.conj().swapaxes(-1, -2)) / 2.0)


def spectral_sample(seq: VerblunskySequence, k0: int, gamma, z,
                    tol: float = 1e-10) -> SpectralSample:
    """Evaluate m, M, and Phi for both signs at one point, from one root of gamma.

    gamma is rooted once per distinct value (coefficients.as_boundary). The
    two Cayley transforms, the two Hermitian parts' eigenvalues and the two
    Phi's singular values are each one stacked call; numpy solves such a
    stack matrix by matrix, so each value equals its one-matrix call.
    OutOfRange unless tol is finite and >= 0.
    """
    z, tol = require_off_circle(z, allow_zero=True), require_tolerance(tol)
    gamma = as_boundary(gamma, seq.m)
    mp, mm = (m_function(seq, k0, gamma, z, sign) for sign in (PLUS, MINUS))
    Mm = _M_minus(seq, k0, gamma, z, m_minus=mm)
    phip, phim = schur_from_M(np.stack((mp, Mm)))     # M_plus = m_plus
    eig_p, eig_m = _herm_eigs(np.stack((mp, mm)))
    sv_p, sv_m = np.linalg.svd(np.stack((phip, phim)), compute_uv=False)
    norm_p, smin_m = sv_p[0], sv_m[-1]
    if abs(z) < 1.0:
        flags = (eig_p.min() >= -tol, eig_m.max() <= tol,
                 norm_p <= 1.0 + tol, smin_m >= 1.0 - tol)
    else:
        flags = (eig_p.max() <= tol, eig_m.min() >= -tol,
                 norm_p >= 1.0 - tol, smin_m <= 1.0 + tol)
    return SpectralSample(
        z=z, m_plus=mp, m_minus=mm, M_plus=mp, M_minus=Mm,
        Phi_plus=phip, Phi_minus=phim,
        caratheodory_plus=bool(flags[0]),
        anti_caratheodory_minus=bool(flags[1]),
        schur_plus=bool(flags[2]),
        anti_schur_minus=bool(flags[3]),
    )
