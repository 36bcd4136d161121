"""Rank analysis of the block perturbation that severs the lattice.

Replacing the block of coefficient k0 by diag(-gamma1, gamma2*) decouples
the window into two halves. With E the n x 2m embedding of sites
(k0 - 1, k0) and B the 2m x 2m assembly.operator_difference_block,
U - U_split is E B E* W (k0 even, the block in V) or V E B E* (k0 odd);
V and W are unitary, so its singular values are B's. A closed-form phase
choice makes that rank exactly m; every other unitary choice gives more.

By the second resolvent identity (U - z)^{-1} - (U_split - z)^{-1} =
-W* X B Y*, with X = P^{-1} L and Y = P_split^{-*} R for the pencils
P = V - z W* and P_split, and (L, R) = (E, E) for even k0 and
(V E, E diag(-gamma1, gamma2*)) for odd k0. Its rank is that of the
2m x 2m core R_X B R_Y* of thin QRs of X and Y: two banded solves per z
(_resolvent_factors), no n x n matrix and no row cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import (
    SplitSpec,
    _cut_bands,
    _factor,
    _pencil,
    _solve,
    band_block,
    operator_difference_block,
)
from .coefficients import (
    VerblunskySequence,
    _as_square,
    _require_contraction,
    factorize_svd,
)
from .errors import (
    DimensionMismatch,
    OutOfRange,
    require_off_circle,
)

RANK_RTOL = 1e-8


@dataclass(frozen=True)
class PhaseSolution:
    """Phases (s given, t computed) and the unitaries they induce.

    gamma1 = sigma diag(e^{i t_j}) tau* and gamma2 = sigma diag(e^{i s_j}) tau*
    where sigma, tau come from the singular value decomposition of the
    coefficient being perturbed. Each t_j lies in [0, 2 pi).
    """

    s: np.ndarray
    t: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray


@dataclass(frozen=True)
class DecouplingReport:
    """Observed ranks of one decoupling perturbation.

    op_rank is the numerical rank of U - U_split; resolvent_ranks maps
    each sampled z to the rank of the resolvent difference; minimal
    records whether op_rank hit the lower bound m.
    """

    local_block: np.ndarray
    singular_values: np.ndarray
    op_rank: int
    resolvent_ranks: dict = field(default_factory=dict)
    minimal: bool = False


def numerical_rank(M: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Count singular values above rtol times the largest one.

    Args:
        M: any complex matrix.
        rtol: relative threshold in (0, 1).

    Returns:
        The numerical rank; zero for the zero matrix.
    """
    return _rank(np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False), rtol)


def _rank(s: np.ndarray, rtol: float) -> int:
    """numerical_rank from the singular values s, largest first."""
    if not 0 < rtol < 1:
        raise OutOfRange(f"rtol must lie in (0, 1), got {rtol}")
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def _wrap_two_pi(t: np.ndarray) -> np.ndarray:
    out = np.mod(t, 2 * np.pi)
    # mod can return 2*pi when the input is a tiny negative number
    out[out >= 2 * np.pi] = 0.0
    return out


def phase_unitaries(fac, *phases) -> list:
    """sigma diag(e^{i p}) tau* for each p of phases: fac's reconstruct with p as beta."""
    return [replace(fac, beta=np.exp(1j * p)).reconstruct() for p in phases]


def minimal_phases(alpha_k0: np.ndarray, s) -> PhaseSolution:
    """Phases making the decoupling perturbation have rank exactly m.

    Factorizes alpha_k0 = sigma beta tau* with beta = diag(beta_j) and
    solves each channel separately:

        t_j = 2 arg[i (beta_j e^{-i s_j / 2} - e^{i s_j / 2})]

    normalized to [0, 2 pi). The returned unitaries are gamma1 = sigma diag(e^{i t_j}) tau*
    and gamma2 = sigma diag(e^{i s_j}) tau* (phase_unitaries).
    """
    alpha = _as_square(alpha_k0)
    _require_contraction(alpha)
    m = alpha.shape[0]
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (m,):
        raise DimensionMismatch(f"need {m} phases s, got shape {s.shape}")
    fac, half = factorize_svd(alpha), s / 2.0
    t = _wrap_two_pi(2.0 * np.angle(1j * (fac.beta * np.exp(-1j * half) - np.exp(1j * half))))
    gamma1, gamma2 = phase_unitaries(fac, t, s)
    return PhaseSolution(s=s, t=t, gamma1=gamma1, gamma2=gamma2)


def det_criterion(alpha_k0: complex, t1: float, t2: float) -> complex:
    """Scalar rank-one test for the phase pair (t1, t2).

    Returns e^{i t1} conj(alpha) + e^{-i t2} alpha - e^{i (t1 - t2)} - 1,
    which vanishes exactly when the perturbed 2 x 2 block drops rank.
    """
    a = complex(alpha_k0)
    return (np.exp(1j * t1) * np.conj(a) + np.exp(-1j * t2) * a
            - np.exp(1j * (t1 - t2)) - 1.0)


def default_z_samples() -> tuple:
    """Eight points on the circles |z| = 0.5 and |z| = 2."""
    angles = (np.pi / 8, 5 * np.pi / 8, 9 * np.pi / 8, 13 * np.pi / 8)
    return tuple(r * np.exp(1j * th) for r in (0.5, 2.0) for th in angles)


def _resolvent_factors(seq: VerblunskySequence, spec: SplitSpec, z_samples):
    """Yield (z, X, Y) with (U - z)^{-1} - (U_split - z)^{-1} = -W* X B Y*, X and Y as in the
    module docstring; the caller checks spec with B = operator_difference_block(seq, spec)."""
    m, j = seq.m, (spec.k0 - 1 - seq.k_min) * seq.m       # j: column of site k0 - 1
    block = spec.block_in(seq)
    (V, W_star), split = seq.bands, _cut_bands(seq, spec.k0, block)
    E = np.eye(V.shape[1], 2 * m, -j, dtype=complex)
    if spec.k0 % 2 == 0:                      # the cut block lives in V
        L, R = E, E
    else:                                     # in W: V E off V's band; W_split E = E diag(-g1, g2*)
        L = band_block(V, np.arange(V.shape[1]), np.arange(j, j + 2 * m))
        R = E @ block
    for z in z_samples:
        z = require_off_circle(z)
        X = _solve(*_factor(_pencil(V, W_star, z), z), L, z)
        yield z, X, _solve(*_factor(_pencil(*split, z), z), R, z, trans=2)


def decoupling_report(seq: VerblunskySequence, k0: int,
                      gamma1: np.ndarray, gamma2: np.ndarray,
                      z_samples=None, rtol: float = RANK_RTOL) -> DecouplingReport:
    """Ranks of U - U_split and of the resolvent differences, from thin factors.

    Parameters
    ----------
    seq : VerblunskySequence
        The unperturbed window.
    k0 : int
        Interior site whose block is replaced.
    gamma1, gamma2 : unitary m x m
        The decoupling pair.
    z_samples : iterable of complex, optional
        Points off the unit circle and away from 0; defaults to eight
        points on |z| in {0.5, 2}.
    rtol : float
        Relative singular value threshold for rank decisions.
    """
    spec = SplitSpec(k0=k0, gamma_left=gamma1, gamma_right=gamma2)
    block = operator_difference_block(seq, spec)
    singular_values = np.linalg.svd(block, compute_uv=False)
    op_rank = _rank(singular_values, rtol)    # U - U_split has B's singular values
    if z_samples is None:
        z_samples = default_z_samples()
    resolvent_ranks = {}
    for z, X, Y in _resolvent_factors(seq, spec, z_samples):
        R_X, R_Y = (np.linalg.qr(F, mode="r") for F in (X, Y))
        resolvent_ranks[z] = numerical_rank(R_X @ block @ R_Y.conj().T, rtol)
    return DecouplingReport(
        local_block=block,
        singular_values=singular_values,
        op_rank=op_rank,
        resolvent_ranks=resolvent_ranks,
        minimal=(op_rank == seq.m),
    )
