"""Caratheodory functions, Herglotz sums, Cayley transforms, reflection.

A matrix function analytic on the open unit disk with positive
semidefinite Hermitian part is determined by a Hermitian constant and a
positive matrix measure on the circle. Finite windows only ever produce
finitely many atoms, so the measure type here is purely atomic; smooth
measures are represented by quadrature grids of small atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import _as_square, _complex_array
from .errors import DimensionMismatch, InvalidMeasure, NotFinite, OutOfRange, ZAtAtom, ZeroZ
from .errors import require_finite, require_tolerance
# The Cayley pair Phi = (F - I)(F + I)^{-1} and back has one implementation.
from .weyl import M_from_schur as inverse_cayley, schur_from_M as cayley  # noqa: F401
from .weyl import _herm_eigs

PSD_TOL = 1e-10
CIRCLE_TOL = 1e-8


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many PSD matrix weights on the unit circle.

    zetas is the (N,) array of atoms, all with |zeta| = 1, weights the
    (N, m, m) stack of their positive semidefinite weights, and C the
    Hermitian constant entering through i C. All three are read-only
    copies, validated in one batched pass.
    """

    zetas: np.ndarray
    weights: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        C = _as_square(self.C).copy()
        if np.linalg.norm(C - C.conj().T) > PSD_TOL * max(1.0, np.linalg.norm(C)):
            raise InvalidMeasure("C must be Hermitian")
        zetas, w = (_complex_array(x).copy(order="K") for x in (self.zetas, self.weights))
        if zetas.ndim != 1 or w.shape != (len(zetas), *C.shape):
            raise DimensionMismatch(f"atom weight size differs from C: atoms {zetas.shape}, "
                                    f"weights {w.shape}, C {C.shape}")
        if not (np.isfinite(zetas).all() and np.isfinite(w).all()):
            raise NotFinite("atoms and weights must be finite")
        herm = (w + w.conj().swapaxes(1, 2)) / 2.0
        for bad, what in (
                (np.abs(np.abs(zetas) - 1.0) > CIRCLE_TOL, "atom at {} is not on the unit circle"),
                (np.linalg.norm(w - herm, axis=(1, 2))
                 > PSD_TOL * np.maximum(1.0, np.linalg.norm(w, axis=(1, 2))),
                 "weight at {} is not Hermitian"),
                (np.linalg.eigvalsh(herm).min(axis=1) < -PSD_TOL,
                 "weight at {} is not positive semidefinite")):
            if bad.any():
                raise InvalidMeasure(what.format(zetas[np.argmax(bad)]))
        for name, a in (("zetas", zetas), ("weights", w), ("C", C)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def m(self) -> int:
        return self.C.shape[0]

    def total_mass(self) -> np.ndarray:
        return self.weights.sum(axis=0)


def uniform_grid_measure(n: int, m: int = 1) -> AtomicMeasure:
    """Quadrature stand-in for normalized arc-length: n equal atoms."""
    if n < 1 or m < 1:
        raise OutOfRange(f"need at least one atom and m >= 1, got n={n}, m={m}")
    return AtomicMeasure(zetas=np.exp(2j * np.pi * np.arange(n) / n),
                         weights=np.broadcast_to(np.eye(m) / n, (n, m, m)),
                         C=np.zeros((m, m), dtype=complex))


def herglotz_eval(measure: AtomicMeasure, z) -> np.ndarray:
    """Evaluate i C + sum_j weight_j (zeta_j + z)/(zeta_j - z) at a finite z."""
    z = require_finite(z)
    denom = measure.zetas - z
    at_atom = np.abs(denom) < 1e-12
    if at_atom.any():
        raise ZAtAtom(f"z = {z} coincides with the atom at {measure.zetas[np.argmax(at_atom)]}")
    return 1j * measure.C + np.tensordot((measure.zetas + z) / denom, measure.weights, axes=1)


@dataclass(frozen=True)
class ValidityReport:
    """Hermitian-part eigenvalue floor per sample and the verdict."""

    valid: bool
    min_eigenvalues: tuple
    tol: float


def is_caratheodory(samples, tol: float = PSD_TOL) -> ValidityReport:
    """Check Re F(z) >= 0 over (z, F) samples taken inside the disk.

    Returns the smallest Hermitian-part eigenvalue per sample; valid
    means every one of them clears -tol. OutOfRange unless tol is finite and >= 0.
    """
    tol = require_tolerance(tol)
    floors = []
    for z, F in samples:
        if abs(require_finite(z)) >= 1.0:
            raise OutOfRange(f"sample point {z} is not inside the unit disk")
        floors.append(float(_herm_eigs(_as_square(F)).min()))
    valid = all(f >= -tol for f in floors)
    return ValidityReport(valid=valid, min_eigenvalues=tuple(floors), tol=tol)


def reflect(z, F: np.ndarray):
    """Continue a disk sample across the circle: (z, F) -> (1/conj(z), -F*)."""
    z = require_finite(z)
    if z == 0:
        raise ZeroZ("z = 0 has no finite reflection point")
    return 1.0 / np.conj(z), -_as_square(F).conj().T
