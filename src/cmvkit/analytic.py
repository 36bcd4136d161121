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

from .coefficients import _as_square
from .errors import DimensionMismatch, InvalidMeasure, OutOfRange, ZAtAtom, ZeroZ
from .errors import require_finite
# The Cayley pair Phi = (F - I)(F + I)^{-1} and back has one implementation.
from .weyl import M_from_schur as inverse_cayley, schur_from_M as cayley  # noqa: F401

PSD_TOL = 1e-10
CIRCLE_TOL = 1e-8


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many PSD matrix weights on the unit circle.

    atoms is a tuple of (zeta, weight) pairs with |zeta| = 1 and weight
    an m x m positive semidefinite matrix; C is the Hermitian constant
    entering through i C.
    """

    atoms: tuple
    C: np.ndarray

    def __post_init__(self):
        C = _as_square(self.C)
        if np.linalg.norm(C - C.conj().T) > PSD_TOL * max(1.0, np.linalg.norm(C)):
            raise InvalidMeasure("C must be Hermitian")
        m = C.shape[0]
        checked = []
        for zeta, weight in self.atoms:
            zeta = complex(zeta)
            if abs(abs(zeta) - 1.0) > CIRCLE_TOL:
                raise InvalidMeasure(f"atom at {zeta} is not on the unit circle")
            w = _as_square(weight)
            if w.shape != (m, m):
                raise DimensionMismatch("atom weight size differs from C")
            herm = (w + w.conj().T) / 2.0
            if np.linalg.norm(w - herm) > PSD_TOL * max(1.0, np.linalg.norm(w)):
                raise InvalidMeasure(f"weight at {zeta} is not Hermitian")
            if np.linalg.eigvalsh(herm).min() < -PSD_TOL:
                raise InvalidMeasure(f"weight at {zeta} is not positive semidefinite")
            checked.append((zeta, w))
        object.__setattr__(self, "atoms", tuple(checked))
        object.__setattr__(self, "C", C)

    @property
    def m(self) -> int:
        return self.C.shape[0]

    def total_mass(self) -> np.ndarray:
        return sum((w for _, w in self.atoms), np.zeros((self.m, self.m), dtype=complex))


def uniform_grid_measure(n: int, m: int = 1) -> AtomicMeasure:
    """Quadrature stand-in for normalized arc-length: n equal atoms."""
    if n < 1:
        raise OutOfRange("need at least one atom")
    eye = np.eye(m, dtype=complex)
    atoms = tuple(
        (np.exp(2j * np.pi * j / n), eye / n) for j in range(n)
    )
    return AtomicMeasure(atoms=atoms, C=np.zeros((m, m), dtype=complex))


def herglotz_eval(measure: AtomicMeasure, z) -> np.ndarray:
    """Evaluate i C + sum_j weight_j (zeta_j + z)/(zeta_j - z) at a finite z."""
    z = require_finite(z)
    out = 1j * measure.C.astype(complex)
    for zeta, weight in measure.atoms:
        denom = zeta - z
        if abs(denom) < 1e-12:
            raise ZAtAtom(f"z = {z} coincides with the atom at {zeta}")
        out = out + weight * ((zeta + z) / denom)
    return out


@dataclass(frozen=True)
class ValidityReport:
    """Hermitian-part eigenvalue floor per sample and the verdict."""

    valid: bool
    min_eigenvalues: tuple
    tol: float


def is_caratheodory(samples, tol: float = PSD_TOL) -> ValidityReport:
    """Check Re F(z) >= 0 over (z, F) samples taken inside the disk.

    Returns the smallest Hermitian-part eigenvalue per sample; valid
    means every one of them clears -tol.
    """
    floors = []
    for z, F in samples:
        if abs(require_finite(z)) >= 1.0:
            raise OutOfRange(f"sample point {z} is not inside the unit disk")
        F = _as_square(F)
        herm = (F + F.conj().T) / 2.0
        floors.append(float(np.linalg.eigvalsh(herm).min()))
    valid = all(f >= -tol for f in floors)
    return ValidityReport(valid=valid, min_eigenvalues=tuple(floors), tol=tol)


def reflect(z, F: np.ndarray):
    """Continue a disk sample across the circle: (z, F) -> (1/conj(z), -F*)."""
    z = require_finite(z)
    if z == 0:
        raise ZeroZ("z = 0 has no finite reflection point")
    return 1.0 / np.conj(z), -_as_square(F).conj().T
