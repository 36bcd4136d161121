"""The error family of cmvkit, the guards on z, tolerances and sites, and the one dense solve.

Every failure the library reports is a CmvError (a ValueError) of one of
the classes below: a broken domain condition (contractive interior,
unitary ends, z finite, nonzero and off the unit circle), a site outside
its window, malformed input, or a singular solve. The command line exits
with code 2 on exactly these and OSError; anything else is a bug.
"""

from __future__ import annotations

import cmath
import operator

import numpy as np

from ._lapack import zgesv as _zgesv


class CmvError(ValueError):
    """Base of every failure cmvkit reports for bad input or a singular evaluation."""


class NotContractive(CmvError):
    """A coefficient expected to be a strict contraction is not."""


class NotUnitary(CmvError):
    """A matrix expected to be unitary is not."""


class DimensionMismatch(CmvError):
    """Matrix dimensions, or the number of per-channel values, are inconsistent."""


class NotFinite(CmvError):
    """A matrix entry or an evaluation point z is NaN or infinite."""


class OutOfRange(CmvError):
    """A size, count, radius, tolerance or sign lies outside its allowed range."""


class MalformedInput(CmvError):
    """A document, a file or command-line text cannot be read as what it must hold."""


class InvalidMeasure(CmvError):
    """An atomic measure breaks its definition (Hermitian, PSD, atoms on the circle)."""


class MatrixCaseUnsupported(CmvError):
    """This check is defined for scalar (m = 1) data only."""


class UnknownSuite(CmvError):
    """Requested suite name is not registered."""


class SiteOutOfWindow(CmvError, KeyError):
    """A site or sub-window lies outside its window (a lookup, so also a KeyError)."""

    __str__ = ValueError.__str__    # the plain message, not KeyError's repr of it


class SplitOutOfWindow(CmvError):
    """A decoupling site does not sit inside the window."""


class MissingCut(CmvError):
    """A half window was asked for without its cut site k0 or its boundary unitary gamma."""


class PathLeavesWindow(CmvError):
    """Propagation would need a coefficient outside the window interior."""


class ZeroZ(CmvError):
    """The formula is not defined at z = 0."""


class ZOnUnitCircle(CmvError):
    """Resolvent evaluation requested too close to the unit circle."""


class ZAtAtom(CmvError):
    """Evaluation point coincides with an atom of the measure."""


class SingularSolve(CmvError):
    """A resolvent solve failed; z is too close to the spectrum."""


class SingularFactor(CmvError):
    """A matrix factor that must be inverted is singular."""


class SingularSolutionValue(CmvError):
    """A solution value that must be inverted is singular."""


class SingularWronskian(CmvError):
    """M_plus - M_minus is numerically singular at this z."""


class NotConverged(CmvError):
    """A LAPACK eigenvalue or singular value iteration did not converge."""


UNIT_CIRCLE_TOL = 1e-6


def solve(A: np.ndarray, B: np.ndarray, err: type = SingularFactor,
          right: bool = False) -> np.ndarray:
    """A^{-1} B, or A B^{-1} when right, by LAPACK zgesv (_lapack) on copies, in complex128;
    err when a factor is singular or the result is not finite. A B^{-1} is zgesv(B^T, A^T)^T,
    on transposed views. A stack (..., m, m) of B against one A is one zgesv over its matrices
    side by side; other stacks are solved matrix by matrix. gesv solves each column by
    itself, so each value is the one-matrix call's, and numpy.linalg.solve's."""
    A, B = np.asarray(A), np.asarray(B)
    if right:
        A, B = B.swapaxes(-1, -2), A.swapaxes(-1, -2)
    if A.ndim == 2 and B.ndim == 2:
        out = _gesv(A, B, err)
    elif A.ndim == 2:         # the stack's matrices side by side: columns of one F-order rhs
        n, k = B.shape[-2:]
        x = _gesv(A, np.ascontiguousarray(B.swapaxes(-1, -2)).reshape(-1, n).T, err)
        out = x.T.reshape(*B.shape[:-2], k, n).swapaxes(-1, -2)
    else:
        stack = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
        A, B = (np.broadcast_to(a, stack + a.shape[-2:]) for a in (A, B))
        out = np.array([_gesv(A[i], B[i], err) for i in np.ndindex(stack)], complex)
        out = out.reshape(B.shape)
    out = np.ascontiguousarray(out)           # numpy.linalg.solve's layout: later reductions
    return out.swapaxes(-1, -2) if right else out     # (a norm's ravel('K')) follow it


def _gesv(A: np.ndarray, B: np.ndarray, err: type) -> np.ndarray:
    """A^{-1} B for one matrix A and a 2-D B: one zgesv, with solve's checks."""
    _, _, x, info = _zgesv(A, B)
    if info != 0:
        raise err("matrix factor is singular")
    if np.count_nonzero(np.isfinite(x)) < x.size:     # isfinite().all() at half the cost
        raise err("matrix factor is numerically singular")
    return x


def require_sites(sites, what: str) -> list:
    """The iterable sites as ints (operator.index); MalformedInput, led by what, if one fails."""
    try:
        return list(map(operator.index, sites))
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"{what}: {exc}") from exc


def require_tolerance(tol, what: str = "tolerance") -> float:
    """tol as a float; OutOfRange unless it is finite and >= 0 (a NaN fails both)."""
    if not 0.0 <= tol < cmath.inf:
        raise OutOfRange(f"{what} must be finite and >= 0, got {tol}")
    return float(tol)


def require_finite(z) -> complex:
    """Coerce z to complex; reject a non-finite value."""
    return require_off_circle(z, allow_zero=True, tol=0.0)


def require_nonzero(z) -> complex:
    """Coerce z to complex; reject a non-finite value and exact zero."""
    return require_off_circle(z, tol=0.0)     # no z lies within 0 of the circle


def require_off_circle(z, allow_zero: bool = False, tol: float = UNIT_CIRCLE_TOL) -> complex:
    """Coerce z to complex; reject a non-finite value, the unit circle and (optionally) zero."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise NotFinite(f"z = {z} is not finite")
    if z == 0 and not allow_zero:
        raise ZeroZ("z = 0 is not a valid evaluation point here")
    if abs(abs(z) - 1.0) < tol:
        raise ZOnUnitCircle(
            f"|z| = {abs(z):.8g} is within {tol:g} of the unit circle"
        )
    return z
