"""Verblunsky coefficient sequences and their defect algebra.

A sequence assigns to each lattice index k an m x m coefficient alpha_k.
Interior coefficients are strict contractions (operator norm below one),
while the two window endpoints hold unitary matrices that close the window
off and keep every assembled operator exactly unitary.

The helpers here compute the positive defect matrices
rho = (I - alpha* alpha)^(1/2) and rho~ = (I - alpha alpha*)^(1/2),
the 2m x 2m orthogonal building block built from a single coefficient,
singular value factorizations, unitary square roots, and two-sided
unitary gauge transforms of whole sequences. Each sequence stacks its
interior algebra by site once (SequenceArrays, one batched pass over the
stacked coefficients) for transfers and assembly, and keeps its V and W*
in band storage once (bands) for the resolvent blocks behind the
m-functions and the Green oracle, which slice it rather than build
sub-windows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    MalformedInput,
    NotContractive,
    NotFinite,
    NotUnitary,
    OutOfRange,
    SiteOutOfWindow,
)

CONTRACTION_TOL = 1e-8
UNITARY_TOL = 1e-10


class CoefficientKind(Enum):
    CONTRACTIVE = "contractive"
    UNITARY = "unitary"


def _as_square(value) -> np.ndarray:
    a = np.asarray(value, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NotFinite("matrix entries must be finite")
    return a


def operator_norm(a) -> float:
    """Largest singular value of a matrix."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def is_contraction(alpha, tol: float = CONTRACTION_TOL) -> bool:
    """True when the operator norm stays at or below 1 - tol."""
    return operator_norm(alpha) <= 1.0 - tol


def is_unitary(g, tol: float = UNITARY_TOL) -> bool:
    g = np.asarray(g, dtype=complex)
    eye = np.eye(g.shape[0])
    return bool(np.linalg.norm(g.conj().T @ g - eye) <= tol)


@dataclass(frozen=True)
class VerblunskyCoefficient:
    """One coefficient together with its declared kind.

    value : complex m x m array, stored as a read-only copy
    kind  : CONTRACTIVE for interior sites, UNITARY for window endpoints
    """

    value: np.ndarray
    kind: CoefficientKind

    def __post_init__(self):
        v = _as_square(self.value).copy()
        v.setflags(write=False)
        object.__setattr__(self, "value", v)
        if self.kind is CoefficientKind.CONTRACTIVE:
            if not is_contraction(v):
                raise NotContractive(
                    f"coefficient norm {operator_norm(v):.3e} exceeds "
                    f"{1.0 - CONTRACTION_TOL}"
                )
        elif not is_unitary(v):
            raise NotUnitary("endpoint coefficient is not unitary")

    @property
    def m(self) -> int:
        return self.value.shape[0]


def contractive(value) -> VerblunskyCoefficient:
    return VerblunskyCoefficient(value, CoefficientKind.CONTRACTIVE)


def unitary(value) -> VerblunskyCoefficient:
    return VerblunskyCoefficient(value, CoefficientKind.UNITARY)


@dataclass(frozen=True)
class VerblunskySequence:
    """Contiguous window k_min..k_max of coefficients, unitary at both ends.

    The window of coefficients realizes an operator on the sites
    k_min..k_max-1; the endpoint unitaries close the two cut edges.
    """

    m: int
    k_min: int
    k_max: int
    alphas: dict

    def __post_init__(self):
        if self.k_max - self.k_min < 4:
            raise OutOfRange(
                f"coefficient window [{self.k_min}, {self.k_max}] is too short; "
                "need k_max - k_min >= 4"
            )
        for k in range(self.k_min, self.k_max + 1):
            if k not in self.alphas:
                raise MalformedInput(f"missing coefficient at site {k}")
            c = self.alphas[k]
            if not isinstance(c, VerblunskyCoefficient):
                raise TypeError(f"site {k}: expected VerblunskyCoefficient")
            if c.m != self.m:
                raise DimensionMismatch(
                    f"site {k}: block size {c.m} does not match m={self.m}"
                )
            boundary = k in (self.k_min, self.k_max)
            if boundary and c.kind is not CoefficientKind.UNITARY:
                raise NotUnitary(f"site {k}: window endpoint must be unitary")
            if not boundary and c.kind is not CoefficientKind.CONTRACTIVE:
                raise NotContractive(f"site {k}: interior coefficient must be contractive")

    def alpha(self, k: int) -> np.ndarray:
        return self._at(k).value

    def kind(self, k: int) -> CoefficientKind:
        return self._at(k).kind

    def _at(self, k: int) -> VerblunskyCoefficient:
        try:
            return self.alphas[k]
        except KeyError:
            raise SiteOutOfWindow(
                f"site {k} outside the window [{self.k_min}, {self.k_max}]") from None

    @property
    def n_sites(self) -> int:
        return self.k_max - self.k_min

    @property
    def sites(self) -> range:
        """Sites covered by the assembled operator."""
        return range(self.k_min, self.k_max)

    def replace(self, k: int, coeff: VerblunskyCoefficient) -> "VerblunskySequence":
        """New sequence with the coefficient at k swapped out."""
        alphas = dict(self.alphas)
        alphas[k] = coeff
        return VerblunskySequence(self.m, self.k_min, self.k_max, alphas)

    def restrict(self, k_lo: int, k_hi: int,
                 left=None, right=None) -> "VerblunskySequence":
        """Sub-window [k_lo, k_hi] with optional replacement endpoint unitaries.

        When an endpoint override is given it is installed at that end;
        otherwise the existing coefficient must already be unitary.
        """
        if not (self.k_min <= k_lo < k_hi <= self.k_max):
            raise SiteOutOfWindow(
                f"sub-window [{k_lo}, {k_hi}] leaves [{self.k_min}, {self.k_max}]")
        alphas = {k: self.alphas[k] for k in range(k_lo, k_hi + 1)}
        if left is not None:
            alphas[k_lo] = unitary(left)
        if right is not None:
            alphas[k_hi] = unitary(right)
        return VerblunskySequence(self.m, k_lo, k_hi, alphas)

    @cached_property
    def arrays(self) -> "SequenceArrays":
        """Interior algebra stacked by site, factored in one batched pass."""
        alpha = np.stack([self.alphas[k].value for k in range(self.k_min + 1, self.k_max)])
        d = _defects_raw(alpha)
        rho_inv, rho_tilde_inv = np.linalg.inv(d.rho), np.linalg.inv(d.rho_tilde)
        return SequenceArrays(alpha, d.rho, d.rho_tilde, rho_inv, rho_tilde_inv,
                              rho_inv @ alpha.conj().transpose(0, 2, 1), rho_tilde_inv @ alpha)

    @cached_property
    def bands(self) -> tuple:
        """Read-only V and W* of the window in LAPACK band storage (assembly.band_storage)."""
        from .assembly import band_storage    # assembly builds on this module
        return band_storage(self)


def sequence_from_values(values: dict, m: int | None = None) -> VerblunskySequence:
    """Build a sequence from a plain {k: array-or-scalar} map.

    Endpoint entries are taken as unitary, everything else as contractive.
    Scalars are promoted to 1x1 matrices.
    """
    ks = sorted(values)
    k_min, k_max = ks[0], ks[-1]
    coerced = {k: np.atleast_2d(np.asarray(v, dtype=complex))
               for k, v in values.items()}
    if m is None:
        m = coerced[k_min].shape[0]
    alphas = {k: (unitary if k in (k_min, k_max) else contractive)(coerced[k]) for k in ks}
    return VerblunskySequence(m, k_min, k_max, alphas)


@dataclass(frozen=True)
class DefectPair:
    """Positive roots rho = (I - a* a)^(1/2), rho_tilde = (I - a a*)^(1/2); a may be a stack."""

    rho: np.ndarray
    rho_tilde: np.ndarray


@dataclass(frozen=True)
class SequenceArrays:
    """Read-only algebra of a window's interior sites, stacked by site.

    Each field has shape (n - 1, m, m), interior site k in row
    k - k_min - 1: alpha, rho, rho_tilde, their inverses and the two
    products rho^-1 alpha* and rho~^-1 alpha of the transfer matrices.
    """

    alpha: np.ndarray
    rho: np.ndarray
    rho_tilde: np.ndarray
    rho_inv: np.ndarray
    rho_tilde_inv: np.ndarray
    rho_inv_alpha_star: np.ndarray
    rho_tilde_inv_alpha: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)


@dataclass(frozen=True)
class UnitaryFactorization:
    """Factorization alpha = sigma diag(beta) tau* with unitary sigma, tau."""

    sigma: np.ndarray
    beta: np.ndarray
    tau: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.sigma @ np.diag(self.beta) @ self.tau.conj().T


def _positive_root(h: np.ndarray) -> np.ndarray:
    """Positive square roots of Hermitian PSD matrices (..., m, m), clipping roundoff."""
    w, q = np.linalg.eigh(h)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (q * w[..., None, :]) @ q.conj().swapaxes(-1, -2)


def _defects_raw(alpha: np.ndarray) -> DefectPair:
    """rho and rho_tilde of one coefficient (m, m) or of a stack (..., m, m)."""
    eye = np.eye(alpha.shape[-1])
    alpha_star = alpha.conj().swapaxes(-1, -2)
    rho = _positive_root(eye - alpha_star @ alpha)
    rho_tilde = _positive_root(eye - alpha @ alpha_star)
    return DefectPair(rho=rho, rho_tilde=rho_tilde)


def defect_matrices(alpha, tol: float = CONTRACTION_TOL) -> DefectPair:
    """Both defect matrices of a strict contraction.

    Parameters
    ----------
    alpha : complex square array with operator norm below 1 - tol

    Returns
    -------
    DefectPair with positive definite rho and rho_tilde satisfying
    rho_tilde alpha = alpha rho.
    """
    a = _as_square(alpha)
    if not is_contraction(a, tol):
        raise NotContractive(
            f"norm {operator_norm(a):.6f} is not below {1.0 - tol}"
        )
    return _defects_raw(a)


def theta_block(alpha, defects: DefectPair | None = None) -> np.ndarray:
    """2m x 2m unitary block [[-alpha, rho~], [rho, alpha*]].

    Accepts unitary alpha as well, in which case both defects vanish and the
    block degenerates to diag(-alpha, alpha*).
    """
    a = _as_square(alpha)
    if defects is None:
        defects = _defects_raw(a)
    m = a.shape[0]
    if defects.rho.shape != (m, m) or defects.rho_tilde.shape != (m, m):
        raise DimensionMismatch("defect matrices do not match the coefficient size")
    out = np.empty((2 * m, 2 * m), dtype=complex)
    out[:m, :m] = -a
    out[:m, m:] = defects.rho_tilde
    out[m:, :m] = defects.rho
    out[m:, m:] = a.conj().T
    return out


def factorize_svd(alpha) -> UnitaryFactorization:
    """Singular value factorization alpha = sigma diag(beta) tau*.

    Singular values come in descending order. Within any group of equal
    singular values the left factor's columns are phase-normalized (first
    nonvanishing entry made real nonnegative) and the right factor follows,
    so repeated runs produce the same factors.
    """
    a = _as_square(alpha)
    u, s, vh = np.linalg.svd(a)
    v = vh.conj().T
    n = len(s)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(s[j + 1] - s[i]) <= 1e-12 * max(s[0], 1.0):
            j += 1
        if j > i:
            for c in range(i, j + 1):
                col = u[:, c]
                nz = np.flatnonzero(np.abs(col) > 1e-14)
                if len(nz):
                    ph = col[nz[0]] / abs(col[nz[0]])
                    u[:, c] = col / ph
                    v[:, c] = v[:, c] / ph
        i = j + 1
    return UnitaryFactorization(sigma=u, beta=s, tau=v)


def principal_unitary_sqrt(gamma, tol: float = UNITARY_TOL) -> np.ndarray:
    """Unitary square root with every eigenangle halved.

    Eigenvalues e^(i theta) with theta in (-pi, pi] map to e^(i theta / 2),
    so the result squares back to the input and stays unitary.
    """
    g = _as_square(gamma)
    if not is_unitary(g, tol):
        raise NotUnitary("input to the unitary square root must be unitary")
    t, q = scipy.linalg.schur(g, output="complex")
    angles = np.angle(np.diag(t))
    root = np.exp(0.5j * angles)
    return (q * root) @ q.conj().T


def gauge_transform(seq: VerblunskySequence, sigma, tau) -> VerblunskySequence:
    """Two-sided unitary gauge: every coefficient becomes sigma alpha_k tau*.

    Args:
        seq: source sequence.
        sigma: unitary left factor, m x m.
        tau: unitary right factor, m x m.

    Returns:
        The transformed sequence on the same window. Defect matrices
        transform by conjugation (rho by tau, rho_tilde by sigma), so
        contraction and unitarity of each site are preserved.
    """
    s = _as_square(sigma)
    t = _as_square(tau)
    if s.shape != (seq.m, seq.m) or t.shape != (seq.m, seq.m):
        raise DimensionMismatch("gauge factors must match the sequence block size")
    if not (is_unitary(s) and is_unitary(t)):
        raise NotUnitary("gauge factors must be unitary")
    alphas = {}
    for k in range(seq.k_min, seq.k_max + 1):
        alphas[k] = VerblunskyCoefficient(s @ seq.alpha(k) @ t.conj().T, seq.kind(k))
    return VerblunskySequence(seq.m, seq.k_min, seq.k_max, alphas)


def _matrix_to_json(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _matrix_from_json(rows, where: str) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"{where}: malformed matrix entries") from exc


def sequence_document(seq: VerblunskySequence) -> dict:
    """The JSON document of a sequence, as parse_sequence reads it."""
    return {
        "m": seq.m,
        "k_min": seq.k_min,
        "k_max": seq.k_max,
        "alphas": {str(k): _matrix_to_json(seq.alpha(k))
                   for k in range(seq.k_min, seq.k_max + 1)},
    }


def dump_sequence(seq: VerblunskySequence, fp) -> None:
    """Write a sequence as JSON to an open text file."""
    json.dump(sequence_document(seq), fp, indent=1)


def save_sequence(seq: VerblunskySequence, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        dump_sequence(seq, fp)


def parse_sequence(doc: dict) -> VerblunskySequence:
    """Validate and build a sequence from a decoded JSON document.

    Every violated invariant is reported with the offending site index.
    """
    try:
        m, k_min, k_max = (int(doc[key]) for key in ("m", "k_min", "k_max"))
        alphas_doc = doc["alphas"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"coefficient document missing or malformed field: {exc}") from exc
    if not isinstance(alphas_doc, dict):
        raise MalformedInput("coefficient document field 'alphas' must map sites to matrices")
    alphas = {}
    for k in range(k_min, k_max + 1):
        key = str(k)
        if key not in alphas_doc:
            raise MalformedInput(f"site {k}: coefficient missing")
        a = _matrix_from_json(alphas_doc[key], where=f"site {k}")
        if a.shape != (m, m):
            raise DimensionMismatch(f"site {k}: expected {m}x{m}, got {a.shape}")
        boundary = k in (k_min, k_max)
        try:
            alphas[k] = unitary(a) if boundary else contractive(a)
        except (NotUnitary, NotContractive) as exc:
            raise type(exc)(f"site {k}: {exc}") from exc
    return VerblunskySequence(m, k_min, k_max, alphas)


def _read_json(path):
    """The decoded contents of a UTF-8 JSON file."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except ValueError as exc:       # not JSON, or not UTF-8
            raise MalformedInput(f"{path}: not a UTF-8 JSON document: {exc}") from exc


def load_sequence(path) -> VerblunskySequence:
    return parse_sequence(_read_json(path))
