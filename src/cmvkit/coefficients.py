"""Verblunsky coefficient sequences and their defect algebra.

A sequence assigns to each lattice index k an m x m coefficient alpha_k.
Interior coefficients are strict contractions (operator norm below one),
while the two window endpoints hold unitary matrices that close the window
off and keep every assembled operator exactly unitary. A sequence holds its
coefficients as one read-only stack; VerblunskyCoefficient is one coefficient.

The helpers here compute the positive defect matrices
rho = (I - alpha* alpha)^(1/2) and rho~ = (I - alpha alpha*)^(1/2),
the 2m x 2m orthogonal building block built from a single coefficient,
singular value factorizations, unitary square roots (from the Schur form
of LAPACK zgees, via _lapack), and two-sided unitary gauge transforms of
whole sequences. Each sequence computes the defects of its interior once
(defects, one batched pass over the stack) for assembly and transfers, and
their inverses once (defect_inverses) for transfers and connections; it
keeps its V and W* in band storage once (bands) for the resolvent blocks
behind the m-functions and the Green oracle, its z-free transfer matrices
once per direction (transfer_band, transfer_inverse_band) for
propagation, and the z-free cut bands of its last few cuts (cut_bands)
for the m-functions.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from ._lapack import zgees
from .errors import (
    CmvError,
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
CUT_BANDS_KEPT = 4     # VerblunskySequence.cut_bands entries kept per sequence


class CoefficientKind(Enum):
    CONTRACTIVE = "contractive"
    UNITARY = "unitary"


def _complex_array(value) -> np.ndarray:
    """value as a complex array; ragged nesting or a non-number raises DimensionMismatch."""
    try:
        return np.asarray(value, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"expected a regular array of blocks: {exc}") from exc


def _as_square(value, stack: bool = False) -> np.ndarray:
    """value as a finite complex square matrix, or a stack (..., m, m) of them when stack."""
    a = _complex_array(value)
    if not (a.ndim == 2 or stack and a.ndim > 2) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotFinite("matrix entries must be finite")
    return a


def operator_norm(a) -> float:
    """Largest singular value of a finite square matrix."""
    return float(np.linalg.norm(_as_square(a), 2))


def is_contraction(alpha) -> bool:
    """True when the operator norm of a finite square matrix is at most 1 - CONTRACTION_TOL."""
    return _require_contraction(_as_square(alpha), raises=False)


# ||a||_2^4 <= ||a* a||_F^2 clears a block whose computed bound is at most this: the
# factor 1 - 1e-12 is far above the rounding of the bound and of the SVD.
_CLEARED = (1.0 - CONTRACTION_TOL) ** 4 * (1.0 - 1e-12)


def _require_contraction(alpha, k_first=None, raises: bool = True) -> bool:
    """Whether the operator norm of a finite alpha, or of each matrix of a stack (n, m, m) of
    sites k_first.., stays at or below 1 - CONTRACTION_TOL; if not and raises, NotContractive.
    One batched SVD decides the blocks the bound _CLEARED leaves open."""
    a = np.asarray(alpha, dtype=complex)
    a = a.reshape(-1, *a.shape[-2:])
    gram = np.einsum("kji,kjl->kil", a.conj(), a).reshape(len(a), -1).view(float)
    unclear = np.flatnonzero(~(np.einsum("ij,ij->i", gram, gram) <= _CLEARED))
    if not unclear.size:
        return True
    norms = np.linalg.svd(a[unclear], compute_uv=False)[:, 0]
    bad = ~(norms <= 1.0 - CONTRACTION_TOL)
    if raises and bad.any():
        i = np.argmax(bad)
        where = "" if k_first is None else f"site {k_first + unclear[i]}: "
        raise NotContractive(f"{where}coefficient norm {norms[i]:.3e} exceeds "
                             f"{1.0 - CONTRACTION_TOL}")
    return not bad.any()


def _frobenius(x) -> float:
    """np.linalg.norm(x) of a float or complex array by its own arithmetic (ravel 'K', the
    real and imaginary dot products, sqrt), bit for bit, without its dispatch."""
    x = np.asarray(x).ravel(order="K")
    if x.dtype.kind != "c":
        return math.sqrt(x.dot(x))
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


@lru_cache(maxsize=16)
def _identity(m: int) -> np.ndarray:
    """The m x m float identity, built once per m, as a read-only view."""
    return np.broadcast_to(np.eye(m), (m, m))


def is_unitary(g) -> bool:
    """True when g*g is the identity within UNITARY_TOL (Frobenius) for a finite square g."""
    g = _as_square(g)
    return _frobenius(g.conj().T @ g - _identity(g.shape[0])) <= UNITARY_TOL


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
            _require_contraction(v)
        else:
            _unitary_block(v, "endpoint coefficient")

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

    values stacks alpha_{k_min}..alpha_{k_max} with shape (n + 1, m, m), alpha_k
    in row k - k_min: a read-only copy, validated in one batched pass. It
    realizes an operator on the sites k_min..k_max-1; the endpoint unitaries
    close the two cut edges.
    """

    k_min: int
    values: np.ndarray

    def __post_init__(self):
        a = _complex_array(self.values).copy(order="K")
        if a.ndim != 3 or not 0 < a.shape[1] == a.shape[2]:
            raise DimensionMismatch(f"expected a stack of square blocks, got shape {a.shape}")
        k_max = self.k_min + len(a) - 1
        if k_max - self.k_min < 4:
            raise OutOfRange(f"coefficient window [{self.k_min}, {k_max}] is too short; "
                             "need k_max - k_min >= 4")
        bad = ~np.isfinite(a).all(axis=(1, 2))
        if bad.any():
            raise NotFinite(f"site {self.k_min + np.argmax(bad)}: matrix entries must be finite")
        _require_contraction(a[1:-1], self.k_min + 1)
        for k, end in ((self.k_min, a[0]), (k_max, a[-1])):
            if not is_unitary(end):
                raise NotUnitary(f"site {k}: window endpoint must be unitary")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.values) - 1

    def alpha(self, k: int) -> np.ndarray:
        return self.values[self._row(k)]

    def kind(self, k: int) -> CoefficientKind:
        end = self._row(k) in (0, self.n_sites)
        return CoefficientKind.UNITARY if end else CoefficientKind.CONTRACTIVE

    def _row(self, k: int) -> int:
        if not self.k_min <= k <= self.k_max:
            raise SiteOutOfWindow(f"site {k} outside the window [{self.k_min}, {self.k_max}]")
        return k - self.k_min

    @property
    def n_sites(self) -> int:
        return self.k_max - self.k_min

    @property
    def sites(self) -> range:
        """Sites covered by the assembled operator."""
        return range(self.k_min, self.k_max)

    def replace(self, k: int, coeff: VerblunskyCoefficient) -> "VerblunskySequence":
        """New sequence with the coefficient at k swapped out."""
        values = self.values.copy()
        values[self._row(k)] = _sized(k, coeff.value, self.m)
        return VerblunskySequence(self.k_min, values)

    def restrict(self, k_lo: int, k_hi: int,
                 left=None, right=None) -> "VerblunskySequence":
        """Sub-window [k_lo, k_hi] with optional replacement endpoint unitaries.

        When an endpoint override is given it is installed at that end;
        otherwise the existing coefficient must already be unitary.
        """
        if not (self.k_min <= k_lo < k_hi <= self.k_max):
            raise SiteOutOfWindow(
                f"sub-window [{k_lo}, {k_hi}] leaves [{self.k_min}, {self.k_max}]")
        values = self.values[k_lo - self.k_min:k_hi - self.k_min + 1].copy()
        for row, k, end in ((0, k_lo, left), (-1, k_hi, right)):
            if end is not None:
                values[row] = _sized(k, end, self.m)
        return VerblunskySequence(k_lo, values)

    @cached_property
    def defects(self) -> "DefectPair":
        """Read-only rho and rho~ of the interior coefficients, stacked (n - 1, m, m), interior
        site k in row k - k_min - 1: one batched pass."""
        d = _defects_raw(self.values[1:-1])
        for a in (d.rho, d.rho_tilde):
            a.setflags(write=False)
        return d

    @cached_property
    def defect_inverses(self) -> np.ndarray:
        """Read-only rho^-1 and rho~^-1 of the interior coefficients, stacked (2, n - 1, m, m),
        interior site k in column k - k_min - 1: one batched inverse of defects, read by both
        transfer bands and by the connection coefficients at a cut (laurent)."""
        d = self.defects
        inverses = np.linalg.inv(np.stack((d.rho, d.rho_tilde)))
        inverses.setflags(write=False)
        return inverses

    @cached_property
    def bands(self) -> tuple:
        """Read-only V and W* of the window in LAPACK band storage (assembly.band_storage)."""
        from .assembly import band_storage    # assembly builds on this module
        return band_storage(self)

    @cached_property
    def transfer_band(self) -> np.ndarray:
        """Read-only z-free transfer matrices of the interior, for propagation away from
        k_min, in the banded solve's layout (laurent._transfer_band)."""
        from .laurent import _transfer_band     # laurent builds on this module
        return _transfer_band(self)

    @cached_property
    def transfer_inverse_band(self) -> np.ndarray:
        """The same for their explicit inverses, for propagation toward k_min."""
        from .laurent import _transfer_band
        return _transfer_band(self, inverse=True)

    @cached_property
    def _cut_store(self) -> dict:
        return {}

    def cut_bands(self, k0: int, gamma: "BoundaryUnitary"):
        """The read-only z-free bands of the half windows cut at k0 with gamma, a
        BoundaryUnitary (assembly.cut_band_storage), built once per (k0, gamma's bytes).
        The last CUT_BANDS_KEPT are kept, the oldest dropped first; a failed build is not."""
        store, key = self._cut_store, (k0, gamma.gamma.tobytes())
        found = store.get(key)
        if found is None:
            from .assembly import cut_band_storage
            found = store[key] = cut_band_storage(self, k0, gamma)
            if len(store) > CUT_BANDS_KEPT:
                del store[next(iter(store))]
        return found


def sequence_from_values(values: dict, m: int | None = None) -> VerblunskySequence:
    """Build a sequence from a plain {k: array-or-scalar} map.

    The keys must be integer sites filling one window; its ends must be unitary
    and the rest contractive. Scalars are promoted to 1x1 matrices. Anything else
    (not a map, an empty map, a key that is not an integer, a value that is not a
    regular numeric array) raises MalformedInput.
    """
    try:
        values = {operator.index(k): v for k, v in values.items()}
    except (AttributeError, TypeError) as exc:
        raise MalformedInput(f"values must map integer sites to coefficients: {exc}") from exc
    if not values:
        raise MalformedInput("no coefficients given")
    ks, blocks = sorted(values), {}
    for k, v in values.items():
        try:
            blocks[k] = np.atleast_2d(np.asarray(v, dtype=complex))
        except (TypeError, ValueError) as exc:
            raise MalformedInput(f"site {k}: not a regular numeric array: {exc}") from exc
    return _stacked(ks[0], ks[-1], blocks[ks[0]].shape[0] if m is None else m, blocks.get)


def _sized(k: int, a, m: int):
    """a, once checked to be an m x m block for site k."""
    if np.shape(a) != (m, m):
        raise DimensionMismatch(f"site {k}: expected {m}x{m}, got shape {np.shape(a)}")
    return a


def _stacked(k_min: int, k_max: int, m: int, block) -> VerblunskySequence:
    """The sequence of block(k) over k_min..k_max; block returns None for a missing site."""
    if m < 1:
        raise DimensionMismatch(f"block size m must be at least 1, got {m}")
    rows = []
    for k in range(k_min, k_max + 1):
        a = block(k)
        if a is None:
            raise MalformedInput(f"site {k}: coefficient missing")
        rows.append(_sized(k, a, m))
    return VerblunskySequence(k_min, np.array(rows, dtype=complex).reshape(-1, m, m))


@dataclass(frozen=True)
class DefectPair:
    """Positive roots rho = (I - a* a)^(1/2), rho_tilde = (I - a a*)^(1/2); a may be a stack."""

    rho: np.ndarray
    rho_tilde: np.ndarray


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
    """rho and rho_tilde of one coefficient (m, m) or of a stack (..., m, m), one eigh."""
    alpha_star = alpha.conj().swapaxes(-1, -2)
    grams = np.stack((alpha_star @ alpha, alpha @ alpha_star))
    rho, rho_tilde = _positive_root(_identity(alpha.shape[-1]) - grams)
    return DefectPair(rho=rho, rho_tilde=rho_tilde)


def defect_matrices(alpha) -> DefectPair:
    """Both defect matrices of a strict contraction.

    Parameters
    ----------
    alpha : complex square array with operator norm below 1 - CONTRACTION_TOL

    Returns
    -------
    DefectPair with positive definite rho and rho_tilde satisfying
    rho_tilde alpha = alpha rho.
    """
    a = _as_square(alpha)
    _require_contraction(a)
    return _defects_raw(a)


def theta_block(alpha, defects: DefectPair | None = None) -> np.ndarray:
    """2m x 2m unitary block [[-alpha, rho~], [rho, alpha*]], or the stack (..., 2m, 2m)
    of them for a stack alpha (..., m, m) and defects of alpha's shape.

    Accepts unitary alpha as well, in which case both defects vanish and the
    block degenerates to diag(-alpha, alpha*).
    """
    a = _as_square(alpha, stack=True)
    if defects is None:
        defects = _defects_raw(a)
    if np.shape(defects.rho) != a.shape or np.shape(defects.rho_tilde) != a.shape:
        raise DimensionMismatch("defect matrices do not match the coefficient size")
    m = a.shape[-1]
    out = np.empty((*a.shape[:-2], 2 * m, 2 * m), dtype=complex)
    out[..., :m, :m] = -a
    out[..., :m, m:] = defects.rho_tilde
    out[..., m:, :m] = defects.rho
    out[..., m:, m:] = a.conj().swapaxes(-1, -2)
    return out


def factorize_svd(alpha) -> UnitaryFactorization:
    """Singular value factorization alpha = sigma diag(beta) tau*, beta descending.

    The factors are LAPACK's, from one np.linalg.svd call. A common phase on
    column c of sigma and of tau cancels in sigma diag(e^(i p)) tau*, so it
    leaves every gamma built from the factors unchanged.
    """
    u, s, vh = np.linalg.svd(_as_square(alpha))
    return UnitaryFactorization(sigma=u, beta=s, tau=vh.conj().T)


def _unitary_block(value, what: str, m: int | None = None) -> np.ndarray:
    """value, once checked to be a finite square unitary matrix (m x m when m is given)."""
    a = _as_square(value)
    if m is not None and a.shape != (m, m):
        raise DimensionMismatch(f"{what} must be {m}x{m}, got shape {a.shape}")
    if not is_unitary(a):
        raise NotUnitary(f"{what} must be unitary")
    return a


def principal_unitary_sqrt(gamma) -> np.ndarray:
    """Unitary square root with every eigenangle halved.

    Eigenvalues e^(i theta) with theta in (-pi, pi] map to e^(i theta / 2),
    so the result squares back to the input and stays unitary. The Schur
    form comes from one LAPACK zgees call with the wrapper's default workspace.
    """
    t, _, _, q, _, info = zgees(lambda x: None, _unitary_block(gamma, "gamma"), sort_t=0)
    if info != 0:
        raise CmvError(f"Schur form of gamma not found (LAPACK zgees info = {info})")
    angles = np.angle(np.diag(t))
    root = np.exp(0.5j * angles)
    return (q * root) @ q.conj().T


@dataclass(frozen=True)
class BoundaryUnitary:
    """A unitary gamma at the cut and one square root of it, checked once, read-only.

    root defaults to principal_unitary_sqrt(gamma); a given root must be an
    m x m unitary squaring to gamma within 1e-10. Every function taking gamma
    accepts this value or an array (see as_boundary); all that is built from
    one value shares its root, and so one frame.
    """

    gamma: np.ndarray
    root: np.ndarray | None = None

    def __post_init__(self):
        if self.root is None:
            root = principal_unitary_sqrt(self.gamma)     # checks gamma on the way
            gamma = _as_square(self.gamma)
        else:
            gamma = _unitary_block(self.gamma, "gamma")
            root = _unitary_block(self.root, "the square root of gamma", m=gamma.shape[0])
            if not np.allclose(root @ root, gamma, rtol=0.0, atol=1e-10):
                raise NotUnitary("root must square to gamma")
        for name, a in (("gamma", gamma), ("root", root)):
            a = a.copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@lru_cache(maxsize=32)
def _boundary(shape: tuple, data: bytes) -> BoundaryUnitary:
    """BoundaryUnitary of the complex array with this shape and bytes; an error is not cached."""
    return BoundaryUnitary(np.frombuffer(data, dtype=complex).reshape(shape))


def as_boundary(gamma, m: int | None = None) -> BoundaryUnitary:
    """gamma as a BoundaryUnitary, m x m when m is given (checked first).

    An array is checked and rooted once per distinct value: the value is
    kept in a bounded cache keyed by its shape and complex bytes, so equal
    arrays share one read-only BoundaryUnitary and one Schur root.
    """
    a = gamma.gamma if isinstance(gamma, BoundaryUnitary) else _complex_array(gamma)
    if m is not None and a.shape != (m, m):
        raise DimensionMismatch(f"gamma must be {m}x{m}, got shape {a.shape}")
    return gamma if isinstance(gamma, BoundaryUnitary) else _boundary(a.shape, a.tobytes())


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
    s, t = (_unitary_block(f, "gauge factor", m=seq.m) for f in (sigma, tau))
    return VerblunskySequence(seq.k_min, s @ seq.values @ t.conj().T)


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
        "alphas": {str(k): _matrix_to_json(a) for k, a in enumerate(seq.values, seq.k_min)},
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
        entries = doc["alphas"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"coefficient document missing or malformed field: {exc}") from exc
    if not isinstance(entries, dict):
        raise MalformedInput("coefficient document field 'alphas' must map sites to matrices")
    return _stacked(k_min, k_max, m, lambda k: _matrix_from_json(entries[str(k)], f"site {k}")
                    if str(k) in entries else None)


def _read_json(path):
    """The decoded contents of a UTF-8 JSON file."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except ValueError as exc:       # not JSON, or not UTF-8
            raise MalformedInput(f"{path}: not a UTF-8 JSON document: {exc}") from exc


def load_sequence(path) -> VerblunskySequence:
    return parse_sequence(_read_json(path))
