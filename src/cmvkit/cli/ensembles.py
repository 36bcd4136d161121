"""Seeded random coefficient ensembles for tests and the CLI."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..coefficients import CONTRACTION_TOL, VerblunskySequence
from ..errors import MalformedInput, OutOfRange

# One CONTRACTION_TOL inside the sequences' contraction bound 1 - CONTRACTION_TOL: a
# draw scaled to norm radius_max lands within a few ulps of it, so it always passes.
MAX_RADIUS = 1.0 - 2.0 * CONTRACTION_TOL


class Distribution(Enum):
    UNIFORM_DISK = "uniform-disk"
    FIXED_RADIUS = "fixed-radius"


@dataclass(frozen=True)
class EnsembleSpec:
    """What to sample: block size, window, seed, and radius law.

    UNIFORM_DISK draws each coefficient with operator norm radius_max
    times the square root of a uniform variate (area-uniform in the
    scalar case); FIXED_RADIUS pins every norm to radius_max exactly.
    """

    m: int
    k_min: int
    k_max: int
    seed: int
    radius_max: float = 0.9
    distribution: Distribution = Distribution.UNIFORM_DISK

    def __post_init__(self):
        for name in ("m", "k_min", "k_max", "seed"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError as exc:
                raise MalformedInput(f"{name} must be an integer, got {value!r}") from exc
        if self.seed < 0:
            raise OutOfRange(f"seed must be at least 0, got {self.seed}")
        if self.m < 1:
            raise OutOfRange("block size m must be at least 1")
        if self.k_max - self.k_min < 4:
            raise OutOfRange(f"window [{self.k_min}, {self.k_max}]: need k_max - k_min >= 4")
        if not 0.0 < self.radius_max <= MAX_RADIUS:
            raise OutOfRange(f"radius_max must lie in (0, {MAX_RADIUS}], {CONTRACTION_TOL:g} "
                             f"inside the contraction bound {1.0 - CONTRACTION_TOL}")


def generate(spec: EnsembleSpec) -> VerblunskySequence:
    """Deterministic sequence from a spec: identity boundaries, sampled interior."""
    rng = np.random.default_rng(spec.seed)
    m = spec.m
    values = np.empty((spec.k_max - spec.k_min + 1, m, m), dtype=complex)
    values[0] = values[-1] = np.eye(m)
    n = len(values) - 2
    normals, u = np.empty((n, 2, m, m)), np.ones(n)
    if spec.distribution is Distribution.UNIFORM_DISK:
        for i, row in enumerate(normals):     # per site: its radius, then its Gaussian draw
            u[i] = rng.random()
            rng.standard_normal(out=row)
    else:
        rng.standard_normal(out=normals)
    targets = spec.radius_max * np.sqrt(u)
    draws = normals[:, 0] + 1j * normals[:, 1]
    norms = np.linalg.svd(draws, compute_uv=False)[:, 0]
    values[1:-1] = draws * (targets / norms)[:, None, None]
    values[1:-1][norms < 1e-12] = 0.0
    return VerblunskySequence(spec.k_min, values)


def random_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))
