"""Atomic measures, Herglotz sums, the Cayley map, and reflection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvkit.analytic import (
    AtomicMeasure,
    ZAtAtom,
    cayley,
    herglotz_eval,
    inverse_cayley,
    is_caratheodory,
    reflect,
    uniform_grid_measure,
)
from cmvkit.errors import DimensionMismatch, NotFinite, OutOfRange, SingularFactor


def random_measure(seed, m=2, n=5):
    rng = np.random.default_rng(seed)
    zetas, weights = [], []
    for _ in range(n):
        zetas.append(np.exp(2j * np.pi * rng.uniform()))
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        weights.append(g @ g.conj().T / m)
    C = rng.standard_normal((m, m))
    return AtomicMeasure(zetas=zetas, weights=weights, C=(C + C.T).astype(complex))


def test_uniform_grid_total_mass():
    mu = uniform_grid_measure(64, m=2)
    np.testing.assert_allclose(mu.total_mass(), np.eye(2), atol=1e-13)
    assert mu.zetas.shape == (64,) and mu.weights.shape == (64, 2, 2)
    assert np.all(np.abs(np.abs(mu.zetas) - 1) < 1e-12)


def test_quadrature_of_lebesgue_is_constant_one():
    """The normalized-arc-length sum equals 1 inside the disk."""
    mu = uniform_grid_measure(2048)
    got = herglotz_eval(mu, 0.3 + 0.2j)[0, 0]
    assert abs(got - 1.0) < 1e-10


def test_herglotz_closed_form_single_atom():
    w = np.array([[2.0]])
    mu = AtomicMeasure(zetas=[1.0], weights=[w], C=np.array([[0.5]]))
    z = 0.25j
    want = 0.5j + 2.0 * (1 + z) / (1 - z)
    np.testing.assert_allclose(herglotz_eval(mu, z)[0, 0], want, atol=1e-14)


def test_herglotz_positivity_inside_disk():
    mu = random_measure(0)
    samples = []
    for theta in np.linspace(0, 2 * np.pi, 9, endpoint=False):
        z = 0.8 * np.exp(1j * theta)
        samples.append((z, herglotz_eval(mu, z)))
    report = is_caratheodory(samples)
    assert report.valid
    assert len(report.min_eigenvalues) == 9
    assert min(report.min_eigenvalues) >= -report.tol


def test_caratheodory_rejects_bad_function():
    bad = [(0.1, np.array([[-1.0]]))]
    report = is_caratheodory(bad)
    assert not report.valid
    assert report.min_eigenvalues[0] == pytest.approx(-1.0)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_caratheodory_rejects_a_bad_tolerance(tol):
    """A NaN tolerance would mark every sample invalid and a negative one a valid sample."""
    with pytest.raises(OutOfRange, match="finite and >= 0"):
        is_caratheodory([(0.1, np.array([[0.5]]))], tol=tol)
    assert is_caratheodory([(0.1, np.array([[0.5]]))], tol=0.0).valid


def test_caratheodory_requires_interior_points():
    with pytest.raises(ValueError, match="inside the unit disk"):
        is_caratheodory([(1.0, np.eye(1))])


def test_eval_at_atom_raises():
    mu = AtomicMeasure(zetas=[1.0], weights=[np.eye(1)], C=np.zeros((1, 1)))
    with pytest.raises(ZAtAtom):
        herglotz_eval(mu, 1.0)


def test_measure_validation():
    with pytest.raises(ValueError, match="not on the unit circle"):
        AtomicMeasure(zetas=[0.5], weights=[np.eye(1)], C=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="Hermitian"):
        AtomicMeasure(zetas=[], weights=np.zeros((0, 1, 1)), C=np.array([[1j]]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        AtomicMeasure(zetas=[1.0], weights=[-np.eye(2)], C=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="size differs"):
        AtomicMeasure(zetas=[1.0], weights=[np.eye(2)], C=np.zeros((1, 1)))
    with pytest.raises(DimensionMismatch) as info:     # ragged weights, not numpy's error
        AtomicMeasure([1, 1j], [np.eye(1), np.eye(2)], np.zeros((1, 1)))
    assert type(info.value) is DimensionMismatch


@pytest.mark.parametrize("zeta, weight", [(complex("nan"), np.eye(1)),
                                          (1.0, np.array([[float("nan")]])),
                                          (complex(0, float("inf")), np.eye(1))])
def test_non_finite_atoms_and_weights_are_rejected(zeta, weight):
    with pytest.raises(NotFinite):
        AtomicMeasure(zetas=[zeta], weights=[weight], C=np.zeros((1, 1)))


def test_uniform_grid_rejects_empty_blocks():
    with pytest.raises(OutOfRange):
        uniform_grid_measure(3, m=0)
    with pytest.raises(OutOfRange):
        uniform_grid_measure(0)


def test_herglotz_sum_matches_atom_by_atom():
    mu = random_measure(4, m=3, n=7)
    z = 0.6 * np.exp(0.9j)
    want = 1j * mu.C + sum(w * (zeta + z) / (zeta - z) for zeta, w in zip(mu.zetas, mu.weights))
    np.testing.assert_allclose(herglotz_eval(mu, z), want, rtol=0, atol=1e-13)
    assert not (mu.zetas.flags.writeable or mu.weights.flags.writeable or mu.C.flags.writeable)


def test_cayley_round_trip_on_herglotz_values():
    mu = random_measure(1)
    for theta in (0.3, 1.7, 4.1):
        F = herglotz_eval(mu, 0.7 * np.exp(1j * theta))
        np.testing.assert_allclose(inverse_cayley(cayley(F)), F, atol=1e-12)
        assert np.linalg.norm(cayley(F), 2) <= 1 + 1e-10


def test_cayley_scalar_value():
    np.testing.assert_allclose(cayley(np.array([[3.0]])), [[0.5]], atol=1e-15)
    np.testing.assert_allclose(inverse_cayley(np.array([[0.5]])), [[3.0]],
                               atol=1e-14)


def test_cayley_singular_inputs():
    with pytest.raises(SingularFactor):
        cayley(-np.eye(2))
    with pytest.raises(SingularFactor):
        inverse_cayley(np.eye(2))


def test_reflect_pairs_point_and_value():
    F = np.array([[1.0 + 2.0j, 0.5], [0.0, 3.0j]])
    z = 0.4 * np.exp(0.9j)
    zr, Fr = reflect(z, F)
    assert zr == pytest.approx(1.0 / np.conj(z))
    np.testing.assert_allclose(Fr, -F.conj().T, atol=0)
    zb, Fb = reflect(zr, Fr)
    assert zb == pytest.approx(z)
    np.testing.assert_allclose(Fb, F, atol=0)
    with pytest.raises(ValueError, match="no finite reflection"):
        reflect(0.0, F)


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), float("nan")])
def test_non_finite_z_is_rejected(z):
    """Any finite z is a point of the toolbox, on the circle and 0 included."""
    mu = uniform_grid_measure(4)
    for finite in (0.0, np.exp(0.25j * np.pi)):
        assert np.all(np.isfinite(herglotz_eval(mu, finite)))
    with pytest.raises(NotFinite):
        herglotz_eval(mu, z)
    with pytest.raises(NotFinite):
        is_caratheodory([(0.5, [[1.0]]), (z, [[1.0]])])
    with pytest.raises(NotFinite):
        reflect(z, np.eye(1))


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.9),
       st.floats(min_value=-0.9, max_value=0.9))
def test_cayley_maps_right_half_plane_into_disk(x, y):
    """Herglotz values land in the closed disk under the Cayley map."""
    mu = uniform_grid_measure(16)
    z = complex(x, y)
    if abs(z) >= 0.95:
        return
    try:
        F = herglotz_eval(mu, z)
    except ZAtAtom:
        return
    assert abs(cayley(F)[0, 0]) <= 1 + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=200))
def test_grid_mass_scales_with_count(n):
    mu = uniform_grid_measure(n)
    np.testing.assert_allclose(mu.total_mass(), [[1.0]], atol=1e-12)
