"""One boundary unitary: every public entry taking gamma takes an array or a BoundaryUnitary.

The value checks gamma and fixes its root once. An array gives the same
output as the value built from it; the negated root flips the sign of
solution values and leaves every m-function, kernel and coefficient as is.
"""

import sys

import numpy as np
import pytest

import cmvkit as C
from cmvkit import coefficients
from cmvkit.assembly import SplitSpec, assemble, assemble_split, resolvent_blocks
from cmvkit.coefficients import BoundaryUnitary, principal_unitary_sqrt
from cmvkit.errors import DimensionMismatch, NotFinite, NotUnitary
from cmvkit.cli.ensembles import EnsembleSpec, generate, random_unitary

K0, Z = 10, 0.45 * np.exp(0.7j)


def _family(f):
    return [f.P, f.Q, f.R, f.S]


def _connection(seq, g):
    cc = C.connection(g, g, seq.alpha(K0), K0)
    return [cc.C1, cc.D1, cc.C3, cc.D3, cc.C4, cc.D4, cc.c2(Z), cc.d2(Z)]


def _sample(seq, g):
    s = C.spectral_sample(seq, K0, g, Z)
    return [s.m_plus, s.m_minus, s.M_plus, s.M_minus, s.Phi_plus, s.Phi_minus,
            C.spectral_sample(seq, K0, g, 0.0).M_minus]


# name: (block size, call(seq, gamma) -> arrays, their sign when the root is negated)
ENTRIES = {
    "seed_family": (2, lambda seq, g: _family(C.seed_family(g, Z, K0, C.PLUS)), -1),
    "window_family": (2, lambda seq, g: _family(C.window_family(seq, g, Z, K0, C.MINUS)), -1),
    "connection": (2, _connection, 1),
    "m_function": (2, lambda seq, g: [C.m_function(seq, K0, g, Z, s) for s in (1, -1)], 1),
    "m_from_edge_condition": (
        2, lambda seq, g: [C.m_from_edge_condition(seq, K0, g, Z, s) for s in (1, -1)], 1),
    "M_function": (2, lambda seq, g: [C.M_function(seq, K0, g, z, -1) for z in (Z, 0.0)], 1),
    "M_minus_via_connection": (2, lambda seq, g: [C.M_minus_via_connection(seq, K0, g, Z)], 1),
    "M_minus_at_zero": (2, lambda seq, g: [C.M_minus_at_zero(seq.alpha(K0), g)], 1),
    "weyl_solution": (2, lambda seq, g: [C.weyl_solution(seq, K0, g, Z, -1).U], -1),
    "weyl_solutions": (
        2, lambda seq, g: [a for sol in C.weyl_solutions(seq, K0, g, Z) for a in (sol.U, sol.V)],
        -1),
    "schur_parity_formula": (
        2, lambda seq, g: [C.schur_parity_formula(seq, K0, g, Z, k, 1) for k in (K0, K0 + 3)], 1),
    "spectral_sample": (2, _sample, 1),
    "half_lattice_green": (
        2, lambda seq, g: [C.half_lattice_green(seq, K0, g, Z, k, kp, s).value
                           for s, k, kp in ((1, K0 + 1, K0 + 3), (-1, K0 - 2, K0))], 1),
    "full_green_entries": (2, lambda seq, g: [
        e.value for e in C.full_green_entries(seq, K0, g, Z, [(8, 12), (12, 8)])], 1),
    "full_lattice_green": (
        2, lambda seq, g: [C.full_green_entries(seq, K0, g, Z, [(9, 11)])[0].value], 1),
    "half_green_scalar_prefactor": (
        1, lambda seq, g: [np.asarray(C.half_green_scalar_prefactor(seq, K0, g, Z, 12, 11, 1))], 1),
    "full_green_scalar_prefactor": (
        1, lambda seq, g: [np.asarray(C.full_green_scalar_prefactor(seq, K0, g, Z, 8, 11))], 1),
    "resolvent_block": (
        2, lambda seq, g: resolvent_blocks(seq, Z, [(K0 + 1, K0 + 2)], 1, K0, g), 1),
    "dense_resolvent_entry": (
        2, lambda seq, g: [C.dense_resolvent_entry(seq, Z, 9, 10, half=-1, k0=K0, gamma=g)], 1),
}


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_every_gamma_entry_takes_the_boundary_value(name):
    m, call, flip = ENTRIES[name]
    seq = generate(EnsembleSpec(m=m, k_min=0, k_max=20, seed=80 + m, radius_max=0.85))
    rng = np.random.default_rng(81)
    g = random_unitary(rng, m)
    root = principal_unitary_sqrt(g)
    want = call(seq, g)
    for value, sign in ((BoundaryUnitary(g), 1), (BoundaryUnitary(g, root), 1),
                        (BoundaryUnitary(g, -root), flip)):
        got = call(seq, value)
        assert len(got) == len(want)
        assert all(np.array_equal(a, sign * b) for a, b in zip(got, want)), sign
    bad = ((principal_unitary_sqrt(random_unitary(rng, m)), NotUnitary),   # not a root of g
           (0.5 * root, NotUnitary), (np.eye(m + 1), DimensionMismatch))
    for bad_root, err in bad:
        with pytest.raises(err) as info:
            call(seq, BoundaryUnitary(g, bad_root))
        assert type(info.value) is err
    if name != "seed_family":       # the one entry with no block size to check against
        for wrong in (random_unitary(rng, m + 1), BoundaryUnitary(random_unitary(rng, m + 1))):
            with pytest.raises(DimensionMismatch) as info:
                call(seq, wrong)
            assert type(info.value) is DimensionMismatch


@pytest.mark.parametrize("gamma, root, err", [
    (np.ones(2), None, DimensionMismatch),
    ([[1.0], [0.0, 1.0]], None, DimensionMismatch),            # ragged
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), None, NotFinite),
    (np.diag([1.0, 0.5]), None, NotUnitary),
    (np.diag([1.0, 0.5]), np.eye(2), NotUnitary),               # a root does not excuse gamma
    (np.eye(2), np.ones(2), DimensionMismatch),
    (np.eye(2), [[1.0, 0.0], [0.0, np.inf]], NotFinite),
    (np.eye(2), np.diag([1.0, 1j]), NotUnitary),                 # unitary, squares to diag(1, -1)
])
def test_boundary_value_errors_are_pinned(gamma, root, err):
    with pytest.raises(err) as info:
        BoundaryUnitary(gamma, root)
    assert type(info.value) is err


def test_boundary_value_is_a_read_only_copy():
    g = np.diag([1j, -1.0])
    root = principal_unitary_sqrt(g)
    value = BoundaryUnitary(g, root)
    g[0, 0] = root[0, 0] = 5.0
    assert np.array_equal(value.gamma, np.diag([1j, -1.0]))
    assert np.array_equal(value.root, principal_unitary_sqrt(value.gamma))
    assert not value.gamma.flags.writeable and not value.root.flags.writeable
    assert C.seed_family(value, Z, K0, C.PLUS).boundary is value


def _counted_checks(monkeypatch):
    """Count calls of is_unitary and principal_unitary_sqrt made anywhere in cmvkit,
    from an empty as_boundary cache, so the counts do not depend on earlier tests."""
    coefficients._boundary.cache_clear()
    calls = {"principal_unitary_sqrt": 0, "is_unitary": 0}
    for fn in calls:
        real = getattr(coefficients, fn)

        def counting(*args, real=real, fn=fn, **kwargs):
            calls[fn] += 1
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("cmvkit") and getattr(module, fn, None) is real:
                monkeypatch.setattr(module, fn, counting)
    return calls


def test_connection_checks_one_gamma_passed_twice_once(monkeypatch):
    """connection(g, g, ...) checks and roots g once, like one BoundaryUnitary."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=20, seed=82))
    g = random_unitary(np.random.default_rng(83), 2)
    want = C.connection(BoundaryUnitary(g), BoundaryUnitary(g), seq.alpha(K0), K0)
    calls = _counted_checks(monkeypatch)
    got = C.connection(g, g, seq.alpha(K0), K0)
    assert calls == {"principal_unitary_sqrt": 1, "is_unitary": 1}
    for name in ("C1", "D1", "C3", "D3", "C4", "D4", "g1_sqrt", "g2_sqrt"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_decoupling_report_checks_its_split_pair_once(monkeypatch):
    """One report builds one SplitSpec: two is_unitary calls, one per unitary."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=20, seed=84))
    ph = C.minimal_phases(seq.alpha(K0), [0.3, 1.1])
    calls = _counted_checks(monkeypatch)
    report = C.decoupling_report(seq, K0, ph.gamma1, ph.gamma2)
    assert calls == {"principal_unitary_sqrt": 0, "is_unitary": 2}
    monkeypatch.undo()
    spec = SplitSpec(k0=K0, gamma_left=ph.gamma1, gamma_right=ph.gamma2)
    assert np.array_equal(report.local_block, C.operator_difference_block(seq, spec))
    U, U_split = assemble(seq).U, assemble_split(seq, spec).U
    assert report.op_rank == C.numerical_rank(U - U_split)
    eye = np.eye(U.shape[0])
    assert report.resolvent_ranks == {
        z: C.numerical_rank(np.linalg.inv(U - z * eye) - np.linalg.inv(U_split - z * eye))
        for z in report.resolvent_ranks}
    assert report.minimal


def test_equal_arrays_share_one_boundary_value(monkeypatch):
    """as_boundary roots each distinct array value once: an equal array, a copy or a
    float array equal to a complex one, returns the very same read-only value."""
    calls = _counted_checks(monkeypatch)
    g = random_unitary(np.random.default_rng(85), 2)
    value = coefficients.as_boundary(g)
    assert coefficients.as_boundary(g.copy(), 2) is value
    assert coefficients.as_boundary(g.tolist()) is value
    assert coefficients.as_boundary(value, 2) is value
    assert coefficients.as_boundary(np.eye(2)) is coefficients.as_boundary(np.eye(2, dtype=complex))
    assert calls == {"principal_unitary_sqrt": 2, "is_unitary": 2}
    assert np.array_equal(value.root, principal_unitary_sqrt(g))
    assert not value.gamma.flags.writeable and not value.root.flags.writeable


@pytest.mark.parametrize("gamma, m, err", [
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), None, NotFinite),
    ([[1.0], [0.0, 1.0]], None, DimensionMismatch),             # ragged
    (np.ones(2), None, DimensionMismatch),                       # not square
    (np.diag([1.0, 0.5]), None, NotUnitary),
    (np.eye(3), 2, DimensionMismatch),                           # a unitary of the wrong size
])
def test_a_bad_gamma_is_never_cached(gamma, m, err):
    coefficients._boundary.cache_clear()
    for _ in range(2):
        with pytest.raises(err) as info:
            coefficients.as_boundary(gamma, m)
        assert type(info.value) is err
        assert coefficients._boundary.cache_info().currsize == 0


def test_the_boundary_cache_is_bounded():
    coefficients._boundary.cache_clear()
    size = coefficients._boundary.cache_info().maxsize
    rng = np.random.default_rng(86)
    for _ in range(size + 8):
        coefficients.as_boundary(random_unitary(rng, 2))
    assert coefficients._boundary.cache_info().currsize == size == 32
