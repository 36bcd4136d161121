"""One error family: every failure cmvkit reports is a CmvError defined in errors.py."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import cmvkit
from cmvkit import greens, laurent, weyl
from cmvkit.assembly import resolvent_blocks
from cmvkit.coefficients import as_boundary, is_contraction, is_unitary, operator_norm
from cmvkit.errors import (
    CmvError,
    DimensionMismatch,
    MalformedInput,
    MissingCut,
    NotFinite,
    OutOfRange,
    SingularFactor,
    SingularWronskian,
    SiteOutOfWindow,
    require_finite,
    require_nonzero,
    require_off_circle,
    solve,
)
from cmvkit.cli.ensembles import EnsembleSpec, generate, random_unitary
from cmvkit.decoupling import decoupling_report
from cmvkit.greens import dense_resolvent_entries
from cmvkit.laurent import propagate, seed_family
from cmvkit.weyl import schur_parity_formula, weyl_solutions

SRC = Path(cmvkit.__file__).parent


def test_every_exception_class_is_a_cmv_error_from_errors():
    modules = [cmvkit] + [importlib.import_module(info.name) for info in
                          pkgutil.walk_packages(cmvkit.__path__, "cmvkit.")]
    found = set()
    for module in modules:
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and issubclass(obj, Exception) \
                    and obj.__module__.startswith("cmvkit"):
                assert obj.__module__ == "cmvkit.errors", (module.__name__, name)
                assert issubclass(obj, CmvError), name
                found.add(obj)
    assert len(found) >= 20 and cmvkit.CmvError is CmvError


def test_no_untyped_raise_under_src():
    untyped = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "KeyError",
                                                            "IndexError"):
                    untyped.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert untyped == []


def test_out_of_window_site_is_a_lookup_error_with_a_plain_message():
    seq = generate(EnsembleSpec(m=1, k_min=0, k_max=12, seed=1))
    for lookup in (seq.alpha, seq.kind):
        with pytest.raises(SiteOutOfWindow) as info:
            lookup(99)
        assert isinstance(info.value, KeyError) and isinstance(info.value, ValueError)
        assert str(info.value) == "site 99 outside the window [0, 12]"


def test_solve_is_typed_on_both_sides():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))
    np.testing.assert_array_equal(solve(A, B), np.linalg.solve(A, B))
    np.testing.assert_array_equal(solve(A, B, right=True), np.linalg.solve(B.T, A.T).T)
    with pytest.raises(SingularFactor, match="singular"):
        solve(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(SingularWronskian, match="numerically singular"):
        solve(np.array([[1e-300]]), np.array([[1e300]]), SingularWronskian)
    with pytest.raises(SingularWronskian):
        solve(np.eye(2), np.zeros((2, 2)), SingularWronskian, right=True)


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(0, float("-inf")),
                               float("nan")])
def test_non_finite_z_is_rejected(z):
    with pytest.raises(NotFinite):
        require_nonzero(z)
    with pytest.raises(NotFinite):
        require_finite(z)
    for allow_zero in (False, True):
        with pytest.raises(NotFinite):
            require_off_circle(z, allow_zero=allow_zero)


@pytest.mark.parametrize("half", [1, -1])
def test_half_window_without_its_cut_is_typed(half):
    """A half window needs k0 and gamma; the error names the one missing."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=12, seed=1))
    g = np.eye(2)
    for read in (dense_resolvent_entries, resolvent_blocks):
        with pytest.raises(MissingCut, match="k0"):
            read(seq, 0.5, [(6, 6)], half, gamma=g)
        with pytest.raises(MissingCut, match="gamma"):
            read(seq, 0.5, [(6, 6)], half, k0=6)
        assert read(seq, 0.5, [(6, 6)], half, k0=6, gamma=g)[0].shape == (2, 2)


def test_weyl_solutions_without_signs_is_typed():
    """An empty signs is OutOfRange at the builder's entry, not a bare error from its solve."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=12, seed=1))
    with pytest.raises(OutOfRange, match="one or more signs"):
        weyl_solutions(seq, 6, np.eye(2), 0.5, signs=())


def test_non_integer_sites_are_malformed_input():
    """A float site is MalformedInput, not a bare TypeError, wherever a family is propagated
    to it: one site check (errors.require_sites) serves these and the Green kernels' pairs."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=20, seed=1))
    g = np.eye(2)
    fam = seed_family(as_boundary(g, 2), 0.5, 10, 1)
    for call in (lambda: propagate(seq, fam, 12.5),
                 lambda: weyl_solutions(seq, 10, g, 0.5, sites=(12.5,)),
                 lambda: schur_parity_formula(seq, 10, g, 0.5, 12.0, 1)):
        with pytest.raises(MalformedInput, match="integer site"):
            call()
    assert propagate(seq, fam, np.int64(12)).k_hi == 12      # a numpy integer is a site


def _arrays(x) -> list:
    """Every array (and number) inside a result: dataclass fields, sequences and dicts."""
    if isinstance(x, np.ndarray):
        return [x]
    if dataclasses.is_dataclass(x):
        return [a for f in dataclasses.fields(x) for a in _arrays(getattr(x, f.name))]
    if isinstance(x, (list, tuple)):
        return [a for v in x for a in _arrays(v)]
    if isinstance(x, dict):
        return [a for k, v in x.items() for a in _arrays((k, v))]
    return [np.asarray(x)] if isinstance(x, (int, float, complex)) else []


def _cut_entries():
    """(name, call of k0) for each public entry that reads a cut or reference site k0."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=20, seed=1))
    g = random_unitary(np.random.default_rng(2), 2)
    return {
        "half_lattice_green": lambda k0: greens.half_lattice_green(seq, k0, g, 0.5, 12, 13, 1),
        "full_green_entries": lambda k0: greens.full_green_entries(seq, k0, g, 0.5, [(9, 12)]),
        "dense_resolvent_entry": lambda k0: greens.dense_resolvent_entry(
            seq, 0.5, 12, 13, half=1, k0=k0, gamma=g),
        "spectral_sample": lambda k0: weyl.spectral_sample(seq, k0, g, 0.5),
        "weyl_solutions": lambda k0: weyl_solutions(seq, k0, g, 0.5),
        "m_from_edge_condition": lambda k0: weyl.m_from_edge_condition(seq, k0, g, 0.5, 1),
        "schur_parity_formula": lambda k0: schur_parity_formula(seq, k0, g, 0.5, 11, 1),
        "M_minus_via_connection": lambda k0: weyl.M_minus_via_connection(seq, k0, g, 0.5),
        "m_function": lambda k0: weyl.m_function(seq, k0, g, 0.5, 1),
        "M_function": lambda k0: weyl.M_function(seq, k0, g, 0.0, -1),
        "decoupling_report": lambda k0: decoupling_report(seq, k0, g, g.conj().T),
        "seed_family": lambda k0: seed_family(g, 0.5, k0, 1),
        "connection": lambda k0: laurent.connection(g, g, seq.alpha(10), k0),
    }


@pytest.mark.parametrize("name", sorted(_cut_entries()))
def test_non_integer_cut_site_is_malformed_input(name):
    """k0 = 10.5 is MalformedInput at every entry that reads k0 (errors.require_cut, the
    operator.index check of errors.require_sites), not a bare TypeError or IndexError, or a
    value on a wrong branch; a numpy integer is the same site as the int."""
    call = _cut_entries()[name]
    with pytest.raises(MalformedInput, match="k0 must be an integer"):
        call(10.5)
    want, got = _arrays(call(10)), _arrays(call(np.int64(10)))
    assert len(want) == len(got) and all(np.array_equal(a, b) for a, b in zip(want, got))


def test_missing_cut_site_is_missing_cut():
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=20, seed=1))
    for sign in (1, -1):
        with pytest.raises(MissingCut, match="k0"):
            weyl.m_function(seq, None, np.eye(2), 0.5, sign)


@pytest.mark.parametrize("z", ["a", None, [0.5], object()])
def test_z_that_is_not_a_number_is_malformed_input(z):
    """require_off_circle, and through it every entry taking z, rejects a value that is not
    a number as MalformedInput, not a bare ValueError or TypeError."""
    for check in (require_off_circle, require_finite, require_nonzero):
        with pytest.raises(MalformedInput, match="z must be a complex number"):
            check(z)
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=20, seed=1))
    with pytest.raises(MalformedInput):
        greens.full_green_entries(seq, 10, np.eye(2), z, [(9, 12)])


def test_ensemble_spec_integers_are_typed():
    """m, the window ends and the seed of an EnsembleSpec are checked with operator.index
    (MalformedInput) and the seed must be at least 0 (OutOfRange), before any draw; a
    numpy integer is the same spec as the int."""
    base = {"m": 2, "k_min": 0, "k_max": 20, "seed": 1}
    for name, value in (("m", 2.5), ("seed", 1.5), ("seed", "7"), ("k_min", 0.0),
                        ("k_max", 20.0)):
        with pytest.raises(MalformedInput, match=f"{name} must be an integer"):
            EnsembleSpec(**{**base, name: value})
    for seed in (-1, np.int64(-3)):
        with pytest.raises(OutOfRange, match="seed must be at least 0"):
            EnsembleSpec(**{**base, "seed": seed})
    want = generate(EnsembleSpec(**base)).values
    got = generate(EnsembleSpec(**{**base, "m": np.int64(2), "seed": np.int64(1)})).values
    assert np.array_equal(got, want)


@pytest.mark.parametrize("helper", [is_contraction, is_unitary, operator_norm])
def test_contraction_and_norm_helpers_are_typed(helper):
    """The public matrix predicates take a finite square matrix: a NaN entry is NotFinite,
    a non-square shape or text is DimensionMismatch, not numpy's LinAlgError or
    ValueError, nor a verdict."""
    with pytest.raises(NotFinite):
        helper(np.array([[0.5, np.nan], [0.0, 0.1]]))
    for bad in (np.zeros((2, 3)), np.zeros(2), "abc", object()):
        with pytest.raises(DimensionMismatch):
            helper(bad)
