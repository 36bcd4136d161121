"""One error family: every failure cmvkit reports is a CmvError defined in errors.py."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import cmvkit
from cmvkit.assembly import resolvent_blocks
from cmvkit.coefficients import as_boundary
from cmvkit.errors import (
    CmvError,
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
from cmvkit.cli.ensembles import EnsembleSpec, generate
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
