"""The LAPACK binding: a lean import, the same routine objects as scipy.linalg, the same root."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import cmvkit
from cmvkit import errors, weyl
from cmvkit.cli.ensembles import EnsembleSpec, generate, random_unitary
from cmvkit.coefficients import as_boundary, principal_unitary_sqrt
from cmvkit.errors import NotConverged, solve


def _python(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports cmvkit from this tree."""
    src = str(Path(cmvkit.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_leaves_scipy_linalg_out():
    """cmvkit and its command line start without scipy.linalg and what it pulls in."""
    out = _python("import sys, cmvkit, cmvkit.cli\n"
                  "print(sorted({'scipy.linalg', 'numpy.f2py', 'scipy.linalg._flapack'}"
                  " & set(sys.modules)))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("first", ["cmvkit", "scipy.linalg"])
def test_routines_are_scipy_linalg_s(first):
    """Whichever is imported first, every solve runs the objects scipy.linalg hands out."""
    then = "scipy.linalg" if first == "cmvkit" else "cmvkit"
    out = _python(f"import {first}, {then}\n"
                  "from cmvkit import _lapack, assembly, laurent\n"
                  "ours = (assembly._gbtrf, assembly._gbtrs, laurent._tbtrs, _lapack.zgees)\n"
                  "theirs = scipy.linalg.get_lapack_funcs(('gbtrf', 'gbtrs', 'tbtrs', 'gees'),"
                  " dtype=complex)\n"
                  "print([a is b for a, b in zip(ours, theirs)])")
    assert out.strip() == "[True, True, True, True]"


@pytest.mark.parametrize("first", ["cmvkit", "scipy.linalg"])
def test_dense_routines_are_scipy_linalg_s(first):
    """The m x m solve, eigenvalue and singular value routines are scipy.linalg's objects too."""
    then = "scipy.linalg" if first == "cmvkit" else "cmvkit"
    out = _python(f"import {first}, {then}\n"
                  "from cmvkit import errors, weyl\n"
                  "ours = (errors._zgesv, weyl._heevd, weyl._gesdd)\n"
                  "theirs = scipy.linalg.get_lapack_funcs(('gesv', 'heevd', 'gesdd'),"
                  " dtype=complex)\n"
                  "print([a is b for a, b in zip(ours, theirs)])")
    assert out.strip() == "[True, True, True]"


def _random(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_dense_routines_equal_numpy_linalg_bit_for_bit():
    """solve (left, right, a stack against one matrix, a stack against a stack, a broadcast),
    _herm_eigs and the singular values give numpy.linalg's values bit for bit, in numpy's
    memory layout, m = 1 .. 3."""
    rng = np.random.default_rng(31)
    for m in (1, 2, 3):
        for _ in range(200):
            A, B = _random(rng, m, m), _random(rng, m, m)
            S, T = _random(rng, 5, m, m), _random(rng, 5, m, m)
            St, Tt = S.swapaxes(1, 2), T.swapaxes(1, 2)
            cases = ((solve(A, B), np.linalg.solve(A, B)),
                     (solve(A, B, right=True), np.linalg.solve(B.T, A.T).T),
                     (solve(A, S), np.linalg.solve(A, S)),
                     (solve(S, A, right=True), np.linalg.solve(A.T, St).swapaxes(1, 2)),
                     (solve(S, T), np.linalg.solve(S, T)),
                     (solve(S, T, right=True), np.linalg.solve(Tt, St).swapaxes(1, 2)),
                     (solve(S[:, None], T[None, :2]), np.linalg.solve(S[:, None], T[None, :2])),
                     (weyl._herm_eigs(A), np.linalg.eigvalsh((A + A.conj().T) / 2.0)),
                     (weyl._herm_eigs(S), np.linalg.eigvalsh((S + S.conj().swapaxes(1, 2)) / 2.0)),
                     (weyl._svals(A), np.linalg.svd(A, compute_uv=False)))
            for got, want in cases:     # the layout too: a norm's ravel('K') follows it
                assert np.array_equal(got, want) and np.shape(got) == want.shape
                got = np.asarray(got)
                assert (got.flags.c_contiguous, got.flags.f_contiguous) == \
                    (want.flags.c_contiguous, want.flags.f_contiguous)
    real = rng.standard_normal((2, 2))
    assert solve(real, real).dtype == complex     # always complex128
    assert solve(np.eye(2), np.zeros((0, 2, 2))).shape == (0, 2, 2)


def test_solve_leaves_its_inputs_alone():
    rng = np.random.default_rng(32)
    for A, B in ((_random(rng, 3, 3), _random(rng, 3, 2)),
                 (_random(rng, 3, 3), _random(rng, 4, 3, 3)),
                 (_random(rng, 4, 3, 3), _random(rng, 4, 3, 3))):
        kept = A.copy(), B.copy()
        solve(A, B)
        solve(B.swapaxes(-1, -2), A, right=True)      # a view of B as the left factor
        assert np.array_equal(A, kept[0]) and np.array_equal(B, kept[1])


def test_failed_eigenvalue_or_singular_value_iteration_is_typed(monkeypatch):
    """An info != 0 from zheevd or zgesdd is NotConverged, a CmvError, not numpy's error."""
    a = np.eye(2, dtype=complex)
    monkeypatch.setattr(weyl, "_heevd", lambda h, *args: (np.zeros(2), None, 1))
    with pytest.raises(NotConverged, match="zheevd"):
        weyl._herm_eigs(a)
    monkeypatch.setattr(weyl, "_gesdd", lambda x, *args: (None, np.zeros(2), None, 2))
    with pytest.raises(NotConverged, match="zgesdd"):
        weyl._svals(a)
    assert issubclass(NotConverged, errors.CmvError)


@pytest.mark.parametrize("z", [0.5 * np.exp(0.3j), 0.99j, 1.01 * np.exp(2j), 2 - 1j, 0.0])
def test_spectral_sample_calls_no_numpy_linalg(count_calls, z):
    """Once gamma is rooted and the cut's bands and the defect inverses are kept, a sample
    makes no numpy.linalg call: its solves, eigenvalues and singular values are LAPACK's own,
    at z = 0 as at any other z."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=40, seed=33))
    g = as_boundary(random_unitary(np.random.default_rng(34), 2), 2)
    before = weyl.spectral_sample(seq, 20, g, z)
    names = [name for name in np.linalg.__all__ if callable(getattr(np.linalg, name))
             and not isinstance(getattr(np.linalg, name), type)]
    assert {"solve", "eigvalsh", "svd", "inv"} <= set(names)
    calls = [count_calls(np.linalg, name) for name in names]
    again = weyl.spectral_sample(seq, 20, g, z)
    assert not any(calls)
    assert all(np.array_equal(getattr(before, f), getattr(again, f))
               for f in ("m_plus", "M_minus", "Phi_minus"))


def test_missing_extension_is_an_import_error_naming_the_paths():
    """No file under any extension suffix: cmvkit fails to import, with no other route."""
    out = _python("import importlib.machinery as im\n"
                  "im.EXTENSION_SUFFIXES[:] = ['.missing.so']\n"
                  "try:\n    import cmvkit\n"
                  "except ImportError as e:\n    print(e)")
    assert "not found" in out and "_flapack.missing.so" in out


def _schur_root(g: np.ndarray) -> np.ndarray:
    t, q = scipy.linalg.schur(g, output="complex")
    return (q * np.exp(0.5j * np.angle(np.diag(t)))) @ q.conj().T


def test_root_equals_the_schur_reference():
    """Bit for bit the root scipy.linalg.schur gives, also where an eigenangle is pi."""
    rng = np.random.default_rng(15)
    cases = [random_unitary(rng, m) for m in (1, 2, 3, 4) for _ in range(300)]
    cases += [s * np.eye(m, dtype=complex) for m in (1, 2, 3) for s in (1, -1)]
    cases.append(np.diag([-1, 1j, np.exp(2j)]))
    for g in cases:
        assert np.array_equal(principal_unitary_sqrt(g), _schur_root(g))
