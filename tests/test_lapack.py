"""The LAPACK binding: a lean import, the same routine objects as scipy.linalg, the same root."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import cmvkit
from cmvkit.cli.ensembles import random_unitary
from cmvkit.coefficients import principal_unitary_sqrt


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
