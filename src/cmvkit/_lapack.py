"""zgbtrf, zgbtrs, ztbtrs, zgees, zgeqrf, zungqr from SciPy's compiled scipy/linalg/_flapack,
loaded from its file so that scipy/linalg/__init__.py (SciPy's array-API layer, numpy.f2py,
numpy.testing, numpy.ma) never runs. They are the objects scipy.linalg.get_lapack_funcs(...,
dtype=complex) returns, whichever of the two is imported first."""

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec

import scipy     # light; sets up SciPy's shared libraries

_NAME = "scipy.linalg._flapack"
_paths = [os.path.join(scipy.__path__[0], "linalg", "_flapack" + s) for s in EXTENSION_SUFFIXES]
_path = next((p for p in _paths if os.path.isfile(p)), None)
if _path is None:
    raise ImportError(f"SciPy's compiled LAPACK module not found; searched {_paths}")
_loaded, _loader = _NAME in sys.modules, ExtensionFileLoader(_NAME, _path)
_flapack = _loader.create_module(ModuleSpec(_NAME, _loader, origin=_path))
_loader.exec_module(_flapack)
if not _loaded:     # creating the module registers it; leave that entry to scipy.linalg's import
    del sys.modules[_NAME]
zgbtrf, zgbtrs, ztbtrs, zgees = _flapack.zgbtrf, _flapack.zgbtrs, _flapack.ztbtrs, _flapack.zgees
zgeqrf, zungqr = _flapack.zgeqrf, _flapack.zungqr
