"""The symmetric tridiagonal eigensolver of the Lanczos CA, without SciPy.

``scipy.linalg.eigh_tridiagonal`` calls LAPACK ``dstevd`` in the OpenBLAS
that SciPy's wheel bundles (``scipy.libs/libscipy_openblas-*.so``). Importing
``scipy.linalg`` loads SciPy's array-API layer and ``numpy.f2py`` with it,
so :func:`eigh_tridiagonal` calls that same routine through ctypes, with the
arguments SciPy's wrapper passes, and gets the same bits. numpy's own
OpenBLAS is another build, whose eigenvectors differ in the last bits.
Where the bundled library is missing (a SciPy from conda or the system),
``scipy.linalg.eigh_tridiagonal`` runs instead.

``dstevd`` is the one routine here, and only the Lanczos path imports this
module: the bracket that decides most Lanczos steps without a solve is the
compiled ``eigenvalue_bracket`` (see ``lsa.eigenvalue_bracket``).
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
from pathlib import Path

import numpy as np


@functools.cache
def _bundled() -> ctypes.CDLL | None:
    """SciPy's bundled OpenBLAS with ``dstevd`` declared, or None where there
    is none.

    ``find_spec`` locates the package without running its ``__init__``.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    libs = Path(next(iter(spec.submodule_search_locations))).parent / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas-*.so")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        if hasattr(lib, "scipy_dstevd_"):
            break
    else:
        return None
    # every argument by reference (LP64 integers), then the hidden length
    # of JOBZ: JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO
    lib.scipy_dstevd_.argtypes = [ctypes.c_char_p, *[ctypes.c_void_p] * 10, ctypes.c_size_t]
    lib.scipy_dstevd_.restype = None
    return lib


def solver() -> str:
    """The name of the solver :func:`eigh_tridiagonal` runs in this process."""
    if _bundled() is None:
        return "scipy.linalg.eigh_tridiagonal"
    return "lapack dstevd (scipy-openblas)"


def _checked(d, e) -> tuple[np.ndarray, np.ndarray]:
    """float64 copies of ``d`` and ``e``, which LAPACK may overwrite; raises
    ValueError on the inputs SciPy's wrapper refuses."""
    d = np.array(d, dtype=np.float64)
    e = np.array(e, dtype=np.float64)
    n = d.size
    if d.ndim != 1 or e.shape != (n - 1,) or n == 0:
        raise ValueError(f"need n >= 1 diagonal and n - 1 off-diagonal entries, "
                         f"got shapes {d.shape} and {e.shape}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    return d, e


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray, eigvals_only: bool = False):
    """Eigenvalues (ascending) and, unless ``eigvals_only``, eigenvectors
    (the columns of a Fortran-ordered array) of the symmetric tridiagonal
    matrix with diagonal ``d`` and off-diagonal ``e``: the bits of
    ``scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=eigvals_only)``.
    """
    lib = _bundled()
    if lib is None:
        import scipy.linalg

        return scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=eigvals_only)
    # LAPACK overwrites w with the eigenvalues
    w, e = _checked(d, e)
    n = w.size
    off = np.zeros(max(n - 1, 1))
    off[: n - 1] = e
    # the workspace sizes of SciPy's wrapper
    ldz, lwork, liwork = (1, 1, 1) if eigvals_only else (n, 1 + 4 * n + n * n, 3 + 5 * n)
    z = np.zeros((ldz, 1 if eigvals_only else n), order="F")
    work = np.empty(lwork)
    iwork = np.empty(liwork, dtype=np.intc)
    ints = [ctypes.c_int(v) for v in (n, ldz, lwork, liwork, 0)]
    n_p, ldz_p, lwork_p, liwork_p, info_p = map(ctypes.byref, ints)
    lib.scipy_dstevd_(b"N" if eigvals_only else b"V", n_p, w.ctypes.data,
                      off.ctypes.data, z.ctypes.data, ldz_p, work.ctypes.data, lwork_p,
                      iwork.ctypes.data, liwork_p, info_p, 1)
    info = ints[-1].value
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed (LAPACK info={info})")
    return w if eigvals_only else (w, z)
