"""The symmetric tridiagonal eigensolver of the Lanczos CA, without SciPy.

``scipy.linalg.eigh_tridiagonal`` calls LAPACK ``dstevd`` in the OpenBLAS
that SciPy's wheel bundles (``scipy.libs/libscipy_openblas-*.so``). Importing
``scipy.linalg`` loads SciPy's array-API layer and ``numpy.f2py`` with it,
so :func:`eigh_tridiagonal` calls that same routine through ctypes, with the
arguments SciPy's wrapper passes, and gets the same bits. numpy's own
OpenBLAS is another build, whose eigenvectors differ in the last bits.
Where the bundled library is missing (a SciPy from conda or the system),
``scipy.linalg.eigh_tridiagonal`` runs instead.

:func:`eigenvalue_interval` brackets one eigenvalue by Sturm-sequence
bisection (Kahan 1966), LAPACK ``dstebz`` from the same library, in a
fraction of the time ``dstevd`` takes to find them all. It has no fallback:
without the library it returns None, and the caller solves exactly.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
from pathlib import Path

import numpy as np

# eigenvalue_interval widens dstebz's value by BISECTION_TOL + ROUNDING_SLACK
# times the matrix's 1-norm. Bisection stops once the eigenvalue lies in an
# interval of width BISECTION_TOL * norm (or 2 ulp of the eigenvalue, far
# less), and returns its midpoint. The slack, about 4500 ulp of the norm,
# covers the rounding of dstebz's Sturm counts and of dstevd's eigenvalues,
# each of them exact for a matrix a small multiple of ulp * norm away
BISECTION_TOL = 1e-13
ROUNDING_SLACK = 1e-12


@functools.cache
def _bundled() -> ctypes.CDLL | None:
    """SciPy's bundled OpenBLAS with ``dstevd`` and ``dstebz`` declared, or
    None where there is none.

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
        if hasattr(lib, "scipy_dstevd_") and hasattr(lib, "scipy_dstebz_"):
            break
    else:
        return None
    # every argument by reference (LP64 integers), then the hidden lengths
    # of the character arguments. dstevd: JOBZ, N, D, E, Z, LDZ, WORK,
    # LWORK, IWORK, LIWORK, INFO. dstebz: RANGE, ORDER, N, VL, VU, IL, IU,
    # ABSTOL, D, E, M, NSPLIT, W, IBLOCK, ISPLIT, WORK, IWORK, INFO
    char, ptr, size = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
    lib.scipy_dstevd_.argtypes = [char, *[ptr] * 10, size]
    lib.scipy_dstevd_.restype = None
    lib.scipy_dstebz_.argtypes = [char, char, *[ptr] * 16, size, size]
    lib.scipy_dstebz_.restype = None
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


def eigenvalue_interval(d: np.ndarray, e: np.ndarray, index: int) -> tuple[float, float] | None:
    """An interval that holds the ``index``-th smallest eigenvalue (from 0)
    of the symmetric tridiagonal matrix with diagonal ``d`` and off-diagonal
    ``e``, and the one :func:`eigh_tridiagonal` computes at that index.

    Bisection (``dstebz`` with RANGE='I') finds the eigenvalue; the interval
    is its value widened by (BISECTION_TOL + ROUNDING_SLACK) * ||T||_1.
    Returns None where no bundled library loads or ``dstebz`` reports a
    failure: the caller then solves exactly.
    """
    lib = _bundled()
    if lib is None:
        return None
    d, e = _checked(d, e)
    n = d.size
    if not 0 <= index < n:
        raise ValueError(f"index {index} out of range for a {n}x{n} matrix")
    col = np.abs(d)  # column sums of |T|
    col[1:] += np.abs(e)
    col[:-1] += np.abs(e)
    norm = float(col.max())
    off = np.zeros(max(n - 1, 1))
    off[: n - 1] = e
    w = np.empty(n)
    iwork = np.empty(5 * n, dtype=np.intc)  # IBLOCK, ISPLIT, IWORK
    work = np.empty(4 * n)
    ints = [ctypes.c_int(v) for v in (n, index + 1, index + 1, 0, 0, 0)]
    n_p, il_p, iu_p, m_p, nsplit_p, info_p = map(ctypes.byref, ints)
    doubles = [ctypes.c_double(v) for v in (0.0, 0.0, BISECTION_TOL * norm)]
    vl_p, vu_p, abstol_p = map(ctypes.byref, doubles)
    base = iwork.ctypes.data
    size = iwork.itemsize
    lib.scipy_dstebz_(b"I", b"E", n_p, vl_p, vu_p, il_p, iu_p, abstol_p, d.ctypes.data,
                      off.ctypes.data, m_p, nsplit_p, w.ctypes.data, base, base + n * size,
                      work.ctypes.data, base + 2 * n * size, info_p, 1, 1)
    if ints[-1].value != 0 or ints[3].value != 1:
        return None
    slack = (BISECTION_TOL + ROUNDING_SLACK) * norm
    return float(w[0]) - slack, float(w[0]) + slack
