"""The three routines a run once took from SciPy, against SciPy itself.

``lda.gammaln``, ``eda.f2_survival`` and ``_lapack.eigh_tridiagonal``
replace ``scipy.special.gammaln``, ``scipy.special.fdtrc(2, d, f)`` and
``scipy.linalg.eigh_tridiagonal``, and the pinned output bytes rest on their
being bit-equal to them. The compiled ``lsa.eigenvalue_bracket`` decides
most Lanczos steps without a solve, so it must hold the eigenvalue that
``eigh_tridiagonal`` computes. SciPy stays the reference here.
"""

import numpy as np
import pytest

special = pytest.importorskip("scipy.special")
linalg = pytest.importorskip("scipy.linalg")

from conftest import needs_compiler  # noqa: E402
from corpus_scope import _lapack  # noqa: E402
from corpus_scope.eda import f2_survival  # noqa: E402
from corpus_scope.lda import _gammaln_each, gammaln  # noqa: E402
from corpus_scope.lsa import eigenvalue_bracket  # noqa: E402


def assert_same_bits(got, expected):
    got, expected = np.asarray(got, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    assert got.shape == expected.shape
    same = (got.view(np.int64) == expected.view(np.int64)) | (np.isnan(got) & np.isnan(expected))
    bad = np.flatnonzero(~same.ravel())
    assert bad.size == 0, (f"{bad.size} of {same.size} differ, first at "
                           f"{got.ravel()[bad[0]]!r} vs {expected.ravel()[bad[0]]!r}")


def gammaln_inputs():
    rng = np.random.default_rng(41)
    cases = {
        "shifted-counts": np.concatenate(
            [np.arange(20_000) + beta for beta in (0.01, 0.1, 0.37, 0.5, 1.0, 2.5)]),
        "recurrence-below-13": rng.uniform(1e-6, 13.0, 50_000),
        "stirling-with-A-below-1000": rng.uniform(13.0, 1000.0, 30_000),
        "stirling-3-terms-below-1e8": rng.uniform(1000.0, 1e8, 30_000),
        "stirling-alone-above-1e8": 10.0 ** rng.uniform(8.0, 300.0, 10_000),
        "log-uniform": 10.0 ** rng.uniform(-8.0, 12.0, 50_000),
        "branch-edges": np.array([
            5e-324, 1e-300, 1.0, 2.0, 3.0, np.nextafter(13.0, 0.0), 13.0, 999.9999999,
            1000.0, 1e8, np.nextafter(1e8, np.inf), 2.556348e305, 1e306, np.inf, np.nan]),
    }
    return [pytest.param(x, id=name) for name, x in cases.items()]


@pytest.mark.parametrize("x", gammaln_inputs())
def test_gammaln_is_scipys_bit_for_bit(x):
    assert_same_bits(_gammaln_each(x), special.gammaln(x))


def test_gammaln_refuses_what_no_caller_passes():
    for x in (0.0, -0.0, -1.5, -np.inf):
        with pytest.raises(ValueError, match="x > 0"):
            gammaln(x)


def test_f2_survival_is_fdtrc_bit_for_bit():
    f = np.concatenate([10.0 ** np.linspace(-8.0, 6.0, 800),
                        [0.0, np.inf, -1.0, -np.inf, np.nan, 1e300, 5e-324]])
    for d in range(1, 400):
        grid = np.append(f, d / 2.0)  # 2f == d, where y is formed the other way
        got = [f2_survival(d, v) for v in grid.tolist()]
        assert_same_bits(got, special.fdtrc(2, d, grid))


def tridiagonals():
    rng = np.random.default_rng(43)
    for n in range(1, 401):
        d = rng.standard_normal(n) * (1.0 if n % 3 else 50.0)
        e = rng.standard_normal(n - 1)
        if n % 4 == 0:
            e[rng.integers(0, n - 1, size=1 + n // 10)] = 0.0  # Lanczos restarts
        yield n, d, e


def test_dstevd_is_eigh_tridiagonal_bit_for_bit():
    if _lapack._bundled() is None:
        pytest.skip("this SciPy bundles no OpenBLAS; eigh_tridiagonal runs itself")
    for n, d, e in tridiagonals():
        w, v = _lapack.eigh_tridiagonal(d, e)
        w_ref, v_ref = linalg.eigh_tridiagonal(d, e)
        assert w.tobytes() == w_ref.tobytes(), n
        assert v.tobytes() == v_ref.tobytes() and v.strides == v_ref.strides, n
        only = _lapack.eigh_tridiagonal(d, e, eigvals_only=True)
        assert only.tobytes() == linalg.eigh_tridiagonal(d, e, eigvals_only=True).tobytes(), n


def test_dstevd_keeps_the_wrappers_checks():
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lapack.eigh_tridiagonal([1.0, np.nan], [0.5])
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lapack.eigh_tridiagonal([1.0, 2.0], [np.inf])
    with pytest.raises(ValueError, match="off-diagonal"):
        _lapack.eigh_tridiagonal([1.0, 2.0], [0.5, 0.5])


def bisection_cases():
    """Tridiagonals where bisection is hardest to bound: off-diagonals that
    are zero or tiny (the matrix splits), clustered and repeated spectra, and
    scales far from 1."""
    rng = np.random.default_rng(47)
    for n in range(1, 121):
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        kind = n % 6
        if kind == 1:
            e[rng.random(n - 1) < 0.3] = 0.0
        elif kind == 2:
            e *= 10.0 ** rng.uniform(-300, -8, n - 1)
        elif kind == 3:  # a cluster of nearly equal values, loosely coupled
            d = 1.0 + 1e-13 * rng.standard_normal(n)
            e *= 1e-14
        elif kind == 4:  # repeated values: identical decoupled blocks
            d = np.tile([2.0, -1.0, 0.5], n)[:n]
            e = np.tile([0.3, 0.7, 0.0], n)[: n - 1]
        elif kind == 5:
            d, e = d * 10.0 ** rng.uniform(-10, 10), e * 10.0 ** rng.uniform(-10, 10)
        yield n, d, e


@needs_compiler
def test_eigenvalue_bracket_holds_the_eigenvalue_both_solvers_compute():
    for n, d, e in bisection_cases():
        every = linalg.eigh_tridiagonal(d, e, eigvals_only=True)
        for index in sorted({0, n // 3, n // 2, n - 1}):
            lo, hi = eigenvalue_bracket(d, e, index)
            one = linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                          select_range=(index, index))
            assert lo <= one[0] <= hi, (n, index)
            assert lo <= every[index] <= hi, (n, index)


def test_eigenvalue_bracket_checks_its_index():
    with pytest.raises(ValueError, match="index 2"):
        eigenvalue_bracket([1.0, 2.0], [0.5], 2)
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigenvalue_bracket([1.0, np.nan], [0.5], 0)
