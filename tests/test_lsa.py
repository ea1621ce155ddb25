import dataclasses
import hashlib
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import (
    BACKENDS,
    make_dtm,
    native_and_python,
    needs_compiler,
    planted_topics,
    use_backend,
)
from corpus_scope import lsa
from corpus_scope.errors import ConfigError, CorpusScopeError
from corpus_scope.lda import LdaConfig, fit_lda
from corpus_scope.lsa import (
    DENSE_CUTOFF,
    LANCZOS_BLOCK,
    fit_ca,
    project_supplementary,
    representative_documents,
    total_inertia,
)
from corpus_scope.text_pipeline import CSRCounts, build_dtm, build_vocabulary


def dense_ca_oracle(X, dims):
    """Reference decomposition straight from the definition: build the
    standardized residual matrix densely and hand it to LAPACK."""
    X = np.asarray(X, dtype=np.float64)
    n = X.sum()
    P = X / n
    a = P.sum(axis=1)
    b = P.sum(axis=0)
    S = (P - np.outer(a, b)) / np.sqrt(np.outer(a, b))
    U, s, Vt = np.linalg.svd(S, full_matrices=False)
    F = U[:, :dims] * s[:dims] / np.sqrt(a)[:, None]
    G = Vt[:dims].T * s[:dims] / np.sqrt(b)[:, None]
    return s, F, G, a, b


def chi2_over_n(X):
    X = np.asarray(X, dtype=np.float64)
    n = X.sum()
    expected = np.outer(X.sum(axis=1), X.sum(axis=0)) / n
    return float(((X - expected) ** 2 / expected).sum() / n)


def align_to(model_coords, oracle_coords):
    """Flip oracle axis signs to match the model before comparing."""
    out = oracle_coords.copy()
    for k in range(out.shape[1]):
        if np.dot(model_coords[:, k], out[:, k]) < 0:
            out[:, k] *= -1
    return out


def random_count_matrix(rng, max_rows=12, max_cols=10, high=6, min_side=2):
    while True:
        shape = (int(rng.integers(min_side, max_rows + 1)),
                 int(rng.integers(min_side, max_cols + 1)))
        X = rng.integers(0, high, size=shape)
        if X.sum() and (X.sum(axis=1) > 0).all() and (X.sum(axis=0) > 0).all():
            return X


# ---------------------------------------------------------------- hand checks


def test_perfect_association_two_by_two():
    dtm = make_dtm([[2, 0], [0, 2]])
    model = fit_ca(dtm, dims=1)
    assert abs(model.singular_values[0] - 1.0) < 1e-12
    assert abs(model.total_inertia - 1.0) < 1e-12
    assert abs(total_inertia(dtm) - 1.0) < 1e-12
    assert model.explained_inertia()[0] == pytest.approx(1.0)


def test_independence_table_has_zero_inertia():
    dtm = make_dtm([[1, 1], [1, 1]])
    assert abs(total_inertia(dtm)) < 1e-15
    model = fit_ca(dtm, dims=1)
    assert abs(model.singular_values[0]) < 1e-12
    # with no association every point collapses onto the origin
    assert np.abs(model.row_coords).max() < 1e-12


def test_inertia_equals_chi_square_over_n():
    rng = np.random.default_rng(11)
    for _ in range(30):
        X = random_count_matrix(rng)
        assert total_inertia(make_dtm(X)) == pytest.approx(chi2_over_n(X), rel=1e-10)


def test_inertia_rejects_degenerate_margins():
    with pytest.raises(ConfigError, match="empty matrix has no inertia"):
        total_inertia(make_dtm([[0, 0], [0, 0]]))
    with pytest.raises(ConfigError, match="zero row or column margin"):
        total_inertia(make_dtm([[1, 0], [1, 0]]))  # zero column


# ---------------------------------------------------------------- dense path


def test_dense_solver_matches_oracle_coordinates():
    rng = np.random.default_rng(23)
    for _ in range(25):
        X = random_count_matrix(rng, max_rows=6, max_cols=5)
        dims = min(X.shape) - 1
        model = fit_ca(make_dtm(X), dims=dims, solver="dense")
        s, F, G, a, b = dense_ca_oracle(X, dims)
        keep = s[:dims] > 1e-8  # sign/direction of null axes is arbitrary
        assert np.allclose(model.singular_values, s[:dims], atol=1e-12)
        assert np.allclose(model.row_masses, a, atol=1e-15)
        assert np.allclose(model.col_masses, b, atol=1e-15)
        F_al = align_to(model.row_coords, F)
        G_al = align_to(model.col_coords, G)
        assert np.allclose(model.row_coords[:, keep], F_al[:, keep], atol=1e-10)
        assert np.allclose(model.col_coords[:, keep], G_al[:, keep], atol=1e-10)


def test_full_rank_singular_values_recover_total_inertia():
    rng = np.random.default_rng(37)
    for _ in range(10):
        X = random_count_matrix(rng, max_rows=7, max_cols=5)
        model = fit_ca(make_dtm(X), dims=min(X.shape) - 1)
        assert float((model.singular_values**2).sum()) == pytest.approx(
            model.total_inertia, rel=1e-9, abs=1e-12
        )


def test_standard_and_principal_coordinates_are_consistent():
    rng = np.random.default_rng(41)
    X = random_count_matrix(rng, max_rows=8, max_cols=6)
    model = fit_ca(make_dtm(X), dims=2)
    for k in range(model.dims):
        s = model.singular_values[k]
        assert np.allclose(model.row_coords[:, k], model.row_std_coords[:, k] * s, atol=1e-12)
        assert np.allclose(model.col_coords[:, k], model.col_std_coords[:, k] * s, atol=1e-12)


def test_transition_formula_links_row_and_column_coordinates():
    # row principal coords are the mass-weighted barycenters of column
    # standard coords: F = D_a^{-1} P G Sigma^{-1} on the retained axes
    rng = np.random.default_rng(53)
    for _ in range(10):
        X = random_count_matrix(rng, max_rows=8, max_cols=6, min_side=3)
        model = fit_ca(make_dtm(X), dims=2)
        if (model.singular_values < 1e-8).any():
            continue
        P = np.asarray(X, dtype=float) / X.sum()
        lhs = model.row_coords
        rhs = (P / model.row_masses[:, None]) @ model.col_std_coords
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_row_weighted_coordinates_are_centered():
    rng = np.random.default_rng(59)
    X = random_count_matrix(rng, min_side=3)
    model = fit_ca(make_dtm(X), dims=2)
    assert np.allclose(model.row_masses @ model.row_coords, 0.0, atol=1e-12)
    assert np.allclose(model.col_masses @ model.col_coords, 0.0, atol=1e-12)


def test_scale_invariance():
    X = np.array([[3, 1, 0], [0, 2, 4], [2, 2, 1]])
    m1 = fit_ca(make_dtm(X), dims=2)
    m2 = fit_ca(make_dtm(5 * X), dims=2)
    assert np.allclose(m1.singular_values, m2.singular_values, atol=1e-12)
    assert np.allclose(m1.row_coords, m2.row_coords, atol=1e-12)
    assert m1.total_inertia == pytest.approx(m2.total_inertia, abs=1e-12)


def test_sign_convention_largest_loading_positive():
    rng = np.random.default_rng(61)
    for _ in range(15):
        X = random_count_matrix(rng, min_side=3)
        model = fit_ca(make_dtm(X), dims=2)
        for k in range(model.dims):
            if model.singular_values[k] < 1e-10:
                continue
            u = np.sqrt(model.row_masses) * model.row_std_coords[:, k]
            assert u[int(np.argmax(np.abs(u)))] > 0


def test_row_permutation_equivariance():
    rng = np.random.default_rng(67)
    X = random_count_matrix(rng, max_rows=9, max_cols=6)
    ids = [f"doc{i}" for i in range(X.shape[0])]
    base = fit_ca(make_dtm(X, doc_ids=ids), dims=2)
    perm = rng.permutation(X.shape[0])
    other = fit_ca(make_dtm(X[perm], doc_ids=[ids[i] for i in perm]), dims=2)
    assert np.allclose(base.singular_values, other.singular_values, atol=1e-10)
    lookup = {rid: other.row_coords[i] for i, rid in enumerate(other.row_ids)}
    for i, rid in enumerate(base.row_ids):
        assert np.allclose(base.row_coords[i], lookup[rid], atol=1e-9)


# ---------------------------------------------------------------- lanczos


def test_lanczos_agrees_with_dense_solver():
    rng = np.random.default_rng(71)
    for _ in range(40):
        X = random_count_matrix(rng)
        dims = min(2, min(X.shape) - 1)
        dtm = make_dtm(X)
        lz = fit_ca(dtm, dims=dims, solver="lanczos")
        dn = fit_ca(dtm, dims=dims, solver="dense")
        assert lz.solver == "lanczos" and dn.solver == "dense"
        assert np.allclose(lz.singular_values, dn.singular_values, atol=1e-9)
        keep = dn.singular_values > 1e-7
        assert np.allclose(lz.row_coords[:, keep],
                           align_to(lz.row_coords, dn.row_coords)[:, keep], atol=1e-8)
        assert np.allclose(lz.col_coords[:, keep],
                           align_to(lz.col_coords, dn.col_coords)[:, keep], atol=1e-8)


def test_lanczos_handles_both_orientations():
    rng = np.random.default_rng(73)
    tall = random_count_matrix(rng, max_rows=12, max_cols=5)
    wide = tall.T
    for X in (tall, wide):
        lz = fit_ca(make_dtm(X), dims=2, solver="lanczos")
        s = dense_ca_oracle(X, 2)[0]
        assert np.allclose(lz.singular_values, s[:2], atol=1e-9)


def test_lanczos_is_deterministic():
    X = random_count_matrix(np.random.default_rng(79), min_side=3)
    a = fit_ca(make_dtm(X), dims=2, solver="lanczos")
    b = fit_ca(make_dtm(X), dims=2, solver="lanczos")
    assert np.array_equal(a.row_coords, b.row_coords)
    assert np.array_equal(a.singular_values, b.singular_values)
    assert a.iterations == b.iterations > 0


def test_lanczos_basis_growth_keeps_the_pinned_bytes():
    # SHA-256 taken from the solver that allocated the whole dim x limit
    # basis up front; growing it block by block must not change one bit
    rng = np.random.default_rng(5)
    X = rng.poisson(rng.gamma(0.3, 1.0, size=(400, 600)))
    model = fit_ca(make_dtm(X), dims=30, solver="lanczos")
    assert model.iterations > 2 * LANCZOS_BLOCK  # grew at least twice
    arrays = (model.singular_values, model.row_coords, model.col_coords)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    assert digest == "8000eb68d29e4e20708be14b2750cea2d74c2e560ef57380a33b7635f1e29b37"


def disjoint_blocks(rng, groups, rows, cols):
    """A table of ``groups`` unlinked blocks of ``rows`` x ``cols`` counts in
    1..5: its singular value 1 comes once per group but the first."""
    X = np.zeros((groups * rows, groups * cols), dtype=np.int64)
    for g in range(groups):
        X[g * rows:(g + 1) * rows, g * cols:(g + 1) * cols] = rng.integers(1, 6, (rows, cols))
    return X


def three_profile_table():
    """100 x 80, every row a multiple of one of 3 profiles: connected, but S
    has rank 2, so the Krylov space closes after 3 steps."""
    profiles = np.random.default_rng(5).integers(1, 10, size=(3, 80))
    return profiles[np.arange(100) % 3] * (1 + np.arange(100) % 4)[:, None]


# from one start vector Lanczos sees each eigenvalue once: it settles on
# [1, 1, 1, 0.344, 0.319] for the first table and on [1, 0.462, 0.392] for the
# second, where the dense SVD gives all ones, and on the third its Krylov
# space closes before 5 values settle
UNSETTLED_TABLES = {
    "14 disjoint 8x5 blocks, auto": (disjoint_blocks(np.random.default_rng(3), 14, 8, 5),
                                     5, "auto"),
    "4 disjoint 3x3 blocks stacked twice": (
        np.vstack([disjoint_blocks(np.random.default_rng(1), 4, 3, 3)] * 2), 3, "lanczos"),
    "3 row profiles, rank 2": (three_profile_table(), 5, "lanczos"),
}


@pytest.mark.parametrize("name", UNSETTLED_TABLES)
def test_tables_lanczos_cannot_settle_go_to_the_dense_svd(name, caplog):
    X, dims, solver = UNSETTLED_TABLES[name]
    dtm = make_dtm(X)
    with caplog.at_level(logging.WARNING, logger="corpus_scope.lsa"):
        model = fit_ca(dtm, dims=dims, solver=solver)
    dense = fit_ca(dtm, dims=dims, solver="dense")
    assert model.solver == "dense" and model.iterations == 0
    for field in ("singular_values", "row_coords", "col_coords", "row_std_coords",
                  "col_std_coords"):
        assert getattr(model, field).tobytes() == getattr(dense, field).tobytes(), field
    assert len(caplog.records) == 1
    assert "dense SVD" in caplog.records[0].getMessage()


def test_lanczos_keeps_a_disconnected_table_whose_whole_space_it_saw():
    X = disjoint_blocks(np.random.default_rng(2), 2, 3, 2)
    model = fit_ca(make_dtm(X), dims=2, solver="lanczos")
    assert model.solver == "lanczos" and model.iterations == 4
    assert np.allclose(model.singular_values, dense_ca_oracle(X, 2)[0][:2], atol=1e-12)
    assert abs(model.singular_values[0] - 1.0) < 1e-12


def connected_table(rng, n_rows, n_cols):
    """Gamma-Poisson counts plus a staircase of ones that links every row and
    column into one group."""
    X = rng.poisson(rng.gamma(0.5, 1.0, size=(n_rows, n_cols)))
    j = np.arange(max(n_rows, n_cols))
    X[j % n_rows, j % n_cols] += 1
    X[j % n_rows, (j + 1) % n_cols] += 1
    return X


def lanczos_fits(dtm, dims):
    """What ``_lanczos_topk`` returns inside ``fit_ca(dtm, dims)``, first with
    the compiled bisection bounds and then without them."""
    fits = []
    real = lsa._lanczos_topk

    def spy(*args, **kwargs):
        fits.append(real(*args, **kwargs))
        return fits[-1]

    with mock.patch.object(lsa, "_lanczos_topk", spy):
        fit_ca(dtm, dims=dims, solver="lanczos")
        with mock.patch.object(lsa, "eigenvalue_bracket", lambda *args: None):
            fit_ca(dtm, dims=dims, solver="lanczos")
    return fits


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n_rows=st.integers(DENSE_CUTOFF + 1, 110),
       n_cols=st.integers(DENSE_CUTOFF + 1, 110),
       dims=st.integers(1, 20))
def test_bisection_bounds_keep_the_stopping_step_and_the_bits(seed, n_rows, n_cols, dims):
    X = connected_table(np.random.default_rng(seed), n_rows, n_cols)
    bounded, solved = lanczos_fits(make_dtm(X), dims)
    assert bounded.steps == solved.steps
    assert bounded.values.tobytes() == solved.values.tobytes()
    assert bounded.vectors.tobytes() == solved.vectors.tobytes()
    # without bounds each step from dims on solves once, and the final solve
    # adds one; with them, each step is decided by a bound or by solving
    assert solved.bounded == 0 and solved.solves == solved.steps - dims + 2
    assert bounded.bounded + bounded.solves - 1 >= bounded.steps - dims
    assert bounded.solves <= solved.solves


def test_ritz_residual_is_the_largest_residual_against_the_dense_gram_matrix():
    # the fit reads the residual off T_m, as |beta_m * s_i[m - 1]|; the pairs
    # it returns must leave that residual against the Gram matrix itself
    X = connected_table(np.random.default_rng(7), 90, 120)
    fit, _ = lanczos_fits(make_dtm(X), 6)
    model = fit_ca(make_dtm(X), dims=6, solver="lanczos")
    assert model.solver == "lanczos" and fit.steps < 90
    assert model.ritz_residual == fit.residual
    P = X / X.sum()
    a, b = P.sum(axis=1), P.sum(axis=0)
    S = (P - np.outer(a, b)) / np.sqrt(np.outer(a, b))
    G = S @ S.T  # the smaller side's, the rows'
    residuals = np.linalg.norm(G @ fit.vectors - fit.vectors * fit.values, axis=0)
    assert float(residuals.max() / fit.values[0]) == pytest.approx(fit.residual, rel=1e-8)
    assert 1e-12 < fit.residual < 1e-4
    assert fit_ca(make_dtm(X), dims=6, solver="dense").ritz_residual == 0.0


def test_lanczos_step_limit_raises_convergence_error():
    spectrum = np.linspace(1.0, 2.0, 50)
    with pytest.raises(CorpusScopeError, match="Lanczos did not stabilize .* after 4 iterations"):
        lsa._lanczos_topk(lambda x: spectrum * x, 50, 3, max_iter=4)


def as_counts(matrix) -> CSRCounts:
    """A canonical scipy CSR matrix as the package's CSR type."""
    return CSRCounts(matrix.indptr.astype(np.int32), matrix.indices.astype(np.int32),
                     matrix.data.astype(np.int64), matrix.shape)


def test_scaled_counts_and_transpose_products_match_scipy_bit_for_bit():
    # fit_ca scales X's data by 1/n on X's own index arrays, and its products
    # with P and P.T must give the bits of scipy's X / n and of its CSR
    # transpose, from which the pinned CA bytes were first taken
    rng = np.random.default_rng(11)
    for shape in [(7, 5), (40, 90), (300, 120)]:
        X = sparse.csr_matrix(rng.poisson(rng.gamma(0.4, 1.0, size=shape)).astype(np.int64))
        n = float(X.sum())
        values = X.data * (1.0 / n)
        assert values.tobytes() == (X / n).data.tobytes()
        P = X / n
        p_dot, pt_dot = lsa.csr_products(as_counts(X), values)
        for _ in range(3):
            x, y = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
            assert p_dot(x).tobytes() == (P @ x).tobytes()
            assert pt_dot(y).tobytes() == (P.T.tocsr() @ y).tobytes()


def product_tables(rng):
    """Count tables for the product tests: empty rows and columns, one row,
    one column, all zeros, and random shapes."""
    yield np.zeros((3, 4), dtype=np.int64)
    yield np.array([[0, 3, 0, 1, 0]])
    yield np.array([[2], [0], [5]])
    yield np.array([[0, 0, 0], [1, 0, 2], [0, 0, 0], [0, 0, 4]])
    for _ in range(12):
        shape = tuple(int(v) for v in rng.integers(1, 60, size=2))
        X = rng.poisson(rng.gamma(0.3, 1.0, size=shape))
        X[rng.random(shape[0]) < 0.2] = 0
        X[:, rng.random(shape[1]) < 0.2] = 0
        yield X


@needs_compiler
def test_csr_products_match_their_twins_and_scipy_bit_for_bit():
    rng = np.random.default_rng(19)
    for X in product_tables(rng):
        P = sparse.csr_matrix(X.astype(np.int64)) / max(1.0, float(X.sum()))
        counts = make_dtm(X).csr
        x = rng.standard_normal(X.shape[1])
        y = rng.standard_normal(X.shape[0])

        def products():
            p_dot, pt_dot = lsa.csr_products(counts, P.data)
            return p_dot(x), pt_dot(y)

        native, python = native_and_python(products)
        expected = (P @ x, P.T @ y)
        for got in (native, python):
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), X.shape


@needs_compiler
def test_lanczos_fit_is_byte_equal_under_both_backends():
    rng = np.random.default_rng(23)
    X = rng.poisson(rng.gamma(0.3, 1.0, size=(150, 260)))
    X[::9] = 0
    X[:, ::13] = 0
    dtm = make_dtm(X)
    native, python = native_and_python(lambda: fit_ca(dtm, dims=6, solver="lanczos"))
    assert native.iterations == python.iterations > 6
    for name in ("singular_values", "row_coords", "col_coords", "row_std_coords",
                 "col_std_coords", "row_masses", "col_masses"):
        assert getattr(native, name).tobytes() == getattr(python, name).tobytes(), name
    assert native.total_inertia == python.total_inertia


_I32 = np.int32
CSR_FAULTS = {
    "column past the end": dict(indices=np.array([0, 3, 1], _I32)),
    "negative column": dict(indices=np.array([0, -1, 1], _I32)),
    "indptr descends": dict(indptr=np.array([0, 2, 1], _I32)),
    "indptr past the entries": dict(indptr=np.array([0, 2, 4], _I32)),
    "indptr not from 0": dict(indptr=np.array([1, 2, 3], _I32)),
    "columns not ascending": dict(indices=np.array([2, 0, 1], _I32)),
    "duplicate column": dict(indices=np.array([0, 0, 1], _I32)),
    "int64 indices": dict(indices=np.array([0, 2, 1], np.int64)),
    "float data": dict(data=np.array([1.0, 2.0, 3.0])),
}


@pytest.mark.parametrize("fault", CSR_FAULTS)
def test_a_malformed_csr_raises_before_any_kernel_runs(fault):
    # the type refuses the arrays, so no product kernel is ever handed them
    good = make_dtm([[1, 0, 2], [0, 3, 0]]).csr
    with pytest.raises(ValueError, match="CSR"):
        dataclasses.replace(good, **CSR_FAULTS[fault])


def test_a_row_may_begin_below_the_column_the_last_one_ended_on():
    good = make_dtm([[1, 0, 2], [0, 3, 0]]).csr
    moved = dataclasses.replace(good, indices=np.array([2, 0, 1], _I32),
                                indptr=np.array([0, 1, 3], _I32))
    assert moved.toarray().tolist() == [[0, 0, 1], [2, 3, 0]]


@pytest.mark.parametrize("backend", BACKENDS)
def test_csr_products_checks_indices_changed_after_construction(backend):
    # arrays changed in place after the CSR type checked them are refused
    # once, when the products are made, so no kernel reads outside the vectors
    counts = make_dtm([[1, 0, 2], [0, 3, 0]]).csr
    for name, pos, value in (("indices", 1, 3), ("indices", 0, -1),
                             ("indptr", 1, 5), ("indptr", 0, 1)):
        arrays = {"indptr": counts.indptr.copy(), "indices": counts.indices.copy()}
        bad = dataclasses.replace(counts, **arrays)
        arrays[name][pos] = value
        with use_backend(backend), pytest.raises(IndexError):
            lsa.csr_products(bad, np.ones(3))


def split_cells(matrix, rng):
    """The cells of a scipy CSR matrix, each split into two counts and
    shuffled within its row: a non-canonical matrix scipy sums back."""
    coo = matrix.tocoo()
    half = coo.data // 2
    rows, cols = np.repeat(coo.row, 2), np.repeat(coo.col, 2)
    data = np.column_stack((half, coo.data - half)).ravel()
    order = np.lexsort((rng.random(rows.size), rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=matrix.shape[0]))))
    return sparse.csr_matrix((data[order], cols[order], indptr), shape=matrix.shape)


def test_inertia_matches_the_coo_sum_bit_for_bit():
    # a non-canonical table cannot be built, and once summed it gives the
    # same sum; zeros stored in kept cells are summed like any cell
    rng = np.random.default_rng(13)
    for _ in range(20):
        X = random_count_matrix(rng, max_rows=30, max_cols=20)
        csr = sparse.csr_matrix(X)
        if rng.integers(2):
            split = split_cells(csr, rng)
            assert not split.has_canonical_format
            with pytest.raises(ValueError, match="CSR"):
                as_counts(split)
            split.sum_duplicates()
            csr = split
        if rng.integers(2):
            zeros = np.flatnonzero(X.ravel() == 0)[:3]
            stored = sparse.csr_matrix(
                (np.append(csr.tocoo().data, [0] * zeros.size),
                 (np.append(csr.tocoo().row, zeros // X.shape[1]),
                  np.append(csr.tocoo().col, zeros % X.shape[1]))), shape=X.shape)
            assert stored.nnz == csr.nnz + zeros.size
            csr = stored
        counts = as_counts(csr)
        n = float(X.sum())
        a, b = X.sum(axis=1) / n, X.sum(axis=0) / n
        coo = csr.tocoo()
        p = coo.data / n
        expected = float(np.sum(p * p / (a[coo.row] * b[coo.col])) - 1.0)
        assert lsa._inertia(counts, a, b, n) == expected


def test_fit_ca_without_copies_keeps_the_sliced_bytes():
    # fit_ca drops empty rows by the index pointers alone, and empty columns,
    # or zeros stored in empty rows, through an index map; each gives the
    # bytes of a fit on the table with those rows and columns sliced away.
    # A table given as split cells must be summed first, and then fits alike.
    rng = np.random.default_rng(17)
    X = rng.poisson(rng.gamma(0.5, 1.0, size=(120, 200)))
    X[:, X.sum(axis=0) == 0] = 1
    X[X.sum(axis=1) == 0, 0] = 1
    emptied = X.copy()
    emptied[::7] = 0
    no_terms = emptied.copy()
    no_terms[:, ::11] = 0
    for table in (X, emptied, no_terms):
        keep_rows, keep_cols = table.sum(axis=1) > 0, table.sum(axis=0) > 0
        sliced = make_dtm(table[keep_rows][:, keep_cols])
        direct = make_dtm(table)
        split = split_cells(sparse.csr_matrix(table), rng)
        with pytest.raises(ValueError, match="CSR"):
            as_counts(split)
        split.sum_duplicates()
        others = [direct, dataclasses.replace(direct, csr=as_counts(split))]
        if not keep_rows.all():
            coo = sparse.csr_matrix(table).tocoo()
            zero_in_row_0 = sparse.csr_matrix(
                (np.append(coo.data, 0), (np.append(coo.row, 0), np.append(coo.col, 0))),
                shape=table.shape)
            assert zero_in_row_0.nnz == direct.csr.nnz + 1
            others.append(dataclasses.replace(direct, csr=as_counts(zero_in_row_0)))
        for solver in ("lanczos", "dense"):
            a = fit_ca(sliced, dims=4, solver=solver)
            for other in others:
                b = fit_ca(other, dims=4, solver=solver)
                for field in ("singular_values", "row_coords", "col_coords", "row_masses",
                              "col_masses"):
                    assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
                assert a.total_inertia == b.total_inertia
                assert a.iterations == b.iterations
                assert b.row_ids == tuple(np.array(direct.doc_ids)[keep_rows])
                assert b.col_labels == tuple(np.array(direct.terms)[keep_cols])


def test_auto_solver_uses_dense_for_small_tables():
    X = random_count_matrix(np.random.default_rng(83), min_side=3)
    assert fit_ca(make_dtm(X), dims=2).solver == "dense"


# ---------------------------------------------------------------- validation


def test_fit_ca_drops_empty_rows_and_columns():
    X = np.array([[2, 0, 1], [0, 0, 0], [1, 0, 3]])
    model = fit_ca(make_dtm(X, doc_ids=["a", "b", "c"], terms=["t", "u", "v"]), dims=1)
    assert model.dropped_docs == ("b",)
    assert model.dropped_terms == ("u",)
    assert model.row_ids == ("a", "c")
    assert model.col_labels == ("t", "v")
    assert model.row_coords.shape == (2, 1)


def test_fit_ca_names_what_a_too_small_table_lacks():
    for table in ([[1], [2], [3]], [[1, 2, 0]], [[1, 0], [2, 0]]):
        with pytest.raises(ConfigError, match="at least two terms and two documents"):
            fit_ca(make_dtm(table), dims=1)


def test_fit_ca_rejects_bad_arguments():
    dtm = make_dtm([[2, 1], [1, 2]])
    with pytest.raises(ConfigError):
        fit_ca(dtm, dims=0)
    with pytest.raises(ConfigError):
        fit_ca(dtm, dims=2)  # rank bound is min(n, p) - 1 = 1
    with pytest.raises(ConfigError):
        fit_ca(dtm, dims=1, solver="qr")
    with pytest.raises(ConfigError, match="cannot fit CA on an empty matrix"):
        fit_ca(make_dtm([[0, 0], [0, 0]]), dims=1)


# ---------------------------------------------------------------- projections


def fitted_model():
    X = np.array([[4, 1, 0, 2], [1, 3, 2, 0], [0, 2, 5, 1], [2, 0, 1, 4], [1, 1, 1, 1]])
    return fit_ca(make_dtm(X, doc_ids=list("abcde")), dims=2)


def test_supplementary_singleton_recovers_the_member_point():
    model = fitted_model()
    supp = project_supplementary(model, {"just-c": ["c"]})
    assert supp.labels == ("just-c",)
    i = model.row_ids.index("c")
    assert np.allclose(supp.coords[0], model.row_coords[i], atol=1e-12)
    assert supp.masses[0] == pytest.approx(model.row_masses[i])


def test_supplementary_whole_corpus_sits_at_the_origin():
    model = fitted_model()
    supp = project_supplementary(model, {"all": list(model.row_ids)})
    assert np.abs(supp.coords).max() < 1e-10
    assert supp.masses[0] == pytest.approx(1.0)


def test_records_that_hold_arrays_compare_and_hash_by_identity():
    # field by field, == would ask an array for its truth value and raise,
    # and a frozen record would hash its arrays and raise
    sequences, _, _ = planted_topics(np.random.default_rng(0), 2, n_docs=20)
    vocab = build_vocabulary(sequences)
    fits = []
    for _ in range(2):
        dtm = build_dtm(sequences, vocab)
        model = fit_ca(dtm, dims=1)
        fits.append((dtm, model, project_supplementary(model, {"first": model.row_ids[:1]}),
                     fit_lda(sequences, vocab, LdaConfig(k=2, iterations=2, burn_in=0, seed=0))))
    for first, second in zip(*fits):
        assert first == first and first != second, type(first).__name__
        assert len({first, first, second}) == 2


def test_supplementary_equal_mass_pair_lands_at_the_midpoint():
    X = np.array([[3, 1, 0], [1, 0, 3], [2, 2, 2], [0, 3, 1]])  # equal row sums
    model = fit_ca(make_dtm(X, doc_ids=list("wxyz")), dims=2)
    supp = project_supplementary(model, {"wx": ["w", "x"]})
    mid = (model.row_coords[0] + model.row_coords[1]) / 2
    assert np.allclose(supp.coords[0], mid, atol=1e-12)


def test_supplementary_skips_empty_groups_with_a_warning(caplog):
    model = fitted_model()
    with caplog.at_level(logging.WARNING, logger="corpus_scope.lsa"):
        supp = project_supplementary(model, {"empty": [], "ok": ["a", "b"]})
    assert supp.labels == ("ok",)
    assert any("empty" in rec.message for rec in caplog.records)


def test_supplementary_unknown_member_raises():
    with pytest.raises(ConfigError, match="document 'nope' not in the fitted rows"):
        project_supplementary(fitted_model(), {"g": ["a", "nope"]})


# ---------------------------------------------------------------- rankings


def test_representative_documents_rank_by_distance():
    model = fitted_model()
    coords = np.zeros_like(model.row_coords)
    coords[0] = (3.0, 4.0)   # distance 5
    coords[1] = (0.0, 0.5)
    coords[2] = (1.0, 0.0)
    rigged = dataclasses.replace(model, row_coords=coords)
    ranked = representative_documents(rigged, top_n=3)
    assert [doc for doc, _ in ranked] == ["a", "c", "b"]
    assert ranked[0][1] == pytest.approx(5.0)
    assert ranked[2][1] == pytest.approx(0.5)
    assert len(representative_documents(rigged, top_n=99)) == len(model.row_ids)
    with pytest.raises(ConfigError):
        representative_documents(rigged, top_n=0)


def test_representative_documents_tie_breaks_by_id():
    model = fitted_model()
    rigged = dataclasses.replace(model, row_coords=np.ones_like(model.row_coords))
    ranked = representative_documents(rigged, top_n=5)
    assert [doc for doc, _ in ranked] == sorted(model.row_ids)


def test_representative_documents_keep_the_sort_key_order_on_ties():
    # few distinct distances over many rows, ids whose string order is not
    # their numeric order, and zero rows: the order of the former sort key
    rng = np.random.default_rng(19)
    model = fitted_model()
    n = 500
    ids = tuple(f"d{i}" for i in rng.permutation(n))
    coords = rng.choice([0.0, 1.0, -1.0, 0.5], size=(n, 2))
    rigged = dataclasses.replace(model, row_ids=ids, row_coords=coords)
    dist = np.linalg.norm(coords, axis=1)
    expected = sorted(range(n), key=lambda i: (-dist[i], ids[i]))
    for top_n in (1, 7, n, n + 3):
        ranked = representative_documents(rigged, top_n=top_n)
        assert ranked == [(ids[i], float(dist[i])) for i in expected[:top_n]]


# ---------------------------------------------------------------- integration


@pytest.mark.parametrize("k", [2, 3])
def test_the_first_k_minus_1_axes_separate_k_planted_topics(k):
    # between-topic over total variance of the row principal coordinates:
    # 0.9903-0.9941 over seeds 0-39 at k=2 and 3
    for seed in range(8):
        sequences, labels, _ = planted_topics(np.random.default_rng(seed), k)
        model = fit_ca(build_dtm(sequences, build_vocabulary(sequences)), dims=k - 1)
        assert model.row_ids == tuple(s.doc_id for s in sequences)
        coords = model.row_coords - model.row_coords.mean(axis=0)
        labels = np.array(labels)
        between = sum((labels == t).sum() * np.sum(coords[labels == t].mean(axis=0) ** 2)
                      for t in range(k))
        assert between / np.sum(coords**2) >= 0.98, seed


def test_fit_on_bundled_corpus(mini_corpus):
    from corpus_scope.text_pipeline import build_dtm, build_sequences, build_vocabulary, default_stoplist

    seqs = build_sequences(mini_corpus, default_stoplist())
    dtm = build_dtm(seqs, build_vocabulary(seqs))
    model = fit_ca(dtm, dims=2)
    assert model.row_coords.shape[0] + len(model.dropped_docs) == 60
    assert model.total_inertia > 0
    shares = model.explained_inertia()
    assert (shares > 0).all() and shares.sum() <= 1.0 + 1e-9
