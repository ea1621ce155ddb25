"""Correspondence analysis of the document-term matrix.

Given counts X with grand total n, let P = X / n, let a and b be the row and
column mass vectors (P's margins), and form the standardized residual

    S = D_a^{-1/2} (P - a b^T) D_b^{-1/2}

whose SVD S = U D_sigma V^T carries the whole geometry: standard coordinates
are D_a^{-1/2} U and D_b^{-1/2} V, principal coordinates scale those by the
singular values, and the total inertia (chi-squared statistic over n) equals
the sum of all squared singular values. Subtracting the rank-one term a b^T
removes the trivial unit singular triplet up front, so S has rank at most
min(n_rows, n_cols) - 1.

The truncated SVD of a table whose smaller side has more than 64 rows or
columns is computed without ever densifying S: a Lanczos iteration with full
reorthogonalization runs on the Gram matrix of the smaller side, using S's
sparse structure for matrix-vector products. Each product with S or S^T is
one pass over P's CSR arrays plus a rank-one correction: the row gather
``csr_matvec`` and the ascending-row scatter ``csr_rmatvec`` in
``_native.cpp``, or their ``np.bincount`` twins without the library, which
add in the same order and so give the same bits. The iteration runs once,
from one fixed start vector. Smaller tables, where iteration buys nothing,
take a dense LAPACK SVD of a numpy array, and so, with a warning, does a
table the iteration cannot settle: one whose Krylov space closes before the
top singular values settle (a table of low rank), or whose top singular
value comes within 1e-9 of 1 before the whole space is seen. Only a table
that splits into unlinked groups has the singular value 1, once per group
but the first, and a Krylov space sees each value once. Axis signs are
fixed by making the largest-magnitude entry of each left singular vector
positive, so results do not depend on solver internals.

Most Lanczos steps are decided by the compiled Sturm bracket
(:func:`eigenvalue_bracket`) without solving the tridiagonal eigenproblem;
``tests/test_lsa.py`` compares that with the path that solves every step,
and ``tests/test_scipy_oracles.py`` checks that the bracket holds SciPy's
eigenvalue on tridiagonals that split, cluster or repeat values. The
products read P's values on the DTM's own index arrays, which
:func:`fit_ca` uses as they are when no row or column is dropped.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

import numpy as np

from . import _native
from .errors import ConfigError, CorpusScopeError

logger = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .text_pipeline import CSRCounts, SparseDTM

DEFAULT_DIMS = 2
DENSE_CUTOFF = 64
LANCZOS_TOL = 1e-10
LANCZOS_MAX_ITER = 1000
LANCZOS_BLOCK = 64  # basis columns added per growth


@dataclass(frozen=True, eq=False)
class CAModel:
    """Fitted correspondence analysis.

    Coordinates are row-aligned with ``row_ids`` / ``col_labels`` (documents
    and terms that survived empty-margin dropping). ``row_coords`` and
    ``col_coords`` are principal coordinates; the ``*_std_coords`` arrays are
    standard coordinates (principal divided by the singular value per axis).
    """

    row_ids: tuple[str, ...]
    col_labels: tuple[str, ...]
    row_masses: np.ndarray = field(repr=False)
    col_masses: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)
    row_coords: np.ndarray = field(repr=False)
    col_coords: np.ndarray = field(repr=False)
    row_std_coords: np.ndarray = field(repr=False)
    col_std_coords: np.ndarray = field(repr=False)
    total_inertia: float
    dims: int
    dropped_docs: tuple[str, ...]
    dropped_terms: tuple[str, ...]
    solver: str
    iterations: int
    tridiagonal_solves: int  # Lanczos only: exact eigen-solves of its T_m
    bounded_steps: int  # Lanczos only: steps bisection bounds showed no stop
    ritz_residual: float  # Lanczos only: max_i ||G v_i - l_i v_i|| / l_1

    def explained_inertia(self) -> np.ndarray:
        """Share of total inertia carried by each retained axis."""
        if self.total_inertia <= 0.0:
            return np.zeros_like(self.singular_values)
        return self.singular_values**2 / self.total_inertia


@dataclass(frozen=True, eq=False)
class SupplementaryPoints:
    """Labelled passive points placed in an existing CA row space."""

    labels: tuple[str, ...]
    coords: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)


def total_inertia(dtm: "SparseDTM") -> float:
    """Total inertia chi^2 / n via the sparse-friendly identity
    sum_ij p_ij^2 / (a_i b_j) - 1, summing over nonzero cells only."""
    if dtm.n_total <= 0:
        raise ConfigError("empty matrix has no inertia")
    if (dtm.row_totals == 0).any() or (dtm.col_totals == 0).any():
        raise ConfigError("zero row or column margin")
    n = float(dtm.n_total)
    return _inertia(dtm.csr, dtm.row_totals / n, dtm.col_totals / n, n)


def _inertia(counts: "CSRCounts", a: np.ndarray, b: np.ndarray, n: float) -> float:
    """sum_ij p_ij^2 / (a_i b_j) - 1 over the stored cells of the CSR matrix
    ``counts``, for row and column masses ``a`` and ``b`` and grand total ``n``.

    Each cell is ``(p * p) / (a[row] * b[col])`` with ``p = count / n``,
    built in place in two arrays of the cells' length. One ``np.sum`` over
    all cells keeps the summation order, and so the bits, of a COO sum.
    """
    den = b[counts.indices]
    den *= np.repeat(a, np.diff(counts.indptr))
    p = counts.data / n
    p *= p
    p /= den
    return float(np.sum(p) - 1.0)


def csr_products(counts: "CSRCounts", values: np.ndarray):
    """The products ``x -> P @ x`` and ``y -> P.T @ y`` for the matrix P that
    stores float64 ``values`` in the cells of ``counts``.

    Each output adds its terms in ascending entry order from 0.0, as scipy's
    ``csr_matvec`` and ``csc_matvec`` do: compiled as ``csr_matvec`` and
    ``csr_rmatvec`` in ``_native.cpp`` or, without the library, as
    ``np.bincount`` over the entries' rows and columns. The index pointers
    and columns are checked here, once for all products: an array changed in
    place after ``CSRCounts`` checked it raises IndexError. The kernels'
    declarations check the arrays' dtypes and layout at each call.
    """
    n_rows, n_cols = counts.shape
    indptr = np.ascontiguousarray(counts.indptr)
    indices = np.ascontiguousarray(counts.indices)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape != indices.shape:
        raise ValueError(f"{values.size} values for {indices.size} entries")
    if (indptr[0] != 0 or indptr[-1] != indices.size or (np.diff(indptr) < 0).any()
            or indices.size and (indices.min() < 0 or indices.max() >= n_cols)):
        raise IndexError("CSR index pointer or column out of range")
    lib = _native.library()
    if lib is None:
        rows = counts.rows()

        def add(at: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
            # float64 even without entries, where bincount gives int64
            return np.bincount(at, weights=terms, minlength=size).astype(np.float64, copy=False)

        return (lambda x: add(rows, values * x[indices], n_rows),
                lambda y: add(indices, values * y[rows], n_cols))

    def product(kernel, v: np.ndarray, size: int, out_size: int) -> np.ndarray:
        v = np.ascontiguousarray(v, dtype=np.float64)
        if v.shape != (size,):
            raise ValueError(f"vector of shape {v.shape} for a {n_rows}x{n_cols} matrix")
        out = np.empty(out_size)
        kernel(n_rows, n_cols, indptr, indices, values, v, out)
        return out

    return (lambda x: product(lib.csr_matvec, x, n_cols, n_rows),
            lambda y: product(lib.csr_rmatvec, y, n_rows, n_cols))


def eigenvalue_bracket(d, e, index: int) -> tuple[float, float] | None:
    """An interval that holds the ``index``-th smallest eigenvalue (from 0)
    of the symmetric tridiagonal matrix with diagonal ``d`` and off-diagonal
    ``e``, and the one ``_lapack.eigh_tridiagonal`` computes at that index;
    None without the compiled library.

    The compiled ``eigenvalue_bracket`` counts eigenvalues below three
    points a pass by Sturm sequences (Kahan 1966, with LAPACK ``dstebz``'s
    guard against a zero pivot) and so cuts the Gershgorin interval to a
    quarter a pass, down to 1e-13 * ||T||_1. It widens the result by
    1e-12 * ||T||_1, which covers the rounding of its counts and of
    ``dstevd``'s eigenvalues. Raises ValueError on the inputs
    ``eigh_tridiagonal`` refuses and on an index out of range.
    """
    from . import _lapack

    d, e = _lapack._checked(d, e)
    n = d.size
    if not 0 <= index < n:
        raise ValueError(f"index {index} out of range for a {n}x{n} matrix")
    lib = _native.library()
    out = np.empty(2)
    if lib is None or lib.eigenvalue_bracket(d, e, n, index, out) < 0:
        return None
    return float(out[0]), float(out[1])


class LanczosFit(NamedTuple):
    """What :func:`_lanczos_topk` found, and how much solving it took."""

    values: np.ndarray  # the top-k eigenvalues, descending
    vectors: np.ndarray  # their eigenvectors, as columns
    steps: int
    solves: int  # exact tridiagonal eigen-solves, the final one included
    bounded: int  # steps that bisection bounds showed to be no stop
    residual: float  # max_i ||A v_i - l_i v_i|| / l_1 over the k pairs


def _lanczos_topk(
    matvec,
    dim: int,
    k: int,
    tol: float = LANCZOS_TOL,
    max_iter: int = LANCZOS_MAX_ITER,
) -> LanczosFit | None:
    """Top-k eigenpairs of a symmetric PSD operator by Lanczos iteration.

    The iteration starts from the fixed unit ramp ``sin(i) + 0.1 cos(i / 2)``
    (no RNG), so runs are bit-identical everywhere. Full reorthogonalization
    against all previous basis vectors keeps the basis numerically
    orthonormal (the classic three-term recurrence loses orthogonality as
    Ritz values converge). Convergence is declared when the top-k Ritz values
    move less than ``tol`` between steps, or when the basis spans the whole
    space. Returns the fit, or None when the Krylov space closes (an
    invariant subspace, beta < 1e-13) before the top-k Ritz values settle:
    the start vector then misses part of the spectrum, as on a table of low
    rank or one with a repeated eigenvalue, and the caller must solve another
    way. Raises CorpusScopeError after ``max_iter`` steps short of the whole
    space.

    The Ritz values of step m are the eigenvalues of the tridiagonal T_m.
    Rather than solve it whole at every step, each step first brackets T_m's
    k-th largest eigenvalue by bisection (:func:`eigenvalue_bracket`). When
    that bracket lies more than ``tol`` above the one of T_{m-1}, on the
    singular-value scale, the exact values move by more than ``tol`` too,
    and the step cannot stop. Only the other steps solve T_{m-1} and T_m
    exactly (``_lapack.eigh_tridiagonal``, imported here, as only this path
    uses it) and compare all k values, so the iteration stops at the same
    step, with the same bits, as one that solves at every step. Without the
    compiled library no bracket is found, and every step solves.

    The fit's ``residual`` is the largest ||A v_i - l_i v_i|| over the k
    pairs, relative to the top eigenvalue l_1: with the basis orthonormal it
    is |beta_m * s_i[m - 1]|, from the last beta and the last entry of T_m's
    eigenvector s_i, so it costs no product.
    """
    from . import _lapack

    limit = min(dim, max_iter)
    # grown LANCZOS_BLOCK columns at a time, so only used columns take memory;
    # kept in C order, because Fortran order makes numpy call the other BLAS
    # gemv variant, which rounds differently
    Q = np.zeros((dim, min(limit, LANCZOS_BLOCK)))
    idx = np.arange(1, dim + 1, dtype=np.float64)
    q = np.sin(idx) + 0.1 * np.cos(idx * 0.5)
    Q[:, 0] = q / np.linalg.norm(q)
    alphas: list[float] = []
    betas: list[float] = []
    tops: dict[int, np.ndarray] = {}  # step -> its exact top-k Ritz values

    def top(n: int) -> np.ndarray:
        """T_n's top-k Ritz values on the singular-value scale (the operator
        is a Gram matrix), solved once."""
        if n not in tops:
            evals = _lapack.eigh_tridiagonal(
                np.asarray(alphas[:n]), np.asarray(betas[: n - 1]), eigvals_only=True
            )
            tops[n] = np.sqrt(np.clip(np.sort(evals)[::-1][:k], 0.0, None))
        return tops[n]

    m = bounded = 0
    prev_bracket: list[float] | None = None
    while True:
        w = matvec(Q[:, m])
        alphas.append(float(Q[:, m] @ w))
        w = w - Q[:, : m + 1] @ (Q[:, : m + 1].T @ w)
        w = w - Q[:, : m + 1] @ (Q[:, : m + 1].T @ w)
        beta = float(np.linalg.norm(w))
        m += 1
        if m >= k:
            interval = eigenvalue_bracket(alphas, betas, m - k)
            # sqrt and clip round monotonically, so the bracket holds on
            # this scale too, and a difference above tol here is one there
            bracket = None if interval is None else [math.sqrt(max(v, 0.0)) for v in interval]
            if (bracket is not None and prev_bracket is not None
                    and bracket[0] - prev_bracket[1] > tol):
                bounded += 1
            elif m > k and float(np.max(np.abs(top(m) - top(m - 1)))) < tol:
                break
            prev_bracket = bracket
        if m >= limit:
            if m < dim:
                raise CorpusScopeError(
                    f"Lanczos did not stabilize top-{k} singular values after {m} iterations"
                )
            break  # the full Krylov space is exact
        if beta < 1e-13:
            return None
        if m == Q.shape[1]:
            wider = np.zeros((dim, min(limit, m + LANCZOS_BLOCK)))
            wider[:, :m] = Q
            Q = wider
        betas.append(beta)
        Q[:, m] = w / beta
    evals, evecs = _lapack.eigh_tridiagonal(np.asarray(alphas), np.asarray(betas))
    order = np.argsort(evals)[::-1][:k]
    vals = evals[order]
    vecs = Q[:, :m] @ evecs[:, order]
    vecs /= np.linalg.norm(vecs, axis=0, keepdims=True)
    residual = float(np.max(np.abs(beta * evecs[m - 1, order])) / vals[0])
    return LanczosFit(vals, vecs, m, len(tops) + 1, bounded, residual)


def _fix_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip each (u_i, v_i) pair so u_i's largest-magnitude entry is positive."""
    u = u.copy()
    v = v.copy()
    for i in range(u.shape[1]):
        j = int(np.argmax(np.abs(u[:, i])))
        if u[j, i] < 0.0:
            u[:, i] = -u[:, i]
            v[:, i] = -v[:, i]
    return u, v


def _kept_cells(dtm: "SparseDTM", keep_rows: np.ndarray,
                keep_cols: np.ndarray) -> "CSRCounts":
    """The DTM's counts without the rows and columns outside ``keep_rows``
    and ``keep_cols``.

    When no column goes and the dropped rows store no entry, the kept rows
    share the DTM's cell arrays and only the index pointers are new.
    Otherwise the kept cells are copied, their columns renumbered through an
    index map, in the order the DTM stores them.
    """
    X = dtm.csr
    n_rows, n_cols = X.shape
    if keep_rows.size == n_rows and keep_cols.size == n_cols:
        return X
    lengths = np.diff(X.indptr)
    dropped = dtm.row_totals == 0
    if keep_cols.size == n_cols and not lengths[dropped].any():
        indptr = np.append(X.indptr[keep_rows], X.indptr[-1])
        return type(X)(indptr, X.indices, X.data, (keep_rows.size, n_cols))
    column = np.full(n_cols, -1, dtype=np.int32)
    column[keep_cols] = np.arange(keep_cols.size, dtype=np.int32)
    indices = column[X.indices]
    kept = indices >= 0
    kept[np.repeat(dropped, lengths)] = False
    # kept cells before each entry; a dropped row keeps none, so a kept row
    # ends where the next kept row begins
    before = np.zeros(X.nnz + 1, dtype=np.int32)
    np.cumsum(kept, dtype=np.int32, out=before[1:])
    indptr = before[X.indptr[np.append(keep_rows, n_rows)]]
    return type(X)(indptr, indices[kept], X.data[kept], (keep_rows.size, keep_cols.size))


def fit_ca(dtm: "SparseDTM", dims: int = DEFAULT_DIMS, solver: str = "auto") -> CAModel:
    """Fit a correspondence analysis with ``dims`` retained axes.

    All-zero rows (documents with no in-vocabulary tokens) and all-zero
    columns are dropped before fitting and reported on the model. ``solver``
    is "auto" (dense below the small-problem cutoff, Lanczos above),
    "lanczos", or "dense"; a table Lanczos cannot settle is solved dense, and
    the model's ``solver`` says so. Requires
    1 <= dims <= min(kept rows, kept cols) - 1.
    """
    if solver not in ("auto", "lanczos", "dense"):
        raise ConfigError(f"unknown solver: {solver!r}")
    if dtm.n_total <= 0:
        raise ConfigError("cannot fit CA on an empty matrix")

    keep_rows = np.flatnonzero(dtm.row_totals > 0)
    keep_cols = np.flatnonzero(dtm.col_totals > 0)
    dropped_docs = tuple(dtm.doc_ids[i] for i in np.flatnonzero(dtm.row_totals == 0))
    dropped_terms = tuple(dtm.terms[j] for j in np.flatnonzero(dtm.col_totals == 0))
    X = _kept_cells(dtm, keep_rows, keep_cols)
    row_ids = tuple(dtm.doc_ids[i] for i in keep_rows)
    col_labels = tuple(dtm.terms[j] for j in keep_cols)

    n_rows, n_cols = X.shape
    if min(n_rows, n_cols) < 2:
        raise ConfigError(
            "correspondence analysis needs at least two terms and two documents"
            f" with counts; this table has {n_cols} term(s) and {n_rows} document(s)"
        )
    max_dims = min(n_rows, n_cols) - 1
    if dims < 1 or dims > max_dims:
        raise ConfigError(
            f"dims must be in [1, {max_dims}] for a {n_rows}x{n_cols} table, got {dims}"
        )

    # masses from the exact integer margins: the bits of the kept cells' sums
    n = float(dtm.n_total)
    a = dtm.row_totals[keep_rows] / n
    b = dtm.col_totals[keep_cols] / n
    inertia = _inertia(X, a, b, n)  # before P exists, so their arrays never coexist
    sa, sb = np.sqrt(a), np.sqrt(b)
    ra, rb = 1.0 / sa, 1.0 / sb

    if solver == "auto":
        solver = "dense" if min(n_rows, n_cols) <= DENSE_CUTOFF else "lanczos"

    iterations = solves = bounded = 0
    residual = 0.0
    if solver == "lanczos":
        # P = X / n, one float64 value per cell of X. Each product takes a
        # prescaled vector (rb * x): scaling the entries inside the product
        # would round differently and move the pinned bytes
        p_dot, pt_dot = csr_products(X, X.data * (1.0 / n))

        def s_apply(x: np.ndarray) -> np.ndarray:
            return ra * p_dot(rb * x) - sa * float(sb @ x)

        def st_apply(y: np.ndarray) -> np.ndarray:
            return rb * pt_dot(ra * y) - sb * float(sa @ y)

        # Lanczos runs on the Gram matrix of the smaller side; each vector of
        # the other side is then one product away
        wide = n_rows < n_cols
        to_other, back = (st_apply, s_apply) if wide else (s_apply, st_apply)
        side = min(n_rows, n_cols)
        found = _lanczos_topk(lambda x: back(to_other(x)), side, dims)
        if found is not None:
            vals, vecs, iterations, solves, bounded, residual = found
            sigma = np.sqrt(np.clip(vals, 0.0, None))
        # a connected table has no unit singular value; a disconnected one has
        # one per extra group, and the Krylov space short of the whole space
        # may see fewer copies than there are
        if found is None or (1.0 - sigma[0] < 1e-9 and iterations < side):
            logger.warning(
                "Lanczos cannot settle %d axes of this %dx%d table, which is"
                " disconnected or of low rank; solving it with the dense SVD",
                dims, n_rows, n_cols)
            solver, iterations, solves, bounded, residual = "dense", 0, 0, 0, 0.0
        else:
            others = np.zeros((max(n_rows, n_cols), dims))
            for i in range(dims):
                if sigma[i] > 1e-13:
                    others[:, i] = to_other(vecs[:, i]) / sigma[i]
            U, V = (vecs, others) if wide else (others, vecs)

    if solver == "dense":
        P = X.toarray() / n
        S = (ra[:, None] * (P - np.outer(a, b))) * rb[None, :]
        U, sigma, Vt = np.linalg.svd(S, full_matrices=False)
        U, V = U[:, :dims], Vt[:dims].T
        sigma = sigma[:dims]

    U, V = _fix_signs(U, V)
    row_std = ra[:, None] * U
    col_std = rb[:, None] * V
    return CAModel(
        row_ids=row_ids,
        col_labels=col_labels,
        row_masses=a,
        col_masses=b,
        singular_values=sigma,
        row_coords=row_std * sigma[None, :],
        col_coords=col_std * sigma[None, :],
        row_std_coords=row_std,
        col_std_coords=col_std,
        total_inertia=inertia,
        dims=dims,
        dropped_docs=dropped_docs,
        dropped_terms=dropped_terms,
        solver=solver,
        iterations=iterations,
        tridiagonal_solves=solves,
        bounded_steps=bounded,
        ritz_residual=residual,
    )


def project_supplementary(
    model: CAModel, grouping: Mapping[str, Iterable[str]]
) -> SupplementaryPoints:
    """Place labelled groups of documents as passive points.

    Each group's point is the mass-weighted barycenter of its member rows'
    standard coordinates, rescaled to principal coordinates axis by axis.
    That equals the classical projection of the merged rows' profile, so a
    singleton group lands exactly on its row and the all-rows group lands at
    the origin. Unknown ids raise ConfigError; empty groups are skipped
    with a warning.
    """
    pos = {doc_id: i for i, doc_id in enumerate(model.row_ids)}
    labels: list[str] = []
    points: list[np.ndarray] = []
    masses: list[float] = []
    for label in sorted(grouping):
        members = list(grouping[label])
        if not members:
            logger.warning("supplementary group %r is empty; skipped", label)
            continue
        idx = []
        for doc_id in members:
            if doc_id not in pos:
                raise ConfigError(f"document {doc_id!r} not in the fitted rows")
            idx.append(pos[doc_id])
        w = model.row_masses[idx]
        mass = float(w.sum())
        bary = (w[:, None] * model.row_std_coords[idx]).sum(axis=0) / mass
        labels.append(label)
        points.append(bary * model.singular_values)
        masses.append(mass)
    coords = np.vstack(points) if points else np.zeros((0, model.dims))
    return SupplementaryPoints(
        labels=tuple(labels), coords=coords, masses=np.asarray(masses)
    )


def representative_documents(model: CAModel, top_n: int = 5) -> list[tuple[str, float]]:
    """Documents ranked by distance from the origin in principal coordinates.

    Returns (doc_id, distance) pairs sorted by distance descending, id
    ascending on ties. Extreme points are the strongest contributors to the
    retained axes, hence the most distinctive documents in the plane.
    """
    if top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")
    ids = model.row_ids
    dist = np.linalg.norm(model.row_coords, axis=1)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    order = np.lexsort((rank, -dist))[:top_n]
    return list(zip(map(ids.__getitem__, order.tolist()), dist[order].tolist()))
