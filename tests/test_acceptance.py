"""Acceptance gate: one test per shipping criterion, with pinned tolerances.

Each test prints a single ``[acceptance N] label: PASS|FAIL`` line on the real
stdout (bypassing capture) so a plain ``pytest -v`` run shows the verdict for
every criterion at a glance.
"""

import hashlib
import subprocess
import sys
import time
from itertools import permutations

import numpy as np
import pytest
from scipy import stats

from conftest import child_env, make_dtm, planted_corpus
from corpus_scope.cli import main
from corpus_scope.eda import fit_quadratic
from corpus_scope.lda import LdaConfig, dirichlet_density, fit_lda
from corpus_scope.lsa import fit_ca, total_inertia
from corpus_scope.text_pipeline import build_dtm, build_vocabulary
from test_bigrams import naive_count
from test_eda import series, solve_normal_equations
from test_lsa import dense_ca_oracle, random_count_matrix
from test_text_pipeline import dense_recount, seqs


def announce(num: int, label: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {label}: {verdict}", file=sys.__stdout__, flush=True)


def test_acceptance_1_truncated_svd_matches_dense_oracle():
    """200 random count tables: Lanczos singular values vs LAPACK on the dense
    residual within 1e-9 absolute; inertia vs chi^2/n within 1e-8 relative;
    all inside 10 seconds."""
    ok = False
    try:
        rng = np.random.default_rng(20_240_001)
        started = time.perf_counter()
        for _ in range(200):
            X = random_count_matrix(rng, max_rows=12, max_cols=10, high=6)
            dims = min(2, min(X.shape) - 1)
            dtm = make_dtm(X)
            model = fit_ca(dtm, dims=dims, solver="lanczos")
            s_oracle = dense_ca_oracle(X, dims)[0]
            assert np.abs(model.singular_values - s_oracle[:dims]).max() < 1e-9
            chi2 = float(stats.chi2_contingency(X, correction=False).statistic)
            expected = chi2 / X.sum()
            got = total_inertia(dtm)
            assert abs(got - expected) <= 1e-8 * max(abs(expected), 1e-30)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        announce(1, "truncated SVD matches dense oracle on 200 random tables", ok)


def test_acceptance_2_hand_checked_two_by_two_tables():
    """The perfectly associated 2x2 table has first singular value 1 and
    inertia 1 (within 1e-12); the independent table has inertia 0."""
    ok = False
    try:
        diag = make_dtm([[2, 0], [0, 2]])
        model = fit_ca(diag, dims=1)
        assert abs(model.singular_values[0] - 1.0) <= 1e-12
        assert abs(model.total_inertia - 1.0) <= 1e-12
        flat = make_dtm([[1, 1], [1, 1]])
        assert abs(total_inertia(flat)) <= 1e-12
        ok = True
    finally:
        announce(2, "hand-checked 2x2 singular value and inertia", ok)


def test_acceptance_3_planted_topic_recovery():
    """On 200 synthetic docs from 2 disjoint-support topics: aligned cosine
    >= 0.95, >= 90% of docs put >= 0.8 mass on their topic, counts conserved
    exactly, all inside 30 seconds."""
    ok = False
    try:
        started = time.perf_counter()
        rng = np.random.default_rng(20_240_003)
        sequences, labels = planted_corpus(rng, n_docs=200, doc_len=40)
        vocab = build_vocabulary(sequences)
        config = LdaConfig(k=2, alpha=0.1, beta=0.01, iterations=200, burn_in=50, seed=5)
        # fit_lda re-verifies count conservation after every sweep and would
        # raise RuntimeError on any drift, so finishing is itself the check
        model = fit_lda(sequences, vocab, config)

        truth = np.zeros((2, len(vocab)))
        for t in range(2):
            for i in range(5):
                truth[t, vocab.index[f"{'wa' if t == 0 else 'wb'}{i}"]] = 0.2

        def cosine(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        best_perm, best_score = None, -1.0
        for perm in permutations(range(2)):
            score = min(cosine(model.phi[perm[t]], truth[t]) for t in range(2))
            if score > best_score:
                best_perm, best_score = perm, score
        assert best_score >= 0.95, f"aligned cosine {best_score:.4f}"

        dominant = sum(
            model.theta[d, best_perm[t]] >= 0.8 for d, t in enumerate(labels)
        )
        assert dominant / len(labels) >= 0.9, f"only {dominant}/200 docs dominant"

        total_tokens = sum(len(s) for s in sequences)
        assert int(model.topic_word_counts.sum()) == total_tokens
        assert int(model.doc_topic_counts.sum()) == total_tokens

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        announce(3, "planted two-topic corpus recovered", ok)


def test_acceptance_4_dirichlet_density_values_and_normalization():
    """Closed-form values to 1e-12; Monte Carlo normalization for
    alpha=(2,3,4) within 2% over one million samples."""
    ok = False
    try:
        for point in [(0.5, 0.5), (0.3, 0.7), (0.999, 0.001)]:
            assert abs(dirichlet_density(point, (1.0, 1.0)) - 1.0) <= 1e-12
        assert abs(dirichlet_density((0.5, 0.5), (2.0, 2.0)) - 1.5) <= 1e-12

        rng = np.random.default_rng(20_240_004)
        samples = rng.dirichlet((1.0, 1.0, 1.0), size=1_000_000)
        # importance sampling: the uniform simplex density is Gamma(3) = 2
        total = float(dirichlet_density(samples, (2.0, 3.0, 4.0)).sum())
        integral = total / (2.0 * len(samples))
        assert abs(integral - 1.0) <= 0.02, f"integral {integral:.4f}"
        ok = True
    finally:
        announce(4, "dirichlet density closed forms and MC normalization", ok)


def test_acceptance_5_quadratic_fit_oracle_agreement():
    """Noiseless exact recovery to 1e-9; 100 random series against an exact
    rational normal-equations solve to 1e-9; R^2 always within [0, 1]."""
    ok = False
    try:
        xs = list(range(16))
        fit = fit_quadratic(series(xs, [4 * x * x - 7 * x + 11 for x in xs]))
        assert abs(fit.a2 - 4.0) <= 1e-9
        assert abs(fit.a1 + 7.0) <= 1e-9
        assert abs(fit.a0 - 11.0) <= 1e-9

        rng = np.random.default_rng(20_240_005)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            # keep |x| modest: the intercept error scales with mean(x)^2 times
            # the solver noise, and 1e-9 absolute must hold with margin
            pts = sorted(rng.choice(np.arange(0, 40), size=n, replace=False).tolist())
            counts = [int(v) for v in rng.integers(0, 2000, size=n)]
            fit = fit_quadratic(series(pts, counts))
            c2, c1, c0 = solve_normal_equations(pts, counts)
            assert abs(fit.a2 - float(c2)) <= 1e-9
            assert abs(fit.a1 - float(c1)) <= 1e-9
            assert abs(fit.a0 - float(c0)) <= 1e-9
            assert 0.0 <= fit.r_squared <= 1.0
        ok = True
    finally:
        announce(5, "quadratic fit agrees with exact normal equations", ok)


def test_acceptance_6_bigram_counter_oracle_and_monotonicity():
    """Exact equality with a naive nested-loop counter on 100 random corpora
    and edge-set monotonicity across threshold pairs."""
    from corpus_scope.bigrams import count_bigrams, threshold_graph

    ok = False
    try:
        rng = np.random.default_rng(20_240_006)
        alphabet = [f"w{i}" for i in range(10)]
        for _ in range(100):
            docs = [
                [alphabet[int(j)]
                 for j in rng.integers(0, len(alphabet), size=rng.integers(0, 30))]
                for _ in range(int(rng.integers(0, 12)))
            ]
            table = count_bigrams(seqs(*docs))
            assert dict(table.pairs) == naive_count(docs)
            assert table.total_bigrams == sum(max(len(d) - 1, 0) for d in docs)
            for low, high in [(1, 2), (2, 3), (1, 5), (3, 10)]:
                loose = set(threshold_graph(table, low).edges)
                tight = set(threshold_graph(table, high).edges)
                assert tight <= loose
        ok = True
    finally:
        announce(6, "bigram counts match naive oracle, thresholds monotone", ok)


def test_acceptance_7_pipeline_determinism(mini_corpus_path, tmp_path):
    """Two full runs on the bundled 60-document corpus with one config and
    seed are byte-identical (SHA-256), and so is a third in a fresh process
    with one BLAS thread, all inside 20 seconds."""
    ok = False
    try:
        started = time.perf_counter()

        def run(out_dir, blas_threads=None):
            argv = ["run", "--input", str(mini_corpus_path), "--out", str(out_dir),
                    "--iters", "160", "--burn-in", "40", "--seed", "42"]
            if blas_threads is None:  # in this process, at the host's default
                assert main(argv) == 0
            else:  # BLAS reads its thread count once, when it loads
                env = child_env()
                env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
                entry = "import sys; from corpus_scope.cli import main; sys.exit(main())"
                proc = subprocess.run([sys.executable, "-c", entry, *argv], env=env,
                                      capture_output=True, text=True, timeout=60)
                assert proc.returncode == 0, proc.stderr
            digests = {}
            for path in sorted(out_dir.iterdir()):
                if path.name == "run_report.json":
                    continue  # the manifest embeds wall-clock timings
                digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            return digests

        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        one_thread = run(tmp_path / "c", blas_threads=1)
        assert len(first) == 12
        assert first == second
        assert first == one_thread
        elapsed = time.perf_counter() - started
        assert elapsed < 20.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        announce(7, "pipeline runs byte-identical across reruns and threads", ok)


def test_acceptance_8_dtm_marginals_match_dense_recount():
    """Row, column, and grand totals of the sparse DTM equal a dense recount
    on 100 random corpora."""
    ok = False
    try:
        rng = np.random.default_rng(20_240_008)
        alphabet = [f"t{i}" for i in range(15)]
        checked = 0
        while checked < 100:
            docs = [
                [alphabet[int(j)]
                 for j in rng.integers(0, len(alphabet), size=rng.integers(0, 25))]
                for _ in range(int(rng.integers(1, 10)))
            ]
            if not any(docs):
                continue
            sequences = seqs(*docs)
            vocab = build_vocabulary(sequences, p=int(rng.integers(1, 20)))
            dtm = build_dtm(sequences, vocab)
            ref = dense_recount(docs, vocab.terms)
            assert np.array_equal(dtm.dense(), ref)
            assert np.array_equal(dtm.row_totals, ref.sum(axis=1))
            assert np.array_equal(dtm.col_totals, ref.sum(axis=0))
            assert dtm.n_total == int(ref.sum())
            checked += 1
        ok = True
    finally:
        announce(8, "sparse DTM marginals equal dense recount", ok)
