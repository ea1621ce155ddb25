import ctypes
import hashlib
import logging
import math
import re
import shutil
import sys
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from conftest import (
    BACKENDS,
    ChainSpy,
    needs_compiler,
    planted_corpus,
    planted_topics,
    use_backend,
)
from corpus_scope import _native, lda
from corpus_scope._native import backend as gibbs_backend
from corpus_scope.errors import ConfigError, InputError
from corpus_scope.lda import (
    LdaConfig,
    _top_columns,
    dirichlet_density,
    fit_lda,
    render_model,
    top_words_per_topic,
)
from corpus_scope.text_pipeline import TokenSequence, build_vocabulary


def quick_config(**overrides):
    kwargs = dict(k=2, iterations=120, burn_in=30, seed=7)
    kwargs.update(overrides)
    return LdaConfig(**kwargs)


def per_document(model):
    """Each kept document's token topics, cut from the flat arrays."""
    flat, bounds = model.topics.tolist(), model.offsets.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def fitted_planted(seed=7, n_docs=60, **overrides):
    rng = np.random.default_rng(1000 + seed)
    sequences, labels = planted_corpus(rng, n_docs=n_docs)
    vocab = build_vocabulary(sequences)
    model = fit_lda(sequences, vocab, quick_config(seed=seed, **overrides))
    return model, sequences, labels, vocab


# ------------------------------------------------------------ dirichlet


def test_dirichlet_density_flat_prior_is_uniform():
    for point in [(0.5, 0.5), (0.9, 0.1), (0.25, 0.75)]:
        assert abs(dirichlet_density(point, (1.0, 1.0)) - 1.0) < 1e-12
    assert abs(dirichlet_density((0.2, 0.3, 0.5), (1, 1, 1)) - 2.0) < 1e-12


def test_dirichlet_density_symmetric_two_two():
    assert abs(dirichlet_density((0.5, 0.5), (2.0, 2.0)) - 1.5) < 1e-12


def test_dirichlet_density_closed_form_asymmetric():
    # density of Dir(3, 1) is 3 * x^2 on the first coordinate
    for x in (0.1, 0.4, 0.8):
        expect = 3 * x * x
        assert dirichlet_density((x, 1 - x), (3.0, 1.0)) == pytest.approx(expect, rel=1e-12)


def test_dirichlet_density_boundary_limits():
    assert dirichlet_density((0.0, 1.0), (2.0, 3.0)) == 0.0
    assert dirichlet_density((0.0, 1.0), (1.0, 2.0)) == pytest.approx(2.0)
    assert dirichlet_density((0.0, 1.0), (0.5, 2.0)) == math.inf
    # a batch applies the limits row by row
    batch = dirichlet_density([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)], (0.5, 2.0))
    assert batch.shape == (3,)
    assert batch[0] == math.inf and batch[2] == 0.0
    assert batch[1] == dirichlet_density((0.5, 0.5), (0.5, 2.0))


def test_dirichlet_density_validation():
    off_simplex = "theta must be nonnegative and sum to 1"
    bad_shape = r"theta must be \(k,\) or \(m, k\) and alpha \(k,\)"
    with pytest.raises(ConfigError, match=off_simplex):
        dirichlet_density((0.5, 0.6), (1.0, 1.0))
    with pytest.raises(ConfigError, match=off_simplex):
        dirichlet_density((-0.1, 1.1), (1.0, 1.0))
    with pytest.raises(ConfigError, match="alpha entries must be positive"):
        dirichlet_density((0.5, 0.5), (1.0, 0.0))
    with pytest.raises(ConfigError, match="alpha entries must be positive"):
        dirichlet_density((0.5, 0.5), (1.0, -2.0))
    with pytest.raises(ConfigError, match=bad_shape):
        dirichlet_density((0.5, 0.5), (1.0, 1.0, 1.0))
    with pytest.raises(ConfigError, match=bad_shape):
        dirichlet_density((), ())
    with pytest.raises(ConfigError, match=off_simplex):  # one bad row rejects the batch
        dirichlet_density([(0.5, 0.5), (0.5, 0.6)], (1.0, 1.0))
    with pytest.raises(ConfigError, match=bad_shape):
        dirichlet_density([[(0.5, 0.5)]], (1.0, 1.0))


def test_dirichlet_density_integrates_to_one():
    # importance sampling against the uniform simplex density Gamma(k) = 2
    rng = np.random.default_rng(12345)
    samples = rng.dirichlet((1.0, 1.0, 1.0), size=200_000)
    vals = dirichlet_density(samples, (2.0, 3.0, 4.0))
    integral = float(np.mean(vals / 2.0))
    assert abs(integral - 1.0) < 0.05


# ------------------------------------------------------------ fitting basics


def test_fit_lda_is_deterministic_for_a_seed():
    m1, *_ = fitted_planted(seed=3)
    m2, *_ = fitted_planted(seed=3)
    assert np.array_equal(m1.phi, m2.phi)
    assert np.array_equal(m1.theta, m2.theta)
    assert np.array_equal(m1.topics, m2.topics)
    assert np.array_equal(m1.offsets, m2.offsets)
    assert m1.log_likelihoods == m2.log_likelihoods

    m3, *_ = fitted_planted(seed=4)
    assert np.array_equal(m3.offsets, m1.offsets)
    assert not np.array_equal(m3.topics, m1.topics)


def test_fit_lda_distributions_are_normalized():
    model, *_ = fitted_planted()
    assert np.allclose(model.phi.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(model.theta.sum(axis=1), 1.0, atol=1e-12)
    assert (model.phi > 0).all() and (model.theta > 0).all()  # smoothing


def test_fit_lda_counts_match_assignments_exactly():
    model, sequences, _, vocab = fitted_planted()
    k = model.config.k
    n_wk = np.zeros((k, len(vocab)), dtype=np.int64)
    n_dk = np.zeros((len(sequences), k), dtype=np.int64)
    for d, (seq, labels) in enumerate(zip(sequences, per_document(model))):
        assert len(seq.tokens) == len(labels)
        for tok, z in zip(seq.tokens, labels):
            n_wk[z, vocab.index[tok]] += 1
            n_dk[d, z] += 1
    assert np.array_equal(model.topic_word_counts, n_wk)
    assert np.array_equal(model.doc_topic_counts, n_dk)
    total = sum(len(s.tokens) for s in sequences)
    assert int(model.topic_word_counts.sum()) == total
    assert int(model.doc_topic_counts.sum()) == total


def test_fit_lda_counts_match_assignments_around_dropped_documents():
    # empty, out-of-vocabulary-only and one-token documents between kept ones
    rng = np.random.default_rng(23)
    words = [f"w{i}" for i in range(12)]
    docs = [tuple(words[j] for j in rng.integers(0, 12, size=rng.integers(0, 6)))
            for _ in range(40)]
    docs[0], docs[5], docs[6], docs[-1] = ("w11",), (), ("w0",), ()
    sequences = [TokenSequence(f"d{i:02d}", t) for i, t in enumerate(docs)]
    vocab = build_vocabulary(sequences, 9)
    model = fit_lda(sequences, vocab, quick_config(k=3, iterations=1, burn_in=0))
    kept = [[vocab.index[t] for t in seq.tokens if t in vocab.index] for seq in sequences]
    assert model.doc_ids == tuple(s.doc_id for s, ids in zip(sequences, kept) if ids)
    n_wk = np.zeros((3, len(vocab)), dtype=np.int64)
    n_dk = np.zeros((len(model.doc_ids), 3), dtype=np.int64)
    for d, (ids, topics) in enumerate(zip(filter(None, kept), per_document(model))):
        assert len(ids) == len(topics)
        for w, z in zip(ids, topics):
            n_wk[z, w] += 1
            n_dk[d, z] += 1
    assert np.array_equal(model.topic_word_counts, n_wk)
    assert np.array_equal(model.doc_topic_counts, n_dk)


def test_fit_lda_log_likelihood_improves_on_structured_data():
    model, *_ = fitted_planted()
    ll = model.log_likelihoods
    assert len(ll) == model.config.iterations
    assert all(math.isfinite(v) for v in ll)
    assert np.mean(ll[-20:]) > np.mean(ll[:5])


def test_fit_lda_recovers_planted_topics():
    # alpha must stay well under doc_len/3, or the prior mass alone caps
    # theta below the 0.8 dominance bar even for perfectly sorted tokens
    model, _, labels, vocab = fitted_planted(seed=11, alpha=0.1)
    wa = [vocab.index[f"wa{i}"] for i in range(5)]
    wb = [vocab.index[f"wb{i}"] for i in range(5)]
    truth = np.zeros((2, len(vocab)))
    truth[0, wa] = 0.2
    truth[1, wb] = 0.2

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    straight = min(cos(model.phi[0], truth[0]), cos(model.phi[1], truth[1]))
    flipped = min(cos(model.phi[0], truth[1]), cos(model.phi[1], truth[0]))
    perm = (0, 1) if straight >= flipped else (1, 0)
    assert max(straight, flipped) >= 0.95

    # documents concentrate on their generating topic
    hits = sum(model.theta[d, perm[t]] >= 0.8 for d, t in enumerate(labels))
    assert hits / len(labels) >= 0.9


@pytest.mark.parametrize("k", [2, 3])
def test_each_topic_of_a_short_chain_is_one_planted_topic(k):
    # over seeds 0-39 the least pure topic kept 9 (k=2) and 8 (k=3) of its
    # top 10 words in one planted list
    for seed in range(8):
        sequences, _, topics = planted_topics(np.random.default_rng(seed), k)
        model = fit_lda(sequences, build_vocabulary(sequences),
                        LdaConfig(k=k, iterations=30, burn_in=0, seed=seed))
        for top in top_words_per_topic(model, 10):
            assert max(len(set(top) & set(words)) for words in topics) >= 7, (seed, top)


def test_fit_lda_single_topic_degenerates_to_frequencies():
    sequences = [TokenSequence("a", ("x", "x", "y")), TokenSequence("b", ("y", "z"))]
    vocab = build_vocabulary(sequences)
    model = fit_lda(sequences, vocab, LdaConfig(k=1, beta=0.5, iterations=5, burn_in=1, seed=0))
    counts = np.array([vocab.frequencies[vocab.index[t]] for t in model.terms], dtype=float)
    expect = (counts + 0.5) / (counts.sum() + 0.5 * len(vocab))
    assert np.allclose(model.phi[0], expect, atol=1e-15)
    assert np.allclose(model.theta, 1.0)


def test_fit_lda_strong_prior_flattens_theta():
    model, *_ = fitted_planted(alpha=5000.0)
    assert np.abs(model.theta - 0.5).max() < 0.01


def test_fit_lda_drops_empty_documents(caplog):
    sequences = [TokenSequence("a", ("x", "y")), TokenSequence("empty", ()),
                 TokenSequence("c", ("y", "z"))]
    vocab = build_vocabulary(sequences)
    with caplog.at_level(logging.WARNING, logger="corpus_scope.lda"):
        model = fit_lda(sequences, vocab, quick_config(iterations=10, burn_in=2))
    assert model.dropped_ids == ("empty",)
    assert model.doc_ids == ("a", "c")
    with pytest.raises(InputError, match="no document has in-vocabulary tokens"):
        fit_lda([TokenSequence("e", ())], vocab, quick_config())


def test_lda_config_validation():
    assert quick_config(k=4).alpha == pytest.approx(12.5)  # default 50/k
    with pytest.raises(ConfigError):
        LdaConfig(k=0)
    with pytest.raises(ConfigError):
        quick_config(alpha=-1.0)
    with pytest.raises(ConfigError):
        quick_config(beta=0.0)
    with pytest.raises(ConfigError):
        quick_config(iterations=0)
    with pytest.raises(ConfigError):
        quick_config(iterations=10, burn_in=10)
    # the longest log-likelihood array numpy can size
    assert quick_config(iterations=sys.maxsize // 8).iterations == sys.maxsize // 8
    with pytest.raises(ConfigError, match="iterations must be <="):
        quick_config(iterations=sys.maxsize // 8 + 1)


@pytest.mark.parametrize("prior", [{"alpha": math.nan}, {"alpha": math.inf},
                                   {"beta": math.inf}, {"beta": math.nan},
                                   {"alpha": -math.inf}])
def test_lda_config_rejects_non_finite_priors(prior):
    with pytest.raises(ConfigError, match="finite"):
        quick_config(**prior)


# ------------------------------------------------------------ initial state


@pytest.mark.parametrize("k", [1, 2, 3, 6, 7, 8, 50, 1000])
def test_draw_topics_python_reproduces_random_randrange(k):
    for seed in (0, 42, 2024):
        rng = Random(seed)
        expected = [rng.randrange(k) for _ in range(3000)]
        state = np.array(Random(seed).getstate()[1], dtype=np.uint32)
        assert lda._draw_topics_python(state, k, 3000).tolist() == expected
        # the state continues where random() would after the last randrange
        after = lda._generator(state)
        assert [after.random() for _ in range(3)] == [rng.random() for _ in range(3)]


def count_tables(offsets, words, z, p, k):
    """The n_wk, n_dk and n_k tables of assignments ``z``, counted one by one."""
    n_wk = np.zeros((p, k), np.int64)
    n_dk = np.zeros((offsets.size - 1, k), np.int64)
    for d in range(offsets.size - 1):
        for i in range(offsets[d], offsets[d + 1]):
            n_wk[words[i], z[i]] += 1
            n_dk[d, z[i]] += 1
    return n_wk, n_dk, n_wk.sum(axis=0)


@pytest.mark.parametrize("k", [1, 2, 6, 50, 1000, 2**32 - 1])
def test_python_twins_leave_the_state_where_random_random_is(k):
    # 700 topics and 3 sweeps over them: a fresh state twists at its first
    # output, and these draws cross several more twists
    n, sweeps = 700, 3
    for seed in (0, 42):
        rng = Random(seed)
        state = np.array(rng.getstate()[1], dtype=np.uint32)
        topics = lda._draw_topics_python(state, k, n)
        assert topics.dtype == np.int32  # the native draw's type, wrapping past 2**31
        assert topics.view(np.uint32).tolist() == [rng.randrange(k) for _ in range(n)]
        assert tuple(state.tolist()) == rng.getstate()[1]

        chain_k = min(k, 50)  # the count tables hold p x k entries
        offsets = np.array([0, 300, 301, n], np.int64)
        words = (np.arange(n) % 7).astype(np.int32)
        z = (topics % chain_k).astype(np.int32)
        n_wk, n_dk, n_k = count_tables(offsets, words, z, 7, chain_k)
        table = lda._gammaln_table(n_wk, 0.1)
        log_likelihoods = np.full(sweeps, np.nan)
        assert lda._chain_python(offsets, words, z, n_wk, n_dk, n_k, 0.5, 0.1, state,
                                 table, log_likelihoods) == 0
        assert np.isfinite(log_likelihoods).all()
        for mine, counted in zip((n_wk, n_dk, n_k), count_tables(offsets, words, z, 7, chain_k)):
            assert np.array_equal(mine, counted)
        [rng.random() for _ in range(sweeps * n)]  # one uniform per token and sweep
        assert tuple(state.tolist()) == rng.getstate()[1]


def test_the_python_chain_saves_the_state_when_a_check_fails():
    state = np.array(Random(3).getstate()[1], dtype=np.uint32)
    offsets, words = np.array([0, 4], np.int64), np.array([0, 1, 0, 1], np.int32)
    z = np.zeros(4, np.int32)
    n_wk, n_dk, n_k = count_tables(offsets, words, z, 2, 2)
    n_k[1] += 1  # one token too many in the topic totals
    table = lda._gammaln_table(n_wk, 0.1)
    assert lda._chain_python(offsets, words, z, n_wk, n_dk, n_k, 0.5, 0.1, state,
                             table, np.empty(5)) == 1
    rng = Random(3)
    [rng.random() for _ in range(4)]  # the one sweep that ran
    assert tuple(state.tolist()) == rng.getstate()[1]


# ------------------------------------------------------------ sweep backends


def assert_same_chain(a, b):
    assert np.array_equal(a.topics, b.topics)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.topic_word_counts, b.topic_word_counts)
    assert np.array_equal(a.doc_topic_counts, b.doc_topic_counts)
    assert a.log_likelihoods == b.log_likelihoods
    assert a.phi.tobytes() == b.phi.tobytes()
    assert a.theta.tobytes() == b.theta.tobytes()


def backend_case(case):
    """(sequences, vocab, config) for one comparison."""
    sequences, _ = planted_corpus(np.random.default_rng(31), n_docs=40)
    config = LdaConfig(iterations=60, burn_in=20, seed=7)  # default k and priors
    if case == "single_topic":
        config = quick_config(k=1)
    elif case == "empty_document":
        sequences = [*sequences[:5], TokenSequence("empty", ()), *sequences[5:]]
        config = quick_config()
    elif case == "many_topics":
        # 10 terms x 50 topics: the sum over n_wk takes numpy's recursive branch
        config = LdaConfig(k=50, iterations=40, burn_in=10, seed=3)
    return sequences, build_vocabulary(sequences), config


def in_vocabulary_tokens(sequences, vocab):
    return lda._vectorize(sequences, vocab)[2].size


@pytest.mark.parametrize("case", ["defaults", "single_topic", "empty_document",
                                  "many_topics", "blocks"])
def test_native_sweep_reproduces_the_python_sweep(case, monkeypatch):
    if shutil.which("g++") is None:
        pytest.skip("no C++ compiler to build the native sweep")
    assert gibbs_backend() == "native"
    sequences, vocab, config = backend_case(case)
    if case == "blocks":  # 60 sweeps in calls of 7, the last one of 4
        tokens = in_vocabulary_tokens(sequences, vocab)
        monkeypatch.setattr(lda, "CHAIN_TOKENS", 7 * tokens + tokens - 1)
    native = fit_lda(sequences, vocab, config)
    monkeypatch.setattr(_native, "library", lambda: None)
    assert gibbs_backend() == "python"
    python = fit_lda(sequences, vocab, config)
    assert_same_chain(native, python)


@needs_compiler
def test_a_chain_run_in_blocks_matches_one_call(monkeypatch):
    sequences, vocab, config = backend_case("defaults")
    tokens = in_vocabulary_tokens(sequences, vocab)
    lib = ChainSpy()
    monkeypatch.setattr(_native, "library", lambda: lib)
    whole = fit_lda(sequences, vocab, config)
    assert lib.blocks == [60] and 60 * tokens < lda.CHAIN_TOKENS
    for chain_tokens, blocks in ((1, [1] * 60), (9 * tokens, [9] * 6 + [6])):
        monkeypatch.setattr(lda, "CHAIN_TOKENS", chain_tokens)
        lib.blocks = []
        assert_same_chain(fit_lda(sequences, vocab, config), whole)
        assert lib.blocks == blocks


def spoil_after_check(monkeypatch, spoil):
    """Have fit_lda's tables pass their check, then apply ``spoil`` to them."""
    check = lda._check_tables

    def checked(offsets, words, z, n_wk, n_dk, n_k, p, k):
        check(offsets, words, z, n_wk, n_dk, n_k, p, k)
        spoil(words, n_wk, n_dk, n_k)

    monkeypatch.setattr(lda, "_check_tables", checked)


def add_one_to_n_k(words, n_wk, n_dk, n_k):
    n_k[0] += 1


def add_one_to_n_dk(words, n_wk, n_dk, n_k):
    n_dk[0, 0] += 1


def move_counts_below_zero(words, n_wk, n_dk, n_k):
    # more than the rarest word's tokens can win back in one sweep, so its
    # topic-0 count is still negative after it; the row and margins add up
    rarest = int(np.argmin(np.bincount(words)))
    shift = 2 * int(np.bincount(words)[rarest]) + 2
    n_wk[rarest, 0] -= shift
    n_wk[rarest, 1] += shift


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("spoil,message", [
    (add_one_to_n_k, "count conservation violated at sweep 0"),
    (add_one_to_n_dk, "count table margin mismatch at sweep 0"),
    (move_counts_below_zero, "count table entry out of range at sweep 0"),
])
def test_a_broken_count_table_stops_the_chain_at_sweep_0(backend, spoil, message,
                                                       monkeypatch):
    sequences, vocab, config = backend_case("defaults")
    spoil_after_check(monkeypatch, spoil)
    with use_backend(backend), pytest.raises(RuntimeError) as raised:
        fit_lda(sequences, vocab, config)
    assert str(raised.value) == message


def test_unbuildable_kernel_falls_back_to_the_python_sweep(monkeypatch, caplog):
    sequences, vocab, config = backend_case("defaults")
    expected = fit_lda(sequences, vocab, config)

    def no_compiler():
        raise FileNotFoundError("g++")

    monkeypatch.setattr(_native, "_build", no_compiler)
    _native.library.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger="corpus_scope._native"):
            fallback = fit_lda(sequences, vocab, config)
            assert gibbs_backend() == "python"
    finally:
        _native.library.cache_clear()
    assert len(caplog.records) == 1
    assert "Python sweep" in caplog.records[0].getMessage()
    assert_same_chain(fallback, expected)


def test_native_sweep_inputs_are_bounds_checked():
    offsets = np.array([0, 2])
    z = np.zeros(2, dtype=np.int32)
    n_wk, n_dk, n_k = (np.zeros(shape, np.int64) for shape in [(3, 2), (1, 2), 2])
    tables = (n_wk, n_dk, n_k)
    lda._check_tables(offsets, np.array([0, 2], np.int32), z, *tables, p=3, k=2)
    with pytest.raises(RuntimeError):  # word id 3 is outside a 3-term vocabulary
        lda._check_tables(offsets, np.array([0, 3], np.int32), z, *tables, p=3, k=2)


@needs_compiler
@pytest.mark.parametrize("spoil", ["dtype", "non_contiguous", "read_only"])
def test_native_sweep_inputs_are_layout_checked(spoil):
    # the chain's declaration checks each table's layout at the call, so a
    # table the sweep cannot read raises before it draws a uniform
    lib = _native.library()
    offsets, words = np.array([0, 2], np.int64), np.array([0, 2], np.int32)
    z = np.zeros(2, dtype=np.int32)
    n_wk = np.array([[1, 0], [0, 0], [1, 0]], np.int64)
    n_dk, n_k = np.array([[2, 0]], np.int64), np.array([2, 0], np.int64)
    state = np.array(Random(0).getstate()[1], dtype=np.uint32)
    table = lda._gammaln_table(n_wk, 0.01)

    def sweep(z=z, n_wk=n_wk, n_k=n_k):
        return lib.gibbs_chain(1, offsets, words, z, 3, 2, n_wk, n_dk, n_k, np.zeros(2), 0.1,
                               0.01, 0.03, state, table, table.size, 0.0, 1, np.empty(1))

    # the spoiled table and its place among the chain's arguments
    if spoil == "dtype":
        spoiled, argument = {"z": z.astype(np.int64)}, 4
    elif spoil == "non_contiguous":
        spoiled, argument = {"n_wk": np.zeros((2, 3), np.int64).T}, 7
    else:
        spoiled, argument = {"n_k": n_k.copy()}, 9
        spoiled["n_k"].flags.writeable = False
    before = state.copy()
    with pytest.raises(ctypes.ArgumentError, match=f"^argument {argument}: "):
        sweep(**spoiled)
    assert np.array_equal(state, before)
    assert sweep() == 0 and not np.array_equal(state, before)


def test_gammaln_table_log_likelihood_is_bit_identical():
    rng = np.random.default_rng(17)
    for beta, p, k in [(0.01, 50, 6), (0.37, 7, 3), (1e-3, 200, 50)]:
        words = rng.integers(0, p, size=4000).astype(np.int32)
        most = np.bincount(words).max()
        table = lda._gammaln_table(np.bincount(words)[:, None], beta)  # row totals
        assert table.size == most + 1
        n_wk = rng.integers(0, most + 1, size=(p, k))
        n_wk[rng.integers(p), rng.integers(k)] = most  # the largest count
        assert table[n_wk].sum() == gammaln(n_wk + beta).sum()
        n_k = n_wk.sum(axis=0)
        expected = k * (gammaln(p * beta) - p * gammaln(beta))
        expected += float(gammaln(n_wk + beta).sum() - gammaln(n_k + p * beta).sum())
        assert lda._log_likelihood(n_wk, n_k, k, p, beta, table) == expected
    assert lda._gammaln_table(np.zeros((0, 2), np.int64), 0.5).tolist() == [gammaln(0.5)]


def test_chain_matches_the_pinned_reference():
    # SHA-256 of the model file (assignments, counts, log-likelihoods) of the
    # chain the nested-list Python sampler ran before the flat-array sweeps
    # replaced it: both must continue that chain, including the hand-over
    # from the initial topics to the sweeps' random() uniforms
    sequences, _ = planted_corpus(np.random.default_rng(2024), n_docs=40)
    config = LdaConfig(k=3, iterations=30, burn_in=10, seed=42)
    model = fit_lda(sequences, build_vocabulary(sequences), config)
    digest = hashlib.sha256("".join(render_model(model)).encode()).hexdigest()
    assert digest == "15a8d7ec9c1026d1cda718054644e9a3c55865284f3050e9a4d089f5898a41d2"


def test_burn_in_is_recorded_but_does_not_change_the_estimates():
    sequences, vocab, config = backend_case("defaults")
    base = fit_lda(sequences, vocab, config)
    for burn_in in (0, config.iterations - 1):
        other = fit_lda(sequences, vocab, LdaConfig(iterations=60, burn_in=burn_in, seed=7))
        assert_same_chain(base, other)
        assert "".join(render_model(other)) == "".join(render_model(base)).replace(
            f"\nburn_in={config.burn_in}\n", f"\nburn_in={burn_in}\n")


# ------------------------------------------------------------ inspection


def test_top_words_per_topic_respects_counts_and_ties():
    model, *_ = fitted_planted()
    tops = top_words_per_topic(model, m=4)
    assert len(tops) == model.config.k
    for k_i, words in enumerate(tops):
        assert len(words) == 4
        counts = model.topic_word_counts[k_i]
        expect = sorted(range(len(model.terms)),
                        key=lambda j: (-int(counts[j]), model.terms[j]))[:4]
        assert words == [model.terms[j] for j in expect]
    everything = top_words_per_topic(model, m=10_000)
    assert all(len(words) == len(model.terms) for words in everything)
    with pytest.raises(ConfigError):
        top_words_per_topic(model, m=0)


def lexsort_top(counts, rank, m):
    """The order _top_columns must give: a full lexsort of every row."""
    return np.lexsort((np.broadcast_to(rank, counts.shape), -counts), axis=-1)[:, :m]


@st.composite
def topic_count_rows(draw):
    """Few distinct counts, so that ties are common; one row or several, and
    m below, at and above the number of columns."""
    k, v = draw(st.integers(1, 4)), draw(st.integers(1, 30))
    counts = draw(st.lists(st.integers(0, 3), min_size=k * v, max_size=k * v))
    rank = draw(st.permutations(range(v)))
    m = draw(st.integers(1, v + 5))
    return np.array(counts, dtype=np.int64).reshape(k, v), np.array(rank, dtype=np.int64), m


@settings(max_examples=200, deadline=None)
@given(topic_count_rows())
def test_top_columns_is_the_lexsort_order(case):
    counts, rank, m = case
    assert _top_columns(counts, rank, m).tolist() == lexsort_top(counts, rank, m).tolist()


def test_top_columns_keys_fit_int64_up_to_the_stated_bound():
    v = 7
    largest = 2**63 // v - 1  # (largest + 1) * v <= 2**63
    counts = np.array([[largest, largest, 0, largest - 1, 5, largest, 1]], dtype=np.int64)
    rank = np.array([3, 0, 6, 1, 5, 2, 4])
    assert _top_columns(counts, rank, 4).tolist() == lexsort_top(counts, rank, 4).tolist()
    counts[0, 2] = largest + 1
    with pytest.raises(OverflowError, match="int64 sort key"):
        _top_columns(counts, rank, 4)


# ------------------------------------------------------------ the model file


def test_render_model_count_sections_match_str_join():
    model, *_ = fitted_planted(seed=23)
    assert model.topics.dtype == np.int32
    lengths = model.doc_topic_counts.sum(axis=1)
    assert model.offsets.tolist() == [0, *np.cumsum(lengths).tolist()]
    expected = "".join(
        f"[{name}]\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)
        for name, rows in (
            ("topic_word_counts", model.topic_word_counts.tolist()),
            ("doc_topic_counts", model.doc_topic_counts.tolist()),
            ("assignments", per_document(model)),
        )
    )
    assert expected + "[log_likelihoods]\n" in "".join(render_model(model))


def test_render_model_writes_every_field_of_the_model():
    # the file is written, never read back, so every field must reach it
    sequences, _ = planted_corpus(np.random.default_rng(17), n_docs=20)
    sequences += [TokenSequence("doc-empty", ()), TokenSequence("doc-void", ())]
    model = fit_lda(sequences, build_vocabulary(sequences),
                    quick_config(k=3, iterations=5, burn_in=1))
    assert model.dropped_ids == ("doc-empty", "doc-void")
    assert model.topics.dtype == np.int32 and model.offsets.dtype == np.int64
    cfg = model.config
    lines = [
        "corpus-scope-lda v1", f"k={cfg.k}", f"alpha={cfg.alpha!r}", f"beta={cfg.beta!r}",
        f"iterations={cfg.iterations}", f"burn_in={cfg.burn_in}", f"seed={cfg.seed}",
        "sample_averaging=0", f"n_docs={len(model.doc_ids)}",
        f"n_terms={len(model.terms)}", "dropped=doc-empty;doc-void",
        "[terms]", *model.terms, "[documents]", *model.doc_ids,
    ]
    for name, rows in (("topic_word_counts", model.topic_word_counts.tolist()),
                       ("doc_topic_counts", model.doc_topic_counts.tolist()),
                       ("assignments", per_document(model))):
        lines += [f"[{name}]", *(",".join(map(str, row)) for row in rows)]
    lines += ["[log_likelihoods]", *map(repr, model.log_likelihoods)]
    assert "".join(render_model(model)) == "\n".join(lines) + "\n"


def test_render_model_escapes_what_would_split_a_document_id():
    # quoted CSV ids may hold a line break, a backslash or the `;` that
    # separates dropped ids; each stays one line and one item
    sequences, _ = planted_corpus(np.random.default_rng(5), n_docs=4)
    kept = ("A\nB", "C", "D;E", "F\\n\r")
    sequences = [TokenSequence(i, s.tokens) for i, s in zip(kept, sequences)]
    sequences += [TokenSequence("G;H", ()), TokenSequence("I\\x3b\n", ())]
    model = fit_lda(sequences, build_vocabulary(sequences),
                    quick_config(k=2, iterations=2, burn_in=0))
    assert model.doc_ids == kept and model.dropped_ids == ("G;H", "I\\x3b\n")
    lines = "".join(render_model(model)).split("\n")
    docs = lines[lines.index("[documents]") + 1:lines.index("[topic_word_counts]")]
    assert docs == ["A\\nB", "C", "D\\x3bE", "F\\\\n\\r"]
    dropped = next(line for line in lines if line.startswith("dropped="))
    assert dropped == "dropped=G\\x3bH;I\\\\x3b\\n"

    def unescape(text):
        return re.sub(r"\\(\\|r|n|x3b)",
                      lambda m: {"\\": "\\", "r": "\r", "n": "\n", "x3b": ";"}[m[1]], text)

    assert tuple(map(unescape, docs)) == model.doc_ids
    assert tuple(map(unescape, dropped[len("dropped="):].split(";"))) == model.dropped_ids
