"""Traced memory budgets of the layers that hold corpus-sized arrays.

Each budget is stated in arrays of the corpus's own size: ``8 * nnz`` bytes
for correspondence analysis (one float64 per stored DTM cell) and ``8 * N``
bytes for the token layers (one int64 per token). A layer that starts
copying one such array again goes over its budget.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import ChainSpy, needs_compiler
from corpus_scope import _lapack, _native, lda
from corpus_scope.bigrams import count_bigrams
from corpus_scope.lsa import fit_ca
from corpus_scope.text_pipeline import TokenArray, build_dtm, build_vocabulary

_lapack._bundled()  # loaded here, so that loading the library is not traced in fit_ca


@pytest.fixture(scope="module")
def tokens():
    """~600k Zipf-distributed tokens over 4000 documents; every document
    starts with one of the 20 most frequent types, so none is empty."""
    rng = np.random.default_rng(5)
    n_docs, n_types = 4000, 6000
    lengths = np.maximum(rng.poisson(150, size=n_docs), 40)
    codes = ((rng.zipf(1.2, size=int(lengths.sum())) - 1) % n_types).astype(np.int32)
    codes[:n_types] = np.arange(n_types)  # every type occurs
    codes[np.cumsum(lengths)[:-1]] = rng.integers(0, 20, size=n_docs - 1)
    return TokenArray(
        doc_ids=tuple(f"doc{d:05d}" for d in range(n_docs)),
        offsets=np.concatenate(([0], np.cumsum(lengths))).astype(np.int64),
        codes=codes,
        types=tuple(f"w{i:05d}" for i in range(n_types)),
    )


def traced_peak(compute) -> int:
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_ca_holds_at_most_two_and_a_half_cell_arrays(tokens):
    vocab = build_vocabulary(tokens, 300)
    # the same tokens, except that 91 documents hold only an out-of-vocabulary
    # type, so fit_ca drops their empty rows and keeps every column
    emptied = range(100, len(tokens), 43)
    codes = tokens.codes.copy()
    oov = next(c for c, t in enumerate(tokens.types) if t not in vocab.index)
    for d in emptied:
        codes[tokens.offsets[d]:tokens.offsets[d + 1]] = oov
    for sequences, empty_rows in ((tokens, 0), (replace(tokens, codes=codes), len(emptied))):
        dtm = build_dtm(sequences, vocab)
        assert (dtm.row_totals == 0).sum() == empty_rows and (dtm.col_totals > 0).all()
        cells = 8 * dtm.csr.nnz
        peak = traced_peak(lambda: fit_ca(dtm, dims=5, solver="lanczos"))
        assert peak < 2.5 * cells, (
            f"fit_ca peak {peak / cells:.2f} cell arrays with {empty_rows} empty rows")


def test_fit_lda_set_up_holds_at_most_two_token_arrays(tokens, monkeypatch):
    # measured from the vectorized tokens to the first check of the tables,
    # which is where the set-up ends and the sweeps begin
    seen = {}
    vectorize, check = lda._vectorize, lda._check_tables

    def vectorized(*args):
        result = vectorize(*args)
        tracemalloc.reset_peak()
        seen["start"] = tracemalloc.get_traced_memory()[0]
        return result

    def checked(offsets, words, *args, **kwargs):
        seen["peak"], seen["tokens"] = tracemalloc.get_traced_memory()[1], words.size
        raise StopIteration

    monkeypatch.setattr(lda, "_vectorize", vectorized)
    monkeypatch.setattr(lda, "_check_tables", checked)
    vocab = build_vocabulary(tokens, 300)
    with pytest.raises(StopIteration):
        traced_peak(lambda: lda.fit_lda(tokens, vocab, lda.LdaConfig(k=6, iterations=1,
                                                                     burn_in=0)))
    token_arrays = (seen["peak"] - seen["start"]) / (8 * seen["tokens"])
    assert token_arrays < 2.0, f"fit_lda set-up peak {token_arrays:.2f} token arrays"


@needs_compiler
def test_fit_lda_chain_holds_less_than_half_a_token_array(tokens, monkeypatch):
    # measured from the first check of the tables to the end of the last
    # native call, over the gammaln table and three sweeps in one call and
    # in three: the uniforms are drawn where they are read
    seen = {}
    check = lda._check_tables

    def checked(*args, **kwargs):
        check(*args, **kwargs)
        tracemalloc.reset_peak()
        seen["start"] = tracemalloc.get_traced_memory()[0]

    monkeypatch.setattr(lda, "_check_tables", checked)
    vocab = build_vocabulary(tokens, 300)
    config = lda.LdaConfig(k=6, iterations=3, burn_in=0)
    n_tokens = lda._vectorize(tokens, vocab)[2].size
    for chain_tokens, blocks in ((lda.CHAIN_TOKENS, [3]), (n_tokens, [1, 1, 1])):
        spy = ChainSpy(after=lambda: seen.update(peak=tracemalloc.get_traced_memory()[1]))
        monkeypatch.setattr(_native, "library", lambda: spy)
        monkeypatch.setattr(lda, "CHAIN_TOKENS", chain_tokens)
        traced_peak(lambda: lda.fit_lda(tokens, vocab, config))
        assert spy.blocks == blocks
        token_arrays = (seen["peak"] - seen["start"]) / (8 * n_tokens)
        assert token_arrays < 0.5, f"fit_lda chain peak {token_arrays:.2f} token arrays"


def test_count_bigrams_holds_at_most_two_token_arrays(tokens):
    token_arrays = traced_peak(lambda: count_bigrams(tokens)) / (8 * tokens.codes.size)
    assert token_arrays < 2.0, f"count_bigrams peak {token_arrays:.2f} token arrays"
