import contextlib
import importlib.resources
import os
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import corpus_scope
from corpus_scope import _native
from corpus_scope.corpus_ingest import Corpus, Document, parse_file
from corpus_scope.text_pipeline import CSRCounts, SparseDTM, encode_tokens


def planted_corpus(rng, n_docs=60, doc_len=30):
    """Synthetic docs drawn from two topics with disjoint vocabularies.

    Even documents use only wa0..wa4, odd ones only wb0..wb4, so a two-topic
    model has an unambiguous ground truth. Returns (the token array, labels).
    """
    topics = [[f"wa{i}" for i in range(5)], [f"wb{i}" for i in range(5)]]
    docs, labels = [], []
    for d in range(n_docs):
        t = d % 2
        docs.append([topics[t][int(rng.integers(5))] for _ in range(doc_len)])
        labels.append(t)
    return encode_tokens([f"doc{d:03d}" for d in range(n_docs)], docs), labels


def planted_topics(rng, k, n_docs=300, doc_len=40):
    """Documents drawn from ``k`` planted topics, with noise shared by all.

    Topic t owns the 20 words ``t{t}w0..t{t}w19``; document d is about topic
    ``d % k``, and each of its tokens is a uniform draw from that topic's
    words, or with probability 0.25 a Zipf draw from 200 shared noise words.
    Returns (the token array, each document's topic, the topic word lists).
    """
    topics = [[f"t{t}w{i}" for i in range(20)] for t in range(k)]
    noise = [f"n{i}" for i in range(200)]
    zipf = 1.0 / np.arange(1, len(noise) + 1)
    docs, labels = [], []
    for d in range(n_docs):
        t = d % k
        is_noise = rng.random(doc_len) < 0.25
        noisy = rng.choice(len(noise), size=doc_len, p=zipf / zipf.sum())
        topical = rng.integers(20, size=doc_len)
        docs.append([noise[n] if on else topics[t][w]
                     for on, n, w in zip(is_noise.tolist(), noisy.tolist(), topical.tolist())])
        labels.append(t)
    return encode_tokens([f"doc{d:03d}" for d in range(n_docs)], docs), labels, topics


PLANTED_COUNTRIES = tuple(f"Country {c}" for c in "ABCDEFGHIJKL")


def planted_records(rng, n_docs=2000):
    """Documents whose years rise linearly and whose countries are uniform.

    Each document's year is drawn from 2000-2023 with weights rising
    linearly from 1 to 4, and its one country uniformly from the 12
    :data:`PLANTED_COUNTRIES`; its title and abstract are 4 and 8 draws from
    50 shared words. Returns (the corpus, the expected documents a year
    gains per year).
    """
    years = np.arange(2000, 2024)
    weights = np.linspace(1.0, 4.0, years.size)
    weights /= weights.sum()
    drawn = rng.choice(years, size=n_docs, p=weights).tolist()
    countries = rng.integers(len(PLANTED_COUNTRIES), size=n_docs).tolist()
    words = rng.integers(50, size=(n_docs, 12)).tolist()
    documents = tuple(
        Document(id=f"P{d:05d}", title=" ".join(f"w{w}" for w in words[d][:4]),
                 abstract=" ".join(f"w{w}" for w in words[d][4:]), year=drawn[d],
                 countries=(PLANTED_COUNTRIES[countries[d]],))
        for d in range(n_docs))
    return Corpus(documents), n_docs * (weights[1] - weights[0])


def make_dtm(matrix, doc_ids=None, terms=None) -> SparseDTM:
    """Wrap a raw count matrix as a SparseDTM without going through text."""
    X = np.asarray(matrix, dtype=np.int64)
    n_docs, n_terms = X.shape
    rows, cols = np.nonzero(X)
    indptr = np.searchsorted(rows, np.arange(n_docs + 1)).astype(np.int32)
    csr = CSRCounts(indptr, cols.astype(np.int32), X[rows, cols], (n_docs, n_terms))
    return SparseDTM(
        doc_ids=tuple(doc_ids) if doc_ids else tuple(f"r{i}" for i in range(n_docs)),
        terms=tuple(terms) if terms else tuple(f"c{j}" for j in range(n_terms)),
        csr=csr,
        row_totals=X.sum(axis=1),
        col_totals=X.sum(axis=0),
        n_total=int(X.sum()),
    )


SRC = Path(corpus_scope.__file__).resolve().parent.parent


def child_env() -> dict[str, str]:
    """This process's environment with the imported source tree first on
    ``PYTHONPATH``, for tests that start a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


needs_compiler = pytest.mark.skipif(shutil.which("g++") is None,
                                    reason="no C++ compiler to build the kernels")

# the compiled and the plain-Python kernels, for tests that run under each
BACKENDS = [pytest.param("native", marks=needs_compiler), "python"]


@contextlib.contextmanager
def use_backend(name):
    """Run the body with the compiled kernels, or as if they failed to load."""
    if name == "native":
        assert _native.backend() == "native"
        yield
    else:
        with mock.patch.object(_native, "library", lambda: None):
            yield


def native_and_python(compute):
    """``compute()`` under the compiled kernels, then under the Python twins."""
    with use_backend("native"):
        native = compute()
    with use_backend("python"):
        return native, compute()


class ChainSpy:
    """The compiled library, recording the sweeps of each ``gibbs_chain``
    call on ``blocks`` and calling ``after()`` when the call returns."""

    def __init__(self, after=lambda: None):
        self.lib, self.blocks, self.after = _native.library(), [], after

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def gibbs_chain(self, *args):
        status = self.lib.gibbs_chain(*args)
        self.blocks.append(args[-2])
        self.after()
        return status


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled kernels into a per-session cache directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(scope="session")
def mini_corpus_path() -> Path:
    res = importlib.resources.files("corpus_scope").joinpath("data/mini_corpus.csv")
    return Path(str(res))


@pytest.fixture(scope="session")
def mini_corpus(mini_corpus_path):
    corpus, _ = parse_file(mini_corpus_path)
    return corpus
