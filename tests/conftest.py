import contextlib
import importlib.resources
import os
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy import sparse

import corpus_scope
from corpus_scope import _native
from corpus_scope.corpus_ingest import parse_file
from corpus_scope.text_pipeline import SparseDTM, TokenSequence


def planted_corpus(rng, n_docs=60, doc_len=30):
    """Synthetic docs drawn from two topics with disjoint vocabularies.

    Even documents use only wa0..wa4, odd ones only wb0..wb4, so a two-topic
    model has an unambiguous ground truth. Returns (sequences, labels).
    """
    topics = [[f"wa{i}" for i in range(5)], [f"wb{i}" for i in range(5)]]
    sequences, labels = [], []
    for d in range(n_docs):
        t = d % 2
        tokens = tuple(topics[t][int(rng.integers(5))] for _ in range(doc_len))
        sequences.append(TokenSequence(doc_id=f"doc{d:03d}", tokens=tokens))
        labels.append(t)
    return sequences, labels


def make_dtm(matrix, doc_ids=None, terms=None) -> SparseDTM:
    """Wrap a raw count matrix as a SparseDTM without going through text."""
    X = np.asarray(matrix, dtype=np.int64)
    n_docs, n_terms = X.shape
    csr = sparse.csr_matrix(X)
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


# the compiled and the plain-Python kernels, for tests that run under each
BACKENDS = [
    pytest.param("native", marks=pytest.mark.skipif(
        shutil.which("g++") is None, reason="no C++ compiler to build the kernels")),
    "python",
]


@contextlib.contextmanager
def use_backend(name):
    """Run the body with the compiled kernels, or as if they failed to load."""
    if name == "native":
        assert _native.backend() == "native"
        yield
    else:
        with mock.patch.object(_native, "library", lambda: None):
            yield


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
