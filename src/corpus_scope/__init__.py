"""corpus-scope: batch text mining for bibliographic abstract corpora.

Submodules follow the processing order: corpus_ingest (records in),
text_pipeline (tokens and the document-term matrix), eda (yearly trend and
shares), lsa (correspondence analysis), lda (topic model), bigrams (word
networks), pipeline/cli (orchestration). Everything is deterministic for a
given input, configuration, and seed.

Importing the package loads no numpy: ``Corpus``, ``Document``, ``DocType``
and ``parse_records`` are resolved from ``corpus_ingest`` on first use, so
the CLI can set its BLAS policy before any BLAS library is loaded.
"""

__version__ = "0.1.0"

from .errors import CorpusScopeError  # noqa: F401

_FROM_INGEST = frozenset({"Corpus", "Document", "DocType", "parse_records"})


def __getattr__(name: str):
    if name in _FROM_INGEST:
        from . import corpus_ingest

        return getattr(corpus_ingest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
