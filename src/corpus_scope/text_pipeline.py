"""Tokenization, stopword removal, the token array, vocabulary capping, and
the sparse DTM as plain CSR arrays.

:func:`build_sequences` lowercases each document on its own with
``str.lower``, which keeps the final-sigma rule per document, and encodes
the tokens of all documents as one :class:`TokenArray`. Every consumer reads
that array: the vocabulary is a ``bincount`` over its codes, the DTM is
counted document by document through a type-to-column lookup, and strings
are decoded only for what is written out. The DTM is :class:`CSRCounts`,
three numpy arrays, so a run imports no ``scipy.sparse``.

The data files' text comes from :func:`csv_table` and :func:`line_chunks`;
``ca_coords.csv``'s rows go through ``line_chunks``' compiled float
formatter, about ten times faster on them than :func:`csv_field`, and only
their labels through :func:`csv_field`.
"""

from __future__ import annotations

import ctypes
import re
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import _native
from .errors import ConfigError, InputError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .corpus_ingest import Corpus

_WORD_RE = re.compile(r"\w+")

DEFAULT_VOCAB_SIZE = 1000
DEFAULT_TEXT_FIELDS = ("title", "abstract", "keywords")


def _has_letter(token: str) -> bool:
    return token.isalpha() or any(c.isalpha() for c in token)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-word boundaries; keep tokens with a letter.

    Letterless runs (pure numbers, pure punctuation) are dropped, so
    "Data-driven Science, 2022!" yields ['data', 'driven', 'science'].
    Idempotent: tokenizing its own joined output changes nothing.
    """
    return [t for t in _WORD_RE.findall(text.lower()) if _has_letter(t)]


def remove_stopwords(tokens: Sequence[str], stoplist: frozenset[str]) -> list[str]:
    """Drop stoplisted tokens, preserving order. Case-sensitive on purpose:
    tokens are already lowercased and stoplists are normalized on load."""
    return [t for t in tokens if t not in stoplist]


def _parse_stoplist(text: str) -> frozenset[str]:
    """One term per line; '#' starts a comment, blanks are ignored. Terms are
    normalized to lowercase."""
    terms = set()
    for line in text.splitlines():
        term = line.split("#", 1)[0].strip().lower()
        if term:
            terms.add(term)
    return frozenset(terms)


def load_stoplist(path) -> frozenset[str]:
    """Read one term per line; '#' starts a comment, blanks are ignored.
    Terms are normalized to lowercase; a leading byte-order mark is skipped.
    A file that does not read or is not UTF-8 raises InputError."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read stoplist {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"stoplist {p} is not valid UTF-8: {exc}") from exc
    return _parse_stoplist(text)


def default_stoplist() -> frozenset[str]:
    """The bundled English function-word list (articles, pronouns,
    prepositions, conjunctions, auxiliaries)."""
    ref = resources.files("corpus_scope.data").joinpath("stopwords_en.txt")
    return _parse_stoplist(ref.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class TokenSequence:
    """Ordered tokens of one document after cleaning."""

    doc_id: str
    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True, eq=False)
class TokenArray:
    """The cleaned tokens of every document as integer codes in one array.

    Document d owns ``codes[offsets[d]:offsets[d + 1]]`` and code c stands
    for ``types[c]``. ``types`` lists each distinct token once, sorted, so
    code order is term order; every type occurs at least once. Indexing or
    iterating decodes documents back to :class:`TokenSequence`.
    """

    doc_ids: tuple[str, ...]
    offsets: np.ndarray = field(repr=False)  # int64, one more than documents
    codes: np.ndarray = field(repr=False)  # int32
    types: tuple[str, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __getitem__(self, d: int) -> TokenSequence:
        d = range(len(self))[d]
        codes = self.codes[self.offsets[d] : self.offsets[d + 1]].tolist()
        return TokenSequence(self.doc_ids[d], tuple(map(self.types.__getitem__, codes)))

    def __iter__(self) -> Iterator[TokenSequence]:
        return map(self.__getitem__, range(len(self)))

    def take(self, rows) -> "TokenArray":
        """The documents at ``rows``, in that order, coded over only the
        types they hold: what :func:`build_sequences` makes of those
        documents alone."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        ends = np.concatenate(([0], np.cumsum(lengths)))
        raw = self.codes[np.repeat(starts - ends[:-1], lengths) + np.arange(ends[-1])]
        held = set(compress(self.types, np.bincount(raw, minlength=len(self.types)).tolist()))
        return _renumber([self.doc_ids[r] for r in rows.tolist()], list(self.types), raw,
                         ends, held.__contains__)

    def doc_index(self) -> np.ndarray:
        """The document number of every token (int64, aligned with ``codes``)."""
        lengths = np.diff(self.offsets)
        return np.repeat(np.arange(len(self), dtype=np.int64), lengths)

    def vocab_lookup(self, vocab: "Vocabulary") -> np.ndarray:
        """Each type's column in ``vocab`` (int32, aligned with ``types``);
        -1 when it is not in it."""
        get = vocab.index.get
        return np.fromiter((get(t, -1) for t in self.types), np.int32, len(self.types))


def _first_appearance() -> defaultdict[str, int]:
    """A dict that gives each new token the next code as it is looked up."""
    seen: defaultdict[str, int] = defaultdict()
    seen.default_factory = seen.__len__
    return seen


def _encode(
    doc_ids: Sequence[str],
    token_lists: Iterable[Sequence[str]],
    keep: Callable[[str], bool] | None = None,
) -> TokenArray:
    """One pass over per-document token lists into a :class:`TokenArray`.

    Tokens get provisional codes in order of first appearance; ``keep``
    then runs once per distinct token, and the kept ones are renumbered in
    sorted order while the others drop out.
    """
    seen = _first_appearance()
    raw: list[int] = []
    ends = [0]
    for tokens in token_lists:
        raw += map(seen.__getitem__, tokens)
        ends.append(len(raw))
    return _renumber(doc_ids, list(seen), np.array(raw, dtype=np.int32),
                     np.array(ends, dtype=np.int64), keep)


def _renumber(
    doc_ids: Sequence[str],
    seen: list[str],
    raw: np.ndarray,
    ends: np.ndarray,
    keep: Callable[[str], bool] | None,
) -> TokenArray:
    """The token array of provisional codes ``raw`` (``seen`` lists the
    distinct tokens in code order) whose documents end at ``ends``, with the
    tokens ``keep`` rejects dropped and the rest coded in sorted order."""
    kept = sorted(seen if keep is None else filter(keep, seen))
    code = dict(zip(kept, range(len(kept))))
    remap = np.fromiter((code.get(t, -1) for t in seen), np.int32, len(seen))
    codes, offsets = remap_tokens(raw, ends, remap)
    return TokenArray(doc_ids=tuple(doc_ids), offsets=offsets, codes=codes,
                      types=tuple(kept))


def remap_tokens(raw: np.ndarray, ends: np.ndarray,
                 remap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every token's code through ``remap``, without those it maps to -1.

    Document d owns ``raw[ends[d]:ends[d + 1]]``. Returns the kept codes
    (int32) and their int64 document offsets, from ``remap_tokens`` in
    ``_native.cpp`` or, without the library, from :func:`_remap_python`.
    """
    raw = np.ascontiguousarray(raw, dtype=np.int32)
    ends = np.ascontiguousarray(ends, dtype=np.int64)
    remap = np.ascontiguousarray(remap, dtype=np.int32)
    lib = _native.library()
    if lib is None:
        return _remap_python(raw, ends, remap)
    codes = np.empty(raw.size, dtype=np.int32)
    offsets = np.empty(ends.size, dtype=np.int64)
    kept = lib.remap_tokens(raw.ctypes.data, raw.size, ends.ctypes.data, ends.size - 1,
                            remap.ctypes.data, remap.size, codes.ctypes.data,
                            offsets.ctypes.data)
    if kept < 0:
        raise IndexError("token code or document end out of range")
    return codes[:kept].copy(), offsets


def _remap_python(raw: np.ndarray, ends: np.ndarray,
                  remap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Python twin of ``remap_tokens``."""
    codes = remap[raw]
    mask = codes >= 0
    kept_before = np.concatenate(([0], np.cumsum(mask, dtype=np.int64)))
    return codes[mask], kept_before[ends]


# re's \w on str patterns is str.isalnum() or "_". The compiled tokenizer
# reads it from this table for ASCII and, above, from a sorted array of the
# word code points of each chunk.
_ASCII_WORD = np.array([chr(c).isalnum() or c == ord("_") for c in range(128)],
                       dtype=np.uint8)
# documents are tokenized in groups of about this many code points, each
# document whole: a buffer of the whole corpus would raise the peak memory
_TOKENIZE_CHUNK = 1 << 20


def _chunks(texts: Iterable[str]) -> Iterator[list[str]]:
    chunk: list[str] = []
    size = 0
    for text in texts:
        chunk.append(text)
        size += len(text)
        if size >= _TOKENIZE_CHUNK:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def _encode_native(
    lib, doc_ids: Sequence[str], texts: Iterable[str], keep: Callable[[str], bool]
) -> TokenArray:
    """``_encode(doc_ids, map(_WORD_RE.findall, texts), keep)``, with the
    word runs split and interned by ``intern_words`` in ``_native.cpp``.

    Each chunk is one UTF-32 buffer; ``surrogatepass`` lets a lone surrogate
    through, as ingest does. One word table lasts the whole corpus and
    numbers its words by first appearance, as :func:`_encode`'s dict does;
    only the words new in a chunk are decoded to strings. The table is freed
    however the loop ends.
    """
    table = lib.word_table_new()
    if not table:
        raise MemoryError("out of memory for the word table")
    words: list[str] = []
    raw = [np.zeros(0, dtype=np.int32)]
    ends = [np.zeros(1, dtype=np.int64)]
    before = 0
    try:
        for chunk in _chunks(texts):
            encoded = "".join(chunk).encode("utf-32-le", "surrogatepass")
            points = np.frombuffer(encoded, dtype=np.uint32)
            # the distinct code points above ASCII, ascending (np.unique
            # would import numpy.ma)
            wide = np.sort(points[points >= 128])
            wide = wide[np.diff(wide, prepend=0) != 0]
            wide = wide[np.fromiter((chr(c).isalnum() for c in wide.tolist()), bool, wide.size)]
            doc_ends = np.cumsum([len(t) for t in chunk], dtype=np.int64)
            if doc_ends[-1] != points.size:
                raise RuntimeError("tokenizer chunk is not one code point per character")
            # a run takes at least one code point, so this holds every run
            codes = np.empty(points.size, dtype=np.int32)
            token_ends = np.empty(len(chunk), dtype=np.int64)
            n = lib.intern_words(
                table, points.ctypes.data, len(chunk), doc_ends.ctypes.data,
                _ASCII_WORD.ctypes.data, wide.ctypes.data, wide.size, codes.ctypes.data,
                token_ends.ctypes.data,
            )
            if n < 0:
                raise MemoryError("out of memory interning words")
            if n > len(words):
                # the new words' text, each word followed by a space
                size = ctypes.c_int64()
                at = lib.word_chars(table, len(words), ctypes.byref(size))
                added = ctypes.string_at(at, 4 * size.value)
                words += str(added, "utf-32-le", "surrogatepass").split(" ")[:-1]
            raw.append(codes[: token_ends[-1]].copy())
            ends.append(token_ends + before)
            before += int(token_ends[-1])
    finally:
        lib.word_table_free(table)
    return _renumber(doc_ids, words, np.concatenate(raw), np.concatenate(ends), keep)


def as_token_array(sequences: TokenArray | Iterable[TokenSequence]) -> TokenArray:
    """The consumers' one entry point: a token array passes through, and
    :class:`TokenSequence` objects are encoded into one."""
    if isinstance(sequences, TokenArray):
        return sequences
    seqs = list(sequences)
    return _encode([s.doc_id for s in seqs], (s.tokens for s in seqs))


def _document_text(doc, fields: Sequence[str]) -> str:
    parts: list[str] = []
    for name in fields:
        if name == "keywords":
            parts.extend(doc.keywords)
        else:
            parts.append(getattr(doc, name))
    return " ".join(filter(None, parts))


def build_sequences(
    corpus: "Corpus",
    stoplist: frozenset[str],
    fields: Sequence[str] = DEFAULT_TEXT_FIELDS,
) -> TokenArray:
    """Tokenize each document's selected fields (concatenated in the given
    order), remove stopwords, and encode the result as one token array.

    Document d decodes to ``remove_stopwords(tokenize(text_d), stoplist)``,
    but the letter test and the stoplist lookup run once per distinct word,
    not once per token. The words are split and interned in C when the
    compiled library loads, else by ``re`` and a dict; both give the same
    array.
    """
    for name in fields:
        if name not in DEFAULT_TEXT_FIELDS:
            raise InputError(f"unknown text field: {name!r}")
    docs = list(corpus)
    ids = [d.id for d in docs]
    texts = (_document_text(d, fields).lower() for d in docs)

    def keep(token: str) -> bool:
        return token not in stoplist and _has_letter(token)

    lib = _native.library()
    if lib is None:
        return _encode(ids, map(_WORD_RE.findall, texts), keep)
    return _encode_native(lib, ids, texts, keep)


@dataclass(frozen=True)
class Vocabulary:
    """Capped term list, most frequent first; ties break lexicographically."""

    terms: tuple[str, ...]
    frequencies: tuple[int, ...]
    index: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.terms)


def build_vocabulary(
    sequences: TokenArray | Iterable[TokenSequence], p: int = DEFAULT_VOCAB_SIZE
) -> Vocabulary:
    """Count corpus-wide frequencies and keep the top ``p`` terms.

    Ordering is (frequency desc, term asc), which makes the result independent
    of document order. Raises InputError when no tokens exist at all.
    """
    if p < 1:
        raise ConfigError(f"vocabulary cap must be >= 1, got {p}")
    tokens = as_token_array(sequences)
    if tokens.codes.size == 0:
        raise InputError("no tokens in any document; cannot build vocabulary")
    counts = np.bincount(tokens.codes, minlength=len(tokens.types))
    # a stable sort keeps equal counts in code order, which is term order
    top = np.argsort(-counts, kind="stable")[:p].tolist()
    terms = tuple(tokens.types[j] for j in top)
    return Vocabulary(
        terms=terms,
        frequencies=tuple(counts[top].tolist()),
        index={t: i for i, t in enumerate(terms)},
    )


@dataclass(frozen=True, eq=False)
class CSRCounts:
    """A count matrix in compressed sparse row form.

    Row i stores ``data[indptr[i]:indptr[i + 1]]`` (int64) in the columns
    ``indices[indptr[i]:indptr[i + 1]]`` (int32); ``indptr`` is int32. The
    arrays are checked on construction: ``indptr`` ascends from 0 to the
    number of entries, and each row's columns strictly ascend within
    ``shape``, so entries are sorted and unique. A stored count may be 0.
    """

    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        indptr, indices, data = self.indptr, self.indices, self.data
        n_rows, n_cols = self.shape
        if (indptr.dtype != np.int32 or indices.dtype != np.int32
                or data.dtype != np.int64):
            raise ValueError("CSR arrays must be int32 indptr and indices, int64 data")
        if indptr.shape != (n_rows + 1,) or indices.ndim != 1 or data.shape != indices.shape:
            raise ValueError(f"CSR arrays do not fit the shape {self.shape}")
        if indptr[0] != 0 or indptr[-1] != indices.size or (np.diff(indptr) < 0).any():
            raise ValueError("CSR indptr must ascend from 0 to the number of entries")
        if indices.size and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError(f"CSR column index out of range for {n_cols} columns")
        # each step between neighbours ascends, except where a row begins
        ascends = np.diff(indices) > 0
        starts = indptr[1:-1]
        ascends[starts[(starts > 0) & (starts < indices.size)] - 1] = True
        if not ascends.all():
            raise ValueError("CSR columns must strictly ascend within each row")

    @property
    def nnz(self) -> int:
        """The number of stored entries."""
        return int(self.indices.size)

    def rows(self) -> np.ndarray:
        """The row of every stored entry (int64, aligned with ``data``)."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.int64)
        dense[self.rows(), self.indices] = self.data
        return dense


@dataclass(frozen=True)
class SparseDTM:
    """Document-term count matrix in CSR form.

    Rows follow corpus (id-sorted) order, columns follow vocabulary order.
    Marginals are precomputed; ``n_total`` is the grand total of counts.
    """

    doc_ids: tuple[str, ...]
    terms: tuple[str, ...]
    csr: CSRCounts = field(repr=False)
    row_totals: np.ndarray = field(repr=False)
    col_totals: np.ndarray = field(repr=False)
    n_total: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    def dense(self) -> np.ndarray:
        return self.csr.toarray()


def build_dtm(
    sequences: TokenArray | Iterable[TokenSequence], vocab: Vocabulary
) -> SparseDTM:
    """Count in-vocabulary tokens per document. Out-of-vocabulary tokens are
    ignored; documents with no in-vocabulary tokens keep an all-zero row so
    row order is stable.

    The counts come from ``count_dtm`` in ``_native.cpp`` or, without the
    library, from :func:`_count_python`; both give the same CSR arrays.
    """
    tokens = as_token_array(sequences)
    p = len(vocab)
    lookup = tokens.vocab_lookup(vocab)
    lib = _native.library()
    # count_dtm writes int32 index pointers, so it takes fewer than 2**31 tokens
    if lib is None or tokens.codes.size >= 2**31:
        csr, row_totals, col_totals = _count_python(tokens, lookup, p)
    else:
        csr, row_totals, col_totals = _count_native(lib, tokens, lookup, p)
    return SparseDTM(
        doc_ids=tokens.doc_ids,
        terms=vocab.terms,
        csr=csr,
        row_totals=row_totals,
        col_totals=col_totals,
        n_total=int(row_totals.sum()),
    )


def _count_native(lib, tokens: TokenArray, lookup: np.ndarray, p: int):
    """The CSR matrix and the row and column totals from ``count_dtm``."""
    n = len(tokens)
    codes = np.ascontiguousarray(tokens.codes, dtype=np.int32)
    offsets = np.ascontiguousarray(tokens.offsets, dtype=np.int64)
    indptr = np.empty(n + 1, dtype=np.int32)
    indices = np.empty(codes.size, dtype=np.int32)
    data = np.empty(codes.size, dtype=np.int64)
    row_totals = np.empty(n, dtype=np.int64)
    col_totals = np.zeros(p, dtype=np.int64)
    nnz = lib.count_dtm(codes.ctypes.data, codes.size, offsets.ctypes.data, n,
                        lookup.ctypes.data, lookup.size, p, indptr.ctypes.data,
                        indices.ctypes.data, data.ctypes.data, row_totals.ctypes.data,
                        col_totals.ctypes.data)
    if nnz == -2:
        raise MemoryError("out of memory counting the document-term matrix")
    if nnz < 0:
        raise IndexError("token code or document offset out of range")
    # copied out, so that the buffers sized for every token are freed
    # before the CSR type checks the entries
    indices, data = indices[:nnz].copy(), data[:nnz].copy()
    return CSRCounts(indptr, indices, data, (n, p)), row_totals, col_totals


def _count_python(tokens: TokenArray, lookup: np.ndarray, p: int):
    """The Python twin of ``count_dtm``: the CSR matrix and the row and
    column totals."""
    n = len(tokens)
    cols = lookup[tokens.codes]
    in_vocab = cols >= 0
    rows, cols = tokens.doc_index()[in_vocab], cols[in_vocab]
    # one key per (row, column) cell, ascending in row-major order
    cells, counts = np.unique(rows * p + cols, return_counts=True)
    row_totals = np.bincount(rows, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cells // p, minlength=n))))
    csr = CSRCounts(indptr.astype(np.int32), (cells % p).astype(np.int32),
                    counts.astype(np.int64), (n, p))
    return csr, row_totals, np.bincount(cols, minlength=p)


def export_matrixmarket(dtm: SparseDTM, comment: str = "") -> Iterator[str]:
    """Serialize counts as MatrixMarket coordinate text (1-based, row-major).

    The writer is deliberately hand-rolled: entry order and number formatting
    are pinned so output bytes are stable across library versions. The text
    comes in chunks of at most 2**16 values.
    """
    csr = dtm.csr
    n_rows, n_cols = dtm.shape
    lines = ["%%MatrixMarket matrix coordinate integer general"]
    if comment:
        for part in comment.splitlines():
            lines.append(f"% {part}")
    lines.append(f"{n_rows} {n_cols} {csr.nnz}")
    yield "\n".join(lines) + "\n"
    # (row, column, count) triples, a chunk at a time; entry i lies in the
    # 1-based row that counts the indptr values <= i
    step = _CHUNK // 3
    for lo in range(0, csr.nnz, step):
        hi = min(lo + step, csr.nnz)
        entries = np.empty((hi - lo, 3), dtype=np.int64)
        entries[:, 0] = np.searchsorted(csr.indptr, np.arange(lo, hi), "right")
        entries[:, 1] = csr.indices[lo:hi] + 1
        entries[:, 2] = csr.data[lo:hi]
        yield from line_chunks(entries, np.arange(3, entries.size + 1, 3), " ")


_CHUNK = 1 << 16


def line_chunks(values, row_ends, sep: str) -> Iterator[str]:
    """Numbers as text, one line per row, in chunks.

    Row r holds ``values[row_ends[r - 1]:row_ends[r]]`` (row 0 starts at 0)
    and reads ``sep.join(map(str, row)) + "\\n"`` for non-negative integers
    or ``sep.join(map(repr, row)) + "\\n"`` for floats; an empty row is a
    bare newline. Each chunk covers at most 2**16 values; a row may span
    chunks. The arguments are checked before the first chunk is asked for.
    """
    values = np.asarray(values).ravel()
    floats = values.dtype.kind == "f"
    if not floats and values.dtype.kind not in "iu":
        raise ConfigError(f"line_chunks takes integers or floats, got {values.dtype}")
    if not floats and values.size and (values.min() < 0 or values.max() >= 2**63):
        raise ConfigError("line_chunks takes non-negative int64 values only")
    ends = np.asarray(row_ends, dtype=np.int64).ravel()
    starts = np.concatenate(([0], ends[:-1]))
    if np.any(ends < starts) or (ends[-1] if ends.size else 0) != values.size:
        raise ConfigError("row_ends must ascend from 0 to the number of values")
    if len(sep) != 1 or not sep.isascii():
        raise ConfigError(f"separator must be one ASCII character, got {sep!r}")
    return _line_chunks(values, ends, sep, *((np.float64, repr) if floats else (np.int64, str)))


def _line_chunks(values, ends, sep, dtype, text) -> Iterator[str]:
    """The rows' text, 2**16 values at a time, from the compiled formatter
    or, when the library is unavailable, from ``sep.join(map(text, ...))``."""
    if not values.size:
        yield "\n" * ends.size
        return
    lib = _native.library()
    native = None
    if lib is not None:
        native = lib.format_ints if dtype is np.int64 else lib.format_doubles
    for lo in range(0, values.size, _CHUNK):
        hi = min(lo + _CHUNK, values.size)
        # the rows that end in this chunk; ends at 0 (leading empty rows)
        # belong to the first
        first = np.searchsorted(ends, lo, "right") if lo else 0
        rel = ends[first:np.searchsorted(ends, hi, "right")] - lo
        chunk = values[lo:hi].astype(dtype)
        if native is None:
            yield _join_rows(chunk.tolist(), rel.tolist(), sep, text)
            continue
        buf = np.empty(25 * chunk.size + rel.size, dtype=np.uint8)
        size = native(chunk.ctypes.data, chunk.size, rel.ctypes.data, rel.size,
                      sep.encode(), buf.ctypes.data)
        yield str(buf[:size].data, "ascii")


def _join_rows(values: list, ends: list[int], sep: str, text: Callable) -> str:
    """The Python twin of the compiled formatters, on one chunk.

    Values after the last row end start a row the next chunk continues, so
    they are followed by ``sep``.
    """
    parts, start = [], 0
    for end in ends:
        parts.append(sep.join(map(text, values[start:end])) + "\n")
        start = end
    if start < len(values):
        parts.append(sep.join(map(text, values[start:])) + sep)
    return "".join(parts)


def export_dtm_index(dtm: SparseDTM, comment: str = "") -> Iterator[str]:
    """Sidecar CSV mapping 1-based matrix positions to doc ids and terms, by
    :func:`csv_table` with ``comment`` as its comment line."""
    rows = chain(
        zip(repeat("doc"), count(1), dtm.doc_ids, dtm.row_totals.tolist()),
        zip(repeat("term"), count(1), dtm.terms, dtm.col_totals.tolist()),
    )
    return csv_table(("kind", "position", "label", "total"), rows, (comment,))


def csv_table(header: Sequence[str], rows: Iterable[Sequence],
              comments: Iterable[str] = ()) -> Iterator[str]:
    """A CSV table as text chunks: each non-empty comment as one ``# `` line
    (see :func:`_one_line`) and the header in the first, then the rows, 2048
    to a chunk. Every field goes through :func:`csv_field`, and every line
    ends in a bare line feed. A row not as wide as the header raises
    ValueError."""
    yield "".join(f"# {_one_line(c)}\n" for c in comments if c) + ",".join(
        map(csv_field, header)) + "\n"
    line = ",".join(["%s"] * len(header)) + "\n"  # a block is one %-format call
    rows = iter(rows)
    while block := list(islice(rows, 2048)):
        # one %-format over a block would shift a ragged row's fields silently
        if set(map(len, block)) != {len(header)}:
            raise ValueError(f"a row is not {len(header)} fields wide")
        yield (line * len(block)) % tuple(map(csv_field, chain.from_iterable(block)))


def csv_field(value) -> str:
    """``str(value)`` (a float's ``repr``), quoted (RFC 4180) when it holds a
    comma, a quote, a carriage return or a line feed. :mod:`csv`'s writer
    with ``lineterminator="\\n"`` leaves a lone carriage return bare, and a
    reader splits the record there."""
    if not isinstance(value, str):
        value = str(value)
    if "," in value or '"' in value or "\n" in value or "\r" in value:
        return '"' + value.replace('"', '""') + '"'
    return value


def _one_line(text: str) -> str:
    """``text`` with its CRs and LFs written as ``\\r`` and ``\\n``: one line."""
    return text.replace("\r", "\\r").replace("\n", "\\n")
