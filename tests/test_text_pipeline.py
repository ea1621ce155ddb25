import csv
import hashlib
import io
import math
import struct
from unittest import mock

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BACKENDS, native_and_python, needs_compiler, use_backend
from corpus_scope import text_pipeline
from corpus_scope.bigrams import count_bigrams, export_graph, threshold_graph
from corpus_scope.corpus_ingest import Corpus, Document
from corpus_scope.errors import ConfigError, InputError
from corpus_scope.text_pipeline import (
    _TOKENIZE_CHUNK,
    TokenArray,
    TokenSequence,
    _chunks,
    as_token_array,
    build_dtm,
    build_sequences,
    build_vocabulary,
    csv_field,
    csv_table,
    default_stoplist,
    export_dtm_index,
    export_matrixmarket,
    line_chunks,
    load_stoplist,
    remap_tokens,
    remove_stopwords,
    tokenize,
)


def seqs(*token_lists):
    return [TokenSequence(doc_id=f"d{i}", tokens=tuple(t)) for i, t in enumerate(token_lists)]


# ---------------------------------------------------------------- tokenize


def test_tokenize_reference_example():
    assert tokenize("Data-driven Science, 2022!") == ["data", "driven", "science"]


@pytest.mark.parametrize(
    "text,expected",
    [
        ("", []),
        ("   \t\n", []),
        ("2022 3.14 100%", []),            # pure numbers carry no vocabulary
        ("covid19 h1n1", ["covid19", "h1n1"]),
        ("state-of-the-art", ["state", "of", "the", "art"]),
        ("Ünïcode Wörds", ["ünïcode", "wörds"]),
        ("a_b", ["a_b"]),                   # \w keeps underscores together
    ],
)
def test_tokenize_cases(text, expected):
    assert tokenize(text) == expected


def test_tokenize_is_idempotent_on_its_own_output():
    rng = np.random.default_rng(5)
    words = ["Data", "mining2", "éclair", "X-ray", "42", "models!"]
    for _ in range(50):
        text = " ".join(rng.choice(words, size=rng.integers(0, 10)))
        toks = tokenize(text)
        assert tokenize(" ".join(toks)) == toks


# ---------------------------------------------------------------- stopwords


def test_remove_stopwords_keeps_order_and_duplicates():
    stop = frozenset({"the", "of"})
    assert remove_stopwords(["the", "rise", "of", "rise", "the"], stop) == ["rise", "rise"]


def test_default_stoplist_contents():
    stop = default_stoplist()
    assert {"the", "of", "and", "is", "we"} <= stop
    assert "data" not in stop and "science" not in stop
    assert all(w == w.lower() for w in stop)


def test_load_stoplist_ignores_comments(tmp_path):
    f = tmp_path / "stop.txt"
    f.write_text("# a comment\nThe\n\nAnd\n  or  \n", encoding="utf-8")
    assert load_stoplist(f) == frozenset({"the", "and", "or"})
    with pytest.raises(InputError):
        load_stoplist(tmp_path / "missing.txt")


def test_load_stoplist_skips_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("data\nthe\n", encoding="utf-8")
    marked.write_text("\ufeffdata\nthe\n", encoding="utf-8")
    assert load_stoplist(marked) == load_stoplist(plain) == frozenset({"data", "the"})


# ---------------------------------------------------------------- sequences


def make_corpus(*docs):
    return Corpus(documents=tuple(sorted(docs, key=lambda d: d.id)))


def test_build_sequences_joins_fields_and_applies_stoplist():
    corpus = make_corpus(
        Document(id="A", title="The Data", abstract="of data mining",
                 keywords=("data science", "the cloud")),
        Document(id="B", title="Empty abstract"),
    )
    out = build_sequences(corpus, frozenset({"the", "of"}))
    assert [s.doc_id for s in out] == ["A", "B"]
    assert out[0].tokens == ("data", "data", "mining", "data", "science", "cloud")
    assert out[1].tokens == ("empty", "abstract")


def test_build_sequences_field_selection():
    corpus = make_corpus(Document(id="A", title="alpha", abstract="beta", keywords=("gamma",)))
    only_title = build_sequences(corpus, frozenset(), fields=("title",))
    assert only_title[0].tokens == ("alpha",)
    with pytest.raises(InputError, match="unknown text field: 'body'"):
        build_sequences(corpus, frozenset(), fields=("title", "body"))


# arbitrary text, weighted towards what \w matches but the letter test drops:
# digits, "_", non-ASCII numerics ("²", "Ⅻ", "٣") and combining marks; also
# a non-word symbol, a lone surrogate and a capital sigma, whose lowercase
# depends on the letters around it
_TEXT = st.lists(
    st.one_of(
        st.sampled_from(list("aZé_0²Ⅻ٣ß İ-,.\n\u0301©\ud800Σ")),
        st.sampled_from(["the", "of", "The", "Of", "data"]),
        st.characters(),
    ),
    max_size=30,
).map("".join)


def check_encoding(texts):
    stop = frozenset({"the", "of", "ß"})
    corpus = make_corpus(*(Document(id=f"d{i:02d}", title=t) for i, t in enumerate(texts)))
    tokens = build_sequences(corpus, stop, fields=("title",))
    expected = [remove_stopwords(tokenize(t), stop) for t in texts]
    assert [list(s.tokens) for s in tokens] == expected
    assert tokens.doc_ids == tuple(f"d{i:02d}" for i in range(len(texts)))
    assert list(tokens.types) == sorted({t for doc in expected for t in doc})
    assert tokens.offsets.tolist() == np.cumsum([0, *map(len, expected)]).tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(_TEXT, max_size=6))
def test_encoding_matches_tokenize_then_remove_stopwords(texts):
    # the compiled tokenizer wherever the library builds
    check_encoding(texts)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TEXT, max_size=6))
def test_python_encoding_matches_tokenize_then_remove_stopwords(texts):
    with use_backend("python"):
        check_encoding(texts)


@pytest.mark.parametrize("backend", BACKENDS)
def test_encoding_across_chunk_edges(backend):
    """Many short documents whose chunks end between them, then one longer
    than a chunk; words recur across chunks, and a document that ends in a
    word meets the next that starts with one. About 2,000 distinct words of
    equal length fill the interning table far past its first size."""
    rng = np.random.default_rng(8)
    same_length = ["".join(w) for w in rng.choice(list("abcdefgh"), size=(3000, 4))]
    words = np.array(["alpha", "beta", "ΟΔΟΣ", "γάμμα", "x_1", "42", "the", "©",
                      "Ⅻ", "\ud800", *same_length])

    def text(n):
        return " ".join(rng.choice(words, size=n))

    texts = [text(20) + "ab" for _ in range(15_000)]
    texts += ["cd" + text(_TOKENIZE_CHUNK // 3), "tail"]
    texts += [text(20) for _ in range(3_000)]
    assert len(texts[15_000]) > _TOKENIZE_CHUNK
    assert len(list(_chunks(texts))) >= 3
    stop = frozenset({"the"})
    corpus = make_corpus(*(Document(id=f"d{i:05d}", title=t) for i, t in enumerate(texts)))
    with use_backend(backend):
        tokens = build_sequences(corpus, stop, fields=("title",))
    expected = [remove_stopwords(tokenize(t), stop) for t in texts]
    assert tokens.offsets.tolist() == np.cumsum([0, *map(len, expected)]).tolist()
    assert list(tokens.types) == sorted({t for doc in expected for t in doc})
    assert [tokens.types[c] for c in tokens.codes.tolist()] == [t for d in expected for t in d]


# words that recur across many small chunks: ASCII, non-ASCII, a lone
# surrogate, and letterless or stoplisted runs that the renumbering drops
_WORDS = st.sampled_from(["alpha", "beta", "ΟΔΟΣ", "γάμμα", "x_1", "42", "the", "Ⅻ",
                          "\ud800", "a\udfffb", "é", "ß"])
_CHUNKED_TEXT = st.lists(st.one_of(_WORDS, _TEXT), max_size=8).map(" ".join)


@needs_compiler
@settings(max_examples=150, deadline=None)
@given(st.lists(_CHUNKED_TEXT, max_size=12), st.integers(1, 40))
def test_lasting_word_table_matches_the_python_encoding(texts, chunk):
    """With chunks of a few code points, the word table lasts across many
    of them, and each chunk adds only the words it is the first to hold."""
    stop = frozenset({"the", "ß"})
    corpus = make_corpus(*(Document(id=f"d{i:02d}", title=t) for i, t in enumerate(texts)))
    with mock.patch.object(text_pipeline, "_TOKENIZE_CHUNK", chunk):
        native, python = native_and_python(
            lambda: build_sequences(corpus, stop, fields=("title",)))
    assert native.types == python.types
    assert native.doc_ids == python.doc_ids
    for a, b in ((native.codes, python.codes), (native.offsets, python.offsets)):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


@needs_compiler
@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 9), max_size=12), max_size=6),
       st.lists(st.integers(-1, 5), min_size=10, max_size=10))
def test_remap_tokens_matches_its_python_twin(docs, remap):
    raw = np.array([c for doc in docs for c in doc], dtype=np.int32)
    ends = np.cumsum([0, *map(len, docs)])
    remap = np.array(remap, dtype=np.int32)
    native, python = native_and_python(lambda: remap_tokens(raw, ends, remap))
    for a, b in zip(native, python):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


@needs_compiler
def test_remap_tokens_rejects_what_is_out_of_range():
    remap = np.array([0, 1], dtype=np.int32)
    with use_backend("native"):
        with pytest.raises(IndexError):
            remap_tokens(np.array([0, 2], dtype=np.int32), np.array([0, 2]), remap)
        with pytest.raises(IndexError):
            remap_tokens(np.array([0, 1], dtype=np.int32), np.array([0, 3]), remap)
        with pytest.raises(IndexError):
            remap_tokens(np.array([0, 1], dtype=np.int32), np.array([0, 9, 2]), remap)


@needs_compiler
def test_build_dtm_rejects_a_token_array_out_of_range():
    vocab = build_vocabulary(seqs(["x", "y"]))
    bad = [(np.array([0, 9]), np.array([0], dtype=np.int32)),   # offset past the end
           (np.array([0, 2, 1]), np.array([0, 1], dtype=np.int32)),  # offsets descend
           (np.array([0, 1]), np.array([5], dtype=np.int32))]   # code past the types
    with use_backend("native"):
        for offsets, codes in bad:
            tokens = TokenArray(doc_ids=("a",) * (offsets.size - 1), offsets=offsets,
                                codes=codes, types=("x", "y"))
            with pytest.raises(IndexError):
                build_dtm(tokens, vocab)


# 3,000 types in 47 words of bits: rows of a few columns, far apart in the
# bits, and rows of many
_TYPES = tuple(f"t{i:04d}" for i in range(3000))
_TYPE_CODE = st.integers(0, 2999) | st.integers(0, 9)


@needs_compiler
@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_TYPE_CODE, max_size=3) | st.lists(_TYPE_CODE, max_size=40),
                min_size=1, max_size=8),
       st.integers(1, 3000), st.booleans())
def test_build_dtm_matches_its_python_twin(docs, cap, own_vocab):
    tokens = as_token_array(seqs(*([_TYPES[c] for c in doc] for doc in docs)))
    if own_vocab and tokens.codes.size:
        vocab = build_vocabulary(tokens, cap)
    else:
        # a vocabulary of other documents: some terms absent, some types unknown
        vocab = build_vocabulary(seqs(_TYPES[::-7], _TYPES[:cap]), cap)
    native, python = native_and_python(lambda: build_dtm(tokens, vocab))
    for name in ("indptr", "indices", "data"):
        a, b = getattr(native.csr, name), getattr(python.csr, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    for name in ("row_totals", "col_totals"):
        a, b = getattr(native, name), getattr(python, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    assert native.n_total == python.n_total
    assert native.shape == python.shape


def test_token_array_decodes_and_passes_through():
    sequences = seqs(["b", "a"], [], ["c", "b", "b"])
    tokens = as_token_array(sequences)
    assert tokens.types == ("a", "b", "c")
    assert tokens.codes.tolist() == [1, 0, 2, 1, 1]
    assert tokens.offsets.tolist() == [0, 2, 2, 5]
    assert tokens.doc_index().tolist() == [0, 0, 2, 2, 2]
    assert list(tokens) == sequences
    assert tokens[-1] == sequences[2]
    assert as_token_array(tokens) is tokens
    with pytest.raises(IndexError):
        tokens[3]


# a document of stopwords only, of no word at all, or of non-ASCII words
_WORDS = st.lists(st.sampled_from(["the", "of", "data", "Ünïcode", "straße", "ΣΊΣΥΦΟΣ",
                                   "x2", "42", "--"]), max_size=8).map(" ".join)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=200, deadline=None)
@given(st.lists(_WORDS | _TEXT, min_size=1, max_size=8), st.data())
def test_taking_rows_equals_encoding_those_documents_alone(backend, texts, data):
    n = len(texts)
    rows = data.draw(st.just(list(range(n))) | st.integers(0, n - 1).map(lambda r: [r])
                     | st.lists(st.integers(0, n - 1), unique=True).map(sorted))
    corpus = make_corpus(*(Document(id=f"d{i:02d}", title=t) for i, t in enumerate(texts)))
    stop = frozenset({"the", "of"})
    with use_backend(backend):
        taken = build_sequences(corpus, stop).take(rows)
        alone = build_sequences(corpus.derive([corpus.documents[r] for r in rows], "rows"), stop)
    assert taken.doc_ids == alone.doc_ids
    assert taken.types == alone.types
    for name in ("offsets", "codes"):
        a, b = getattr(taken, name), getattr(alone, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


def test_encoded_path_writes_the_same_bytes_as_token_sequences(mini_corpus):
    """dtm.mtx and bigrams_edges.csv from the token array and from per-document
    TokenSequence objects built with tokenize and remove_stopwords."""
    stop = default_stoplist()
    encoded = build_sequences(mini_corpus, stop)
    by_hand = [
        TokenSequence(d.id, tuple(remove_stopwords(tokenize(" ".join(
            p for p in (d.title, d.abstract, *d.keywords) if p)), stop)))
        for d in mini_corpus
    ]

    def digests(sequences):
        dtm = build_dtm(sequences, build_vocabulary(sequences, p=40))
        graph = threshold_graph(count_bigrams(sequences), min_freq=3)
        mtx = "".join(export_matrixmarket(dtm, comment="mini"))
        edges = export_graph(graph, provenance="mini")
        assert graph.edges and dtm.n_total
        return (hashlib.sha256(mtx.encode()).hexdigest(),
                hashlib.sha256(edges.encode()).hexdigest())

    assert digests(encoded) == digests(by_hand)


# ---------------------------------------------------------------- vocabulary


def test_build_vocabulary_orders_by_frequency_then_term():
    vocab = build_vocabulary(seqs(["b", "a", "b"], ["a", "c"]))
    assert vocab.terms == ("a", "b", "c")
    assert vocab.frequencies == (2, 2, 1)
    assert vocab.index == {"a": 0, "b": 1, "c": 2}
    assert len(vocab) == 3


def test_build_vocabulary_breaks_many_ties_alphabetically():
    rng = np.random.default_rng(7)
    words = [f"w{i:03d}" for i in range(300)]
    docs = [list(rng.permutation(words)) for _ in range(2)] + [["w299"] * 3]
    vocab = build_vocabulary(seqs(*docs), p=100)
    assert vocab.terms == ("w299", *words[:99])
    assert vocab.frequencies == (5, *[2] * 99)


def test_build_vocabulary_cap():
    vocab = build_vocabulary(seqs(["b", "a", "b", "c"]), p=2)
    assert vocab.terms == ("b", "a")


def test_build_vocabulary_empty_raises():
    with pytest.raises(InputError, match="no tokens in any document"):
        build_vocabulary(seqs([], []))
    with pytest.raises(ConfigError):
        build_vocabulary(seqs(["a"]), p=0)


def test_vocabulary_independent_of_document_order():
    rng = np.random.default_rng(99)
    alphabet = [f"w{i}" for i in range(12)]
    for _ in range(20):
        docs = [list(rng.choice(alphabet, size=rng.integers(1, 15))) for _ in range(8)]
        base = build_vocabulary(seqs(*docs), p=6)
        perm = [docs[i] for i in rng.permutation(8)]
        again = build_vocabulary(seqs(*perm), p=6)
        assert base.terms == again.terms
        assert base.frequencies == again.frequencies


# ---------------------------------------------------------------- DTM


def test_build_dtm_hand_example():
    sequences = seqs(["data", "science", "data"], ["science", "methods"])
    vocab = build_vocabulary(sequences)
    dtm = build_dtm(sequences, vocab)
    assert vocab.terms == ("data", "science", "methods")
    assert dtm.shape == (2, 3)
    assert dtm.dense().tolist() == [[2, 1, 0], [0, 1, 1]]
    assert dtm.row_totals.tolist() == [3, 2]
    assert dtm.col_totals.tolist() == [2, 2, 1]
    assert dtm.n_total == 5


def test_build_dtm_ignores_out_of_vocabulary_tokens_and_keeps_zero_rows():
    sequences = seqs(["data", "data", "rare"], ["rare"])
    vocab = build_vocabulary(sequences, p=1)  # only "data" survives the cap
    dtm = build_dtm(sequences, vocab)
    assert dtm.shape == (2, 1)
    assert dtm.dense().tolist() == [[2], [0]]
    assert dtm.doc_ids == ("d0", "d1")


def dense_recount(token_lists, terms):
    """Brute-force reference DTM: a python loop over every token."""
    pos = {t: j for j, t in enumerate(terms)}
    out = np.zeros((len(token_lists), len(terms)), dtype=np.int64)
    for i, toks in enumerate(token_lists):
        for tok in toks:
            if tok in pos:
                out[i, pos[tok]] += 1
    return out


def test_dtm_marginals_match_dense_recount():
    rng = np.random.default_rng(2024)
    alphabet = [f"t{i}" for i in range(20)]
    for _ in range(60):
        n_docs = int(rng.integers(1, 12))
        docs = [list(rng.choice(alphabet, size=rng.integers(0, 30))) for _ in range(n_docs)]
        if not any(docs):
            continue
        sequences = seqs(*docs)
        vocab = build_vocabulary(sequences, p=int(rng.integers(1, 25)))
        dtm = build_dtm(sequences, vocab)
        ref = dense_recount(docs, vocab.terms)
        assert np.array_equal(dtm.dense(), ref)
        assert np.array_equal(dtm.row_totals, ref.sum(axis=1))
        assert np.array_equal(dtm.col_totals, ref.sum(axis=0))
        assert dtm.n_total == int(ref.sum())


# ---------------------------------------------------------------- exports


def test_matrixmarket_export_format_and_round_trip():
    sequences = seqs(["data", "science", "data"], ["science", "methods"])
    vocab = build_vocabulary(sequences)
    dtm = build_dtm(sequences, vocab)
    text = "".join(export_matrixmarket(dtm, comment="demo"))
    lines = text.splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
    assert lines[1] == "% demo"
    assert lines[2].split() == ["2", "3", "4"]
    # data lines are 1-based and sorted row-major
    assert lines[3:] == ["1 1 2", "1 2 1", "2 2 1", "2 3 1"]
    back = scipy.io.mmread(io.StringIO(text))
    assert back.dtype == np.int64
    assert np.array_equal(back.toarray(), dtm.dense())


def test_dtm_index_lists_rows_then_columns():
    sequences = seqs(["data", "science", "data"], ["science", "methods"])
    vocab = build_vocabulary(sequences)
    dtm = build_dtm(sequences, vocab)
    lines = "".join(export_dtm_index(dtm, comment="demo")).splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "kind,position,label,total"
    assert lines[2] == "doc,1,d0,3"
    assert lines[3] == "doc,2,d1,2"
    assert lines[4] == "term,1,data,2"
    assert lines[-1] == "term,3,methods,1"


def test_dtm_index_writes_a_multi_line_comment_as_one_line():
    dtm = build_dtm(seqs(["data", "science"]), build_vocabulary(seqs(["data", "science"])))
    text = "".join(export_dtm_index(dtm, comment="a\nb\r\nc"))
    first, rest = text.split("\n", 1)
    assert first == "# a\\nb\\r\\nc"
    assert next(csv.reader(io.StringIO(rest, newline=""))) == ["kind", "position", "label",
                                                                "total"]
    # the MatrixMarket comment by the same rule, which also escapes what UTF-8
    # cannot encode: a lone surrogate, as a file name's byte 0xff is held
    comment = "a\nb\u2028c\udcff"
    mtx = "".join(export_matrixmarket(dtm, comment=comment)).split("\n")
    assert mtx[1] == "% a\\nb\u2028c\\udcff"
    assert mtx[2] == "1 2 2"
    assert "".join(export_dtm_index(dtm, comment=comment)).split("\n")[0] == "#" + mtx[1][1:]


# ---------------------------------------------------------------- CSV tables

_CELL_TEXT = st.text(alphabet=st.sampled_from(',"\r\n#\u2028 xé€\U0001f600'), max_size=6)
_CELL = _CELL_TEXT | st.integers() | st.floats()


def _cell_text(value) -> str:
    return value if isinstance(value, str) else repr(value)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4).flatmap(lambda width: st.tuples(
    st.lists(_CELL_TEXT, min_size=width, max_size=width),
    st.lists(st.lists(_CELL, min_size=width, max_size=width), max_size=5))),
    st.lists(_CELL_TEXT, max_size=3))
def test_csv_table_reads_back_with_csv_reader(table, comments):
    header, rows = table
    text = "".join(csv_table(header, rows, comments))
    kept = [c for c in comments if c]
    lines = text.split("\n", len(kept))
    assert lines[:len(kept)] == [
        "# " + c.replace("\r", "\\r").replace("\n", "\\n") for c in kept]
    got = list(csv.reader(io.StringIO(lines[-1], newline="")))
    assert got == [header] + [[_cell_text(v) for v in row] for row in rows]


def test_csv_table_writes_the_header_chunk_then_2048_rows_a_chunk():
    chunks = list(csv_table(("n", "square"), ((i, i * i) for i in range(5000)), ("", "c")))
    assert chunks[0] == "# c\nn,square\n"
    assert [c.count("\n") for c in chunks[1:]] == [2048, 2048, 904]
    assert chunks[-1].endswith("4999,24990001\n")


def test_csv_table_refuses_a_row_not_as_wide_as_the_header():
    # one short and one long row have the header's width in total
    with pytest.raises(ValueError, match="not 2 fields wide"):
        list(csv_table(("a", "b"), [(1,), (2, 3, 4)]))


def test_csv_field_quotes_a_lone_carriage_return_and_writes_numbers_as_text():
    # csv.writer(lineterminator="\n") leaves "a\rb" bare, and a reader
    # splits the record at the carriage return
    assert csv_field("a\rb") == '"a\rb"'
    assert list(csv.reader(io.StringIO(csv_field("a\rb") + ",c\n", newline=""))) == [
        ["a\rb", "c"]]
    assert [csv_field(v) for v in (7, -0.0, 0.1, float("inf"), float("nan"), "")] == [
        "7", "-0.0", "0.1", "inf", "nan", ""]


# ---------------------------------------------------------------- integer lines

_DIGIT_EDGES = st.sampled_from(
    [0, 1, 9, 10, 99, 100, 999_999_999, 1_000_000_000, 9_999_999_999,
     2**31 - 1, 2**32 - 1, 2**32, 10**18 - 1, 10**18, 2**62]
)
_INT_ROWS = st.lists(
    st.lists(_DIGIT_EDGES | st.integers(0, 2**62), max_size=6), max_size=25
)


def joined(values, row_ends, sep):
    return "".join(line_chunks(values, sep, row_ends))


@settings(max_examples=200, deadline=None)
@given(_INT_ROWS, st.sampled_from([",", " "]), st.sampled_from([0, 1, 2**16 - 3]))
def test_format_int_lines_matches_str_join(rows, sep, pad):
    # a first row of ``pad`` sevens pushes the others across the 2**16 chunk edge
    values = np.array([7] * pad + [v for row in rows for v in row], dtype=np.int64)
    ends = np.cumsum([pad] * (pad > 0) + [len(row) for row in rows], dtype=np.int64)
    head = sep.join("7" * pad) + "\n" if pad else ""
    expected = head + "".join(sep.join(map(str, row)) + "\n" for row in rows)
    assert joined(values, ends, sep) == expected


def test_format_int_lines_takes_any_integer_dtype():
    for dtype in (np.uint16, np.int32, np.uint64):
        values = np.array([0, 65535, 12], dtype=dtype)
        assert joined(values, [2, 2, 3], " ") == "0 65535\n\n12\n"
    assert joined(np.zeros(0, dtype=np.int64), [0, 0], ",") == "\n\n"
    # without row ends, one line per row of a 2-D array
    assert joined(np.array([[1, 2], [3, 4]], dtype=np.uint8), None, ",") == "1,2\n3,4\n"
    assert joined(np.zeros((2, 0), dtype=np.int64), None, ",") == "\n\n"


def test_format_int_lines_rejects_what_it_cannot_write():
    # the checks run when line_chunks is called, before a chunk is asked for
    with pytest.raises(ConfigError, match="non-negative"):
        line_chunks(np.array([3, -1]), ",", [2])
    with pytest.raises(ConfigError, match="non-negative"):
        joined(np.array([2**63], dtype=np.uint64), [1], ",")
    with pytest.raises(ConfigError, match="integers or floats"):
        joined(np.array([True]), [1], ",")
    with pytest.raises(ConfigError, match="row_ends"):
        joined(np.array([1, 2]), [1], ",")
    with pytest.raises(ConfigError, match="row_ends"):
        joined(np.array([1, 2]), [2, 1, 2], ",")
    with pytest.raises(ConfigError, match="separator"):
        joined(np.array([1, 2]), [2], ", ")


# the properties above ran with the compiled formatter wherever it builds;
# these run them again with its Python twin
@pytest.mark.parametrize("check", [
    test_format_int_lines_matches_str_join,
    test_format_int_lines_takes_any_integer_dtype,
    test_format_int_lines_rejects_what_it_cannot_write,
], ids=lambda check: check.__name__.removeprefix("test_format_int_lines_"))
def test_python_int_formatter(check):
    with use_backend("python"):
        check()


# ---------------------------------------------------------------- float lines


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# any double, NaNs with either sign bit and any payload included
_DOUBLES = st.floats() | st.integers(0, 2**64 - 1).map(from_bits)
_FLOAT_ROWS = st.lists(st.lists(_DOUBLES, max_size=6), max_size=25)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=200, deadline=None)
@given(_FLOAT_ROWS, st.sampled_from([0, 1, 2**16 - 3]))
def test_format_float_lines_matches_repr(backend, rows, pad):
    # a first row of ``pad`` halves pushes the others across the 2**16 chunk edge
    values = np.array([0.5] * pad + [v for row in rows for v in row], dtype=np.float64)
    ends = np.cumsum([pad] * (pad > 0) + [len(row) for row in rows], dtype=np.int64)
    head = ",".join(["0.5"] * pad) + "\n" if pad else ""
    expected = head + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    with use_backend(backend):
        assert joined(values, ends, ",") == expected


_EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    from_bits(0x7FF0000000000001), from_bits(0xFFF8000000000000),
    5e-324, -5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    # where repr switches between positional and exponent layout
    1e-4, 1e-5, 0.00010000000000000002, 9.999999999999999e-05, 1.5e-4, 1.5e-5,
    1e15, 1e16, 9999999999999998.0, 1.2345678901234567e15, 1.2345678901234567e16,
    0.1, 1 / 3, 123.456, 100.0, 1e22, 1e23,
]
_EDGE_FLOATS += [s * 2.0**e for e in range(-1074, 1024) for s in (1.0, -1.0)]
_EDGE_FLOATS += [math.nextafter(2.0**e, 0.0) for e in range(-1073, 1024)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_format_float_lines_edge_values(backend):
    values = np.array(_EDGE_FLOATS, dtype=np.float64)
    with use_backend(backend):
        text = joined(values, np.arange(1, values.size + 1), ",")
    assert text.split("\n")[:-1] == [repr(v) for v in _EDGE_FLOATS]


def test_line_chunks_writes_floats_with_repr_and_integers_with_str():
    # floats are written with repr and integers with str, whatever their width
    assert joined(np.array([1.5], dtype=np.float32), [1], ",") == "1.5\n"
    assert joined(np.array([1.0, 2.0]), [1, 2], ",") == "1.0\n2.0\n"
    assert joined(np.array([1, 2], dtype=np.int8), [1, 2], ",") == "1\n2\n"
    assert joined(np.zeros(0), [0], ",") == "\n"
    with pytest.raises(ConfigError, match="integers or floats"):
        joined(np.array(["1"]), [1], ",")
    with pytest.raises(ConfigError, match="integers or floats"):
        joined(np.array([1j]), [1], ",")
