import csv
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus_scope.corpus_ingest import (
    Corpus,
    DocType,
    Document,
    filter_by_phrase,
    filter_by_years,
    normalize_doc_type,
    parse_file,
    parse_records,
    partition_by_country,
    require_nonempty,
    serialize_corpus,
)
from corpus_scope.errors import (
    ConfigError,
    CorpusScopeError,
    EmptyResultError,
    InputError,
)


def ids(corpus: Corpus) -> tuple[str, ...]:
    return tuple(d.id for d in corpus.documents)


def parse_csv(text: str):
    return parse_records(io.BytesIO(text.encode("utf-8")), "csv")


def parse_jsonl(text: str):
    return parse_records(io.BytesIO(text.encode("utf-8")), "jsonl")


def make_corpus(*docs: Document) -> Corpus:
    return Corpus(documents=tuple(sorted(docs, key=lambda d: d.id)))


# ---------------------------------------------------------------- parsing


def test_parse_basic_csv():
    corpus, errors = parse_csv(
        "id,title,year,abstract,keywords,doc_type,countries\n"
        "A2,Second paper,2021,Some text,data science;ml,Research Article,Germany\n"
        "A1,First paper,2020,,,Conference Proceeding,France;Spain\n"
    )
    assert errors == []
    assert ids(corpus) == ("A1", "A2")  # sorted by id, not file order
    d = corpus.documents[1]
    assert d.title == "Second paper"
    assert d.year == 2021
    assert d.keywords == ("data science", "ml")
    assert d.doc_type is DocType.RESEARCH_ARTICLE
    assert d.countries == ("Germany",)


def test_unparseable_year_drops_row_with_data_row_number():
    """Bad year at data row 3 reports row=3 (header not counted)."""
    corpus, errors = parse_csv(
        "id,title,year\n"
        "A1,First,2001\n"
        "A2,Second,2002\n"
        "A3,Third,circa 2003\n"
    )
    assert ids(corpus) == ("A1", "A2")
    assert len(errors) == 1
    err = errors[0]
    assert err.row == 3
    assert err.dropped is True
    assert "unparseable year" in err.reason


def test_missing_year_is_kept_and_flagged():
    corpus, errors = parse_csv("id,title,year\nA1,First,\nA2,Second,2002\n")
    assert ids(corpus) == ("A1", "A2")
    assert corpus.documents[0].year is None
    assert [(e.row, e.dropped) for e in errors] == [(1, False)]


@pytest.mark.parametrize("year,kept", [(1899, False), (1900, True), (2100, True), (2101, False)])
def test_year_range_bounds(year, kept):
    corpus, errors = parse_csv(f"id,title,year\nA1,Only,{year}\n")
    assert (len(corpus) == 1) is kept
    assert (not errors) is kept


def test_duplicate_id_keeps_first_occurrence():
    corpus, errors = parse_csv(
        "id,title,year\nB2,Original,2005\nB2,Copy,2006\nB1,Other,2007\n"
    )
    assert ids(corpus) == ("B1", "B2")
    assert corpus.documents[1].title == "Original"
    assert any("duplicate" in e.reason and e.row == 2 for e in errors)


def test_empty_id_and_wrong_field_count_are_dropped():
    corpus, errors = parse_csv(
        "id,title,year\n"
        ",No id,2001\n"
        "A1,Short row\n"
        "A2,Fine,2002\n"
    )
    assert ids(corpus) == ("A2",)
    reasons = sorted(e.reason for e in errors)
    assert reasons == ["empty id", "wrong field count"]


def test_missing_required_column_raises_schema_error():
    with pytest.raises(InputError, match="missing required column.*year"):
        parse_csv("id,title\nA1,No year column\n")
    with pytest.raises(InputError, match="empty input: no header row"):
        parse_csv("")


def test_unknown_format_rejected():
    with pytest.raises(InputError, match="unknown input format: 'xml'"):
        parse_records(io.BytesIO(b"id,title,year\n"), "xml")


@pytest.mark.parametrize("fmt,text", [
    ("csv", "id,title,year,abstract\nA1,First,2020,text\nA2,Second,,more\n"),
    ("jsonl", '{"id": "A1", "title": "First", "year": 2020}\n{"id": "A2", "title": "Second"}\n'),
], ids=["csv", "jsonl"])
def test_a_leading_byte_order_mark_reads_as_no_text(fmt, text):
    # spreadsheet exports ("CSV UTF-8") start with U+FEFF
    plain = parse_records(io.BytesIO(text.encode("utf-8")), fmt)
    assert ids(plain[0]) == ("A1", "A2")
    assert parse_records(io.BytesIO(("\ufeff" + text).encode("utf-8")), fmt) == plain


def test_non_utf8_input_is_an_input_error():
    with pytest.raises(InputError, match="UTF-8"):
        parse_records(io.BytesIO(b"id,title,year\nA1,\xff\xfe,2001\n"), "csv")


def test_invalid_utf8_past_the_first_decoded_chunk_is_an_input_error():
    rows = "".join(f"A{i},title {i},2001\n" for i in range(2000))
    data = f"id,title,year\n{rows}".encode("utf-8") + b"B1,\xff,2001\n"
    with pytest.raises(InputError, match="UTF-8"):
        parse_records(io.BytesIO(data), "csv")


def test_oversized_csv_field_is_an_input_error_naming_the_data_row():
    # csv's default field limit is 131,072 characters; a blank record counts
    big = "x" * 200_000
    with pytest.raises(InputError, match="CSV data row 3: field larger"):
        parse_csv(f"id,title,year,abstract\nA1,t,2001,short\n\nA2,t,2002,{big}\n")
    with pytest.raises(InputError, match="CSV header row"):
        parse_csv(f"id,title,year,{big}\nA1,t,2001,short\n")


def test_csv_columns_are_read_by_name():
    # a repeated column reads its last value, a missing optional one is empty,
    # and the column order is free
    corpus, errors = parse_csv(
        "Countries,title,ID,Year,title\n"
        " France ; ;Spain,first,A1,2001,second\n"
    )
    assert errors == []
    assert corpus.documents == (Document(id="A1", title="second", year=2001,
                                         countries=("France", "Spain")),)


def test_csv_records_may_end_in_a_bare_carriage_return():
    source = (
        'id,title,year,abstract\r'
        'A1,"one\r\ntwo",2020,x\r'
        'A2,plain,2021,"multi\nline"\r'
    )
    corpus, errors = parse_csv(source)
    assert errors == []
    assert [(d.id, d.title, d.year, d.abstract) for d in corpus] == [
        ("A1", "one\r\ntwo", 2020, "x"), ("A2", "plain", 2021, "multi\nline"),
    ]


def test_jsonl_records_split_at_line_feeds_only():
    # JSON strings may hold U+2028, U+2029 and U+0085 raw, and
    # json.dumps(ensure_ascii=False) writes them so; str.splitlines would
    # cut such a record in two. A bare \r is whitespace between JSON tokens.
    records = [{"id": f"J{i:02d}", "title": f"Title {i}", "year": 2000 + i}
               for i in range(12)]
    records[4]["abstract"] = "one\u2028two\u2029three\x85four"
    lines = [json.dumps(r, ensure_ascii=False) for r in records]
    lines[7] = lines[7].replace(', "title"', ',\r"title"')
    text = "".join(line + ("\r\n" if i % 2 else "\n") for i, line in enumerate(lines))
    corpus, errors = parse_jsonl(text)
    assert errors == []
    assert [d.id for d in corpus] == [r["id"] for r in records]
    assert corpus.documents[4].abstract == "one\u2028two\u2029three\x85four"


def test_parse_jsonl_records():
    lines = [
        json.dumps({"id": "J2", "title": "Two", "year": "2019",
                    "keywords": ["alpha", "beta"], "countries": "India;China"}),
        json.dumps({"id": "J1", "title": "One", "year": 2018,
                    "doc_type": "conference paper"}),
        "{broken json",
        json.dumps([1, 2, 3]),
    ]
    corpus, errors = parse_jsonl("\n".join(lines) + "\n")
    assert ids(corpus) == ("J1", "J2")
    assert corpus.documents[0].doc_type is DocType.CONFERENCE_PROCEEDING
    assert corpus.documents[1].keywords == ("alpha", "beta")
    assert corpus.documents[1].countries == ("India", "China")
    assert [(e.row, e.reason) for e in errors] == [
        (3, "invalid JSON"),
        (4, "record is not an object"),
    ]


def test_jsonl_year_may_be_a_number_of_integral_value():
    years = ["2014.0", "2015", "2016.5", "true", '"2017.0"', "1e3", "2.1e3", "NaN", "Infinity"]
    lines = [f'{{"id": "Y{i}", "title": "t", "year": {year}}}' for i, year in enumerate(years)]
    corpus, errors = parse_jsonl("\n".join(lines) + "\n")
    assert [(d.id, d.year) for d in corpus] == [("Y0", 2014), ("Y1", 2015), ("Y6", 2100)]
    assert [(e.row, e.reason) for e in errors] == [
        (3, "unparseable year"),
        (4, "unparseable year"),
        (5, "unparseable year"),
        (6, "year out of range [1900, 2100]"),
        (8, "unparseable year"),
        (9, "unparseable year"),
    ]


def test_jsonl_values_of_the_wrong_type_drop_the_record():
    records = [
        {"id": [None], "title": "list id"},
        {"id": True, "title": "bool id"},
        {"id": 1.5, "title": "float id"},
        {"id": "T1", "title": True},
        {"id": "T2", "title": "ok", "abstract": 3},
        {"id": "T3", "title": "ok", "keywords": ["data", 1]},
        {"id": "T4", "title": "ok", "keywords": 5},
        {"id": "T5", "title": "ok", "countries": [None]},
        {"id": "T6", "title": "ok", "countries": {"name": "India"}},
        {"id": 7, "title": None, "abstract": None, "keywords": "a; b",
         "countries": ["India"]},
        {"id": 0, "title": "zero"},
        {"id": None, "title": "no id"},
    ]
    lines = [json.dumps({"year": 2020, **r}) for r in records]
    lines.append('{"id": ' + "1" * 5000 + ', "title": "huge id"}')
    corpus, errors = parse_jsonl("\n".join(lines) + "\n")
    assert [(e.row, e.reason, e.dropped) for e in errors] == [
        (1, "non-string id", True),
        (2, "non-string id", True),
        (3, "non-string id", True),
        (4, "non-string title", True),
        (5, "non-string abstract", True),
        (6, "non-string keywords", True),
        (7, "non-string keywords", True),
        (8, "non-string countries", True),
        (9, "non-string countries", True),
        (12, "empty id", True),
        (13, "invalid JSON", True),
    ]
    # an integer id keeps its decimal form; null text fields are empty
    assert ids(corpus) == ("0", "7")
    seven = corpus.documents[1]
    assert (seven.title, seven.abstract) == ("", "")
    assert seven.keywords == ("a", "b") and seven.countries == ("India",)


def test_parse_file_infers_format_and_wraps_io_errors(tmp_path):
    f = tmp_path / "small.csv"
    f.write_text("id,title,year\nA1,Hello,2020\n", encoding="utf-8")
    corpus, errors = parse_file(f)
    assert ids(corpus) == ("A1",) and errors == []

    with pytest.raises(InputError, match="cannot infer format from suffix '.dat'"):
        parse_file(tmp_path / "mystery.dat")
    with pytest.raises(InputError, match="cannot read"):
        parse_file(tmp_path / "absent.csv")


def test_serialize_round_trip_with_awkward_values():
    corpus = make_corpus(
        Document(id="R1", title='He said, "data, science"', abstract="line one\nline two",
                 keywords=("a;b" and "a b", "c,d"), year=None,
                 doc_type=DocType.BOOK, countries=("Saudi Arabia",)),
        Document(id="R2", title="Plain", year=2022),
    )
    text = "".join(serialize_corpus(corpus))
    back, errors = parse_csv(text)
    assert back.documents == corpus.documents
    assert [e for e in errors if e.dropped] == []


def test_jsonl_list_items_split_on_semicolons_as_csv_fields_do():
    # a list item holding ';' reads as the CSV field corpus.csv writes it
    # back to, so the corpus survives the round trip and the country filter
    # finds each country of the item
    line = json.dumps({"id": "J1", "title": "t", "year": 2001,
                       "keywords": ["x;y", " z ", ";"],
                       "countries": ["Saudi Arabia; Egypt"]})
    corpus, errors = parse_jsonl(line + "\n")
    assert errors == []
    doc = corpus.documents[0]
    assert doc.keywords == ("x", "y", "z") and doc.countries == ("Saudi Arabia", "Egypt")
    back, _ = parse_csv("".join(serialize_corpus(corpus)))
    assert back.documents == corpus.documents
    inside, _ = partition_by_country(corpus, "Saudi Arabia")
    assert ids(inside) == ("J1",)


def test_serialize_round_trip_random_corpora():
    rng = np.random.default_rng(1234)
    letters = list("abcdefg ,;\"'-")
    for _ in range(25):
        docs = []
        for i in rng.permutation(int(rng.integers(1, 8))):
            title = "".join(rng.choice(letters, size=rng.integers(0, 12)))
            year = None if rng.random() < 0.2 else int(rng.integers(1900, 2101))
            docs.append(Document(
                id=f"X{i}",
                title=title,
                abstract="".join(rng.choice(letters, size=rng.integers(0, 20))),
                keywords=tuple(f"kw{j}" for j in range(rng.integers(0, 3))),
                year=year,
                doc_type=list(DocType)[int(rng.integers(len(DocType)))],
            ))
        corpus = make_corpus(*docs)
        back, _ = parse_csv("".join(serialize_corpus(corpus)))
        assert back.documents == corpus.documents


def test_serialize_quotes_carriage_returns():
    # an unquoted CR ends the record for a CSV reader, which then dropped this
    # row and the next one with "wrong field count"
    source = (
        'id,title,year,abstract\n'
        '"A\r1","one\rtwo",2020,"three\r\nfour"\n'
        'A2,plain,2021,\n'
    )
    corpus, errors = parse_csv(source)
    assert errors == []
    assert [d.id for d in corpus] == ["A\r1", "A2"]
    back, errors = parse_csv("".join(serialize_corpus(corpus)))
    assert errors == []
    assert back.documents == corpus.documents
    assert back.documents[0].title == "one\rtwo"
    assert back.documents[0].abstract == "three\r\nfour"


_CSV_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(',"\r\n; '), st.characters()), max_size=10
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            _CSV_TEXT, _CSV_TEXT, _CSV_TEXT, st.lists(_CSV_TEXT, max_size=2),
            st.lists(_CSV_TEXT, max_size=2), st.none() | st.integers(1900, 2100),
            st.sampled_from(list(DocType)),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_serialize_corpus_reads_back_with_csv_reader(rows):
    corpus = make_corpus(*(
        Document(id=f"{i}{doc_id}", title=title, abstract=abstract,
                 keywords=tuple(keywords), countries=tuple(countries), year=year,
                 doc_type=doc_type)
        for i, (doc_id, title, abstract, keywords, countries, year, doc_type)
        in enumerate(rows)
    ))
    got = list(csv.reader(io.StringIO("".join(serialize_corpus(corpus)), newline="")))
    assert got[0] == ["id", "title", "year", "abstract", "keywords", "doc_type",
                      "countries"]
    assert got[1:] == [
        [d.id, d.title, "" if d.year is None else str(d.year), d.abstract,
         ";".join(d.keywords), d.doc_type.value, ";".join(d.countries)]
        for d in corpus
    ]


_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                                 inner, max_size=3),
    max_leaves=6,
)
_FIELDS = ["id", "title", "year", "abstract", "keywords", "doc_type", "countries", "ID"]
_RECORD_BYTES = st.one_of(
    st.binary(max_size=300),
    # a valid header, so the bytes after it reach the per-record code
    st.tuples(
        st.sampled_from([b"id,title,year\n", b"ID,Title,YEAR,keywords,countries\r\n"]),
        st.binary(max_size=300),
    ).map(b"".join),
    # JSON objects with the known keys and values of any JSON type
    st.lists(st.dictionaries(st.sampled_from(_FIELDS), _JSON_VALUE, max_size=7),
             max_size=4).map(lambda rows: "\n".join(map(json.dumps, rows)).encode()),
)


@settings(max_examples=150, deadline=None)
@given(_RECORD_BYTES, st.sampled_from(["csv", "jsonl"]))
@example(b'{"id": "a", "title": "t", "doc_type": [null]}', "jsonl")  # a non-string type
def test_parse_records_raises_only_toolkit_errors(data, fmt):
    try:
        corpus, errors = parse_records(io.BytesIO(data), fmt)
    except CorpusScopeError:
        return
    assert all(isinstance(d, Document) for d in corpus)
    assert all(isinstance(e.row, int) for e in errors)


# ---------------------------------------------------------------- doc types


def test_normalize_doc_type_aliases():
    assert normalize_doc_type("Conference Proceeding") is DocType.CONFERENCE_PROCEEDING
    assert normalize_doc_type("conference paper") is DocType.CONFERENCE_PROCEEDING
    assert normalize_doc_type("ARTICLE") is DocType.RESEARCH_ARTICLE
    assert normalize_doc_type("Book  Chapters") is DocType.BOOK_CHAPTER
    assert normalize_doc_type("editorial") is DocType.EDITORIAL
    assert normalize_doc_type("data set") is DocType.OTHER
    assert normalize_doc_type("") is DocType.OTHER
    assert normalize_doc_type(None) is DocType.OTHER


# ---------------------------------------------------------------- filters


PHRASE_DOCS = [
    Document(id="P1", title="A data science survey", year=2020),
    Document(id="P2", title="Unrelated", abstract="We apply data-science methods.", year=2020),
    Document(id="P3", title="Keyword only", keywords=("big data", "Data Science"), year=2020),
    Document(id="P4", title="The science of data", abstract="science of data", year=2020),
    Document(id="P5", title="data", abstract="science", keywords=("data", "science"), year=2020),
]


def test_filter_by_phrase_matches_title_abstract_and_keywords():
    corpus = make_corpus(*PHRASE_DOCS)
    kept = filter_by_phrase(corpus, "data science")
    # P4 has the words in the wrong order; P5 never has them adjacent in one field
    assert ids(kept) == ("P1", "P2", "P3")
    assert kept.filters[-1] == "phrase='data science'"


def test_filter_by_phrase_is_case_and_punctuation_insensitive():
    corpus = make_corpus(Document(id="Q1", title="DATA-SCIENCE: a review", year=2001))
    assert ids(filter_by_phrase(corpus, "Data Science!")) == ("Q1",)


def test_filter_by_phrase_idempotent_and_rejects_empty():
    corpus = make_corpus(*PHRASE_DOCS)
    once = filter_by_phrase(corpus, "data science")
    twice = filter_by_phrase(once, "data science")
    assert twice.documents == once.documents
    with pytest.raises(ConfigError):
        filter_by_phrase(corpus, " ... ")


def test_filter_by_years():
    docs = [Document(id=f"Y{y}", title="t", year=y) for y in (2000, 2005, 2010)]
    docs.append(Document(id="Y0", title="no year", year=None))
    corpus = make_corpus(*docs)
    assert ids(filter_by_years(corpus)) == ids(corpus)  # no bounds: unchanged
    assert ids(filter_by_years(corpus, year_min=2001)) == ("Y2005", "Y2010")
    assert ids(filter_by_years(corpus, year_max=2005)) == ("Y2000", "Y2005")
    assert ids(filter_by_years(corpus, 2001, 2009)) == ("Y2005",)


def test_partition_by_country_is_exact_and_disjoint():
    corpus = make_corpus(
        Document(id="C1", title="t", countries=("Saudi Arabia", "Egypt")),
        Document(id="C2", title="t", countries=("saudi arabia",)),
        Document(id="C3", title="t", countries=("South Africa",)),
        Document(id="C4", title="t", countries=()),
    )
    inside, outside = partition_by_country(corpus, "Saudi Arabia")
    assert ids(inside) == ("C1", "C2")
    assert ids(outside) == ("C3", "C4")
    assert set(ids(inside)) | set(ids(outside)) == set(ids(corpus))
    assert set(ids(inside)) & set(ids(outside)) == set()
    with pytest.raises(ConfigError):
        partition_by_country(corpus, "  ")


def test_partition_random_corpora_always_covers_everything():
    rng = np.random.default_rng(77)
    pool = ["France", "Japan", "Brazil"]
    for _ in range(30):
        docs = [
            Document(
                id=f"D{i}",
                title="t",
                countries=tuple(rng.choice(pool, size=rng.integers(0, 3), replace=False)),
            )
            for i in range(int(rng.integers(1, 10)))
        ]
        corpus = make_corpus(*docs)
        inside, outside = partition_by_country(corpus, "Japan")
        assert sorted(ids(inside) + ids(outside)) == sorted(ids(corpus))
        assert all("japan" in [c.casefold() for c in d.countries] for d in inside)


def test_require_nonempty():
    corpus = make_corpus(Document(id="Z1", title="t"))
    assert require_nonempty(corpus, "filter") is corpus
    empty = corpus.derive([], "nothing")
    with pytest.raises(EmptyResultError, match="nothing at all"):
        require_nonempty(empty, "nothing at all")


# ---------------------------------------------------------------- fixture


def test_bundled_fixture_parses_cleanly(mini_corpus_path):
    corpus, errors = parse_file(mini_corpus_path)
    assert len(corpus) == 60
    # exactly one record lacks a year; nothing is dropped
    assert [(e.dropped, e.reason) for e in errors] == [(False, "missing year")]
    inside, _ = partition_by_country(corpus, "Saudi Arabia")
    assert len(inside) == 10
    assert len(filter_by_phrase(corpus, "data science")) == 58
