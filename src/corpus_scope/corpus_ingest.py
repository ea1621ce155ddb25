"""Bibliographic record ingestion.

Reads exported bibliographic records from CSV or JSON-Lines streams into an
immutable, deterministic :class:`Corpus`. The expected flat schema is the one
produced by the common database exporters:

========== ========================================================
column     meaning
========== ========================================================
id         unique record identifier (required)
title      document title (required column; value may be empty)
year       publication year (required column; value may be empty)
abstract   abstract text (optional)
keywords   author keywords, ';'-separated (optional)
doc_type   publication type, e.g. "Conference Proceeding" (optional)
countries  affiliation countries, ';'-separated (optional)
========== ========================================================

CSV input follows RFC 4180 quoting. JSON-Lines input holds one object per
line with the same field names; ``keywords`` and ``countries`` may be either
arrays or strings, each string or item ';'-separated as in CSV, and ``year``
may be a string or a number of integral value (``2014`` or ``2014.0``).

Validation is per-record and non-fatal wherever possible. Rows with an
unparseable or out-of-range year, an empty id, or a duplicate id are dropped
and reported as :class:`RecordError` entries (row numbers are 1-based data
rows; the CSV header is not counted). A row with a *missing* year is kept
with ``year=None`` and flagged but not dropped. Only structural problems
(missing required header columns, undecodable bytes) abort the parse.

Parsed corpora are always sorted by document id, so downstream results never
depend on the order records happened to be exported in.
"""

from __future__ import annotations

import csv
import enum
import functools
import io
import json
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .errors import ConfigError, EmptyResultError, InputError
from .text_pipeline import csv_table, tokenize

INPUT_FORMATS = ("csv", "jsonl")
# the format each file suffix names, in any case
SUFFIX_FORMATS = {".csv": "csv", ".jsonl": "jsonl", ".ndjson": "jsonl"}
REQUIRED_COLUMNS = ("id", "title", "year")
OPTIONAL_COLUMNS = ("abstract", "keywords", "doc_type", "countries")

YEAR_MIN = 1900
YEAR_MAX = 2100


class DocType(enum.Enum):
    """Publication types distinguished by the share breakdown."""

    CONFERENCE_PROCEEDING = "Conference Proceeding"
    RESEARCH_ARTICLE = "Research Article"
    BOOK_CHAPTER = "Book Chapter"
    CONFERENCE_REVIEW = "Conference Review"
    BOOK = "Book"
    EDITORIAL = "Editorial"
    OTHER = "Other"


def _type_key(label: str) -> str:
    return "".join(ch for ch in label.lower() if ch.isalpha())


_TYPE_ALIASES = {_type_key(t.value): t for t in DocType}
_TYPE_ALIASES.update(
    {
        # plural forms and common exporter synonyms
        "conferenceproceedings": DocType.CONFERENCE_PROCEEDING,
        "conferencepaper": DocType.CONFERENCE_PROCEEDING,
        "proceedingspaper": DocType.CONFERENCE_PROCEEDING,
        "researcharticles": DocType.RESEARCH_ARTICLE,
        "article": DocType.RESEARCH_ARTICLE,
        "bookchapters": DocType.BOOK_CHAPTER,
        "chapter": DocType.BOOK_CHAPTER,
        "conferencereviews": DocType.CONFERENCE_REVIEW,
        "books": DocType.BOOK,
        "editorials": DocType.EDITORIAL,
    }
)


@functools.lru_cache(maxsize=1024)
def normalize_doc_type(label: str | None) -> DocType:
    """Map a raw publication-type label onto :class:`DocType` (case-insensitive).

    Unknown or empty labels map to ``DocType.OTHER``. A corpus holds a handful
    of distinct labels, so each is looked up once.
    """
    if not label:
        return DocType.OTHER
    return _TYPE_ALIASES.get(_type_key(label), DocType.OTHER)


@dataclass(frozen=True)
class Document:
    """One bibliographic record.

    ``year`` is ``None`` when the source row had no year. ``keywords`` and
    ``countries`` are tuples so documents stay immutable and comparable.
    """

    id: str
    title: str
    abstract: str = ""
    keywords: tuple[str, ...] = ()
    year: int | None = None
    doc_type: DocType = DocType.OTHER
    countries: tuple[str, ...] = ()


@dataclass(frozen=True)
class Corpus:
    """An ordered, id-sorted collection of documents, with the filters that
    produced it from the parsed input, in the order they ran."""

    documents: tuple[Document, ...]
    filters: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def derive(self, documents: Iterable[Document], filter_desc: str) -> "Corpus":
        """Return a sub-corpus with ``filter_desc`` appended to its filters."""
        return Corpus(documents=tuple(documents), filters=self.filters + (filter_desc,))


@dataclass(frozen=True)
class RecordError:
    """A per-record validation problem.

    ``row`` is the 1-based data-row (or JSON line) number. ``dropped`` tells
    whether the record was excluded from the corpus or kept with a flag.
    """

    row: int
    reason: str
    dropped: bool = True


def _split_multi(value: str | list[str] | None) -> tuple[str, ...]:
    """The stripped non-blank ';'-separated parts of a string or list items."""
    if value is None:
        return ()
    if isinstance(value, list):
        value = ";".join(value)
    return tuple(filter(None, map(str.strip, value.split(";"))))


def _parse_year(raw, row: int, errors: list[RecordError]) -> tuple[int | None, bool]:
    """Return (year, keep). Missing year keeps the record; bad year drops it."""
    if raw is None or (isinstance(raw, str) and not raw.strip()):
        errors.append(RecordError(row, "missing year", dropped=False))
        return None, True
    if isinstance(raw, float) and raw.is_integer():  # a JSON number such as 2014.0
        raw = int(raw)
    try:
        year = int(str(raw).strip())
    except ValueError:
        errors.append(RecordError(row, "unparseable year", dropped=True))
        return None, False
    if not YEAR_MIN <= year <= YEAR_MAX:
        errors.append(
            RecordError(row, f"year out of range [{YEAR_MIN}, {YEAR_MAX}]", dropped=True)
        )
        return None, False
    return year, True


def _wrong_type(raw: dict) -> str | None:
    """The first field whose value a JSON record may not hold, if any.

    ``id`` is a string or an integer (not a bool), ``title`` and
    ``abstract`` are strings, and ``keywords`` and ``countries`` are strings
    or lists of strings; any of them may be missing or null. CSV values are
    always strings.
    """
    doc_id = raw.get("id")
    if not isinstance(doc_id, (str, int, type(None))) or isinstance(doc_id, bool):
        return "id"
    for name in ("title", "abstract"):
        if not isinstance(raw.get(name), (str, type(None))):
            return name
    for name in ("keywords", "countries"):
        value = raw.get(name)
        if isinstance(value, list):
            if not all(isinstance(v, str) for v in value):
                return name
        elif not isinstance(value, (str, type(None))):
            return name
    return None


# the fields a record is read into, in this order
_FIELDS = REQUIRED_COLUMNS + OPTIONAL_COLUMNS


def _build_document(row: int, fields: tuple, errors: list[RecordError]) -> Document | None:
    """The document of one record's ``_FIELDS`` values (None for a missing
    field), or None when it is dropped; problems go to ``errors``."""
    doc_id, title, year, abstract, keywords, doc_type, countries = fields
    doc_id = "" if doc_id is None else str(doc_id).strip()
    if not doc_id:
        errors.append(RecordError(row, "empty id", dropped=True))
        return None
    year, keep = _parse_year(year, row, errors)
    if not keep:
        return None
    return Document(
        id=doc_id,
        title=title or "",
        abstract=abstract or "",
        keywords=_split_multi(keywords),
        year=year,
        doc_type=normalize_doc_type(str(doc_type or "")),
        countries=_split_multi(countries),
    )


def _csv_header(reader) -> list[str]:
    """The first record of a ``csv.reader``, stripped and lowercased;
    InputError when there is none, it does not parse, or it lacks one of
    the ``REQUIRED_COLUMNS``."""
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("empty input: no header row") from None
    except csv.Error as exc:
        raise InputError(f"cannot parse the CSV header row: {exc}") from exc
    header = [h.strip().lower() for h in header]
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise InputError(f"missing required column(s): {', '.join(missing)}")
    return header


def _iter_csv(text: Iterable[str], errors: list[RecordError]):
    """(row number, ``_FIELDS`` values) per CSV data row; a missing
    optional column reads as an empty string, which means the same."""
    reader = csv.reader(text)
    header = _csv_header(reader)
    # a repeated column name reads its last column; index -1 is the empty
    # string appended to each row
    column = {name: i for i, name in enumerate(header)}
    pick = operator.itemgetter(*(column.get(name, -1) for name in _FIELDS))
    width = len(header)
    row_num = 0
    try:
        for row_num, values in enumerate(reader, start=1):
            if not values:
                continue
            if len(values) != width:
                errors.append(RecordError(row_num, "wrong field count", dropped=True))
                continue
            values.append("")
            yield row_num, pick(values)
    except csv.Error as exc:
        raise InputError(f"cannot parse CSV data row {row_num + 1}: {exc}") from exc


# a surrogate code point, which UTF-8 cannot encode; in a decoded JSON string
# only a \u escape json.loads could not pair makes one
_SURROGATE = re.compile("[\ud800-\udfff]")


def _iter_jsonl(text: Iterable[str], errors: list[RecordError]):
    """(row number, ``_FIELDS`` values) per JSON line whose fields have the
    types :func:`_wrong_type` allows. Each unpaired surrogate in a string or
    list item reads as U+FFFD, flagged per field without dropping the record."""
    for row_num, line in enumerate(text, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError:  # a JSONDecodeError, or an integer of too many digits
            errors.append(RecordError(row_num, "invalid JSON", dropped=True))
            continue
        if not isinstance(obj, dict):
            errors.append(RecordError(row_num, "record is not an object", dropped=True))
            continue
        raw = {str(k).lower(): v for k, v in obj.items()}
        wrong = _wrong_type(raw)
        if wrong is not None:
            errors.append(RecordError(row_num, f"non-string {wrong}", dropped=True))
            continue
        values = tuple(map(raw.get, _FIELDS))
        if "\\u" in line:
            values = tuple(_replace_surrogates(row_num, *field, errors)
                           for field in zip(_FIELDS, values))
        yield row_num, values


def _replace_surrogates(row: int, name: str, value, errors: list[RecordError]):
    """A JSON field's value with each surrogate in its string, or in the
    strings of its list, replaced by U+FFFD; flagged in ``errors`` if any."""
    if isinstance(value, str):
        fixed = _SURROGATE.sub("\ufffd", value)
    elif isinstance(value, list):
        fixed = [_SURROGATE.sub("\ufffd", v) if isinstance(v, str) else v for v in value]
    else:
        return value
    if fixed != value:
        errors.append(RecordError(row, f"unpaired surrogate in {name} read as U+FFFD",
                                  dropped=False))
    return fixed


def parse_records(stream: BinaryIO, format: str) -> tuple[Corpus, list[RecordError]]:
    """Parse a byte stream of records into a Corpus plus per-record errors.

    ``format`` is ``"csv"`` or ``"jsonl"``. The corpus is sorted by id; for
    duplicate ids the first occurrence wins and later ones are reported.
    Structural problems and invalid UTF-8 raise :class:`InputError`; I/O
    errors propagate as raised by the stream.
    """
    fmt = format.strip().lower()
    if fmt not in INPUT_FORMATS:
        raise InputError(f"unknown input format: {format!r}")
    # Lines are decoded a chunk at a time rather than into one string (or a
    # StringIO, which holds 4 bytes per character). CSV lines end at \n, \r
    # or \r\n and csv.reader joins quoted line breaks back; JSON Lines split
    # at \n only, because JSON strings may hold U+2028, U+2029 and U+0085 raw.
    # A leading byte-order mark, as spreadsheet exports write, is no text.
    text = io.TextIOWrapper(
        io.BytesIO(stream.read()), encoding="utf-8-sig", newline="" if fmt == "csv" else "\n"
    )
    errors: list[RecordError] = []
    rows = _iter_csv(text, errors) if fmt == "csv" else _iter_jsonl(text, errors)

    by_id: dict[str, Document] = {}
    try:
        for row_num, fields in rows:
            doc = _build_document(row_num, fields, errors)
            if doc is None:
                continue
            if doc.id in by_id:
                errors.append(
                    RecordError(row_num, f"duplicate id {doc.id!r}", dropped=True)
                )
                continue
            by_id[doc.id] = doc
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not valid UTF-8: {exc}") from exc

    documents = tuple(sorted(by_id.values(), key=lambda d: d.id))
    return Corpus(documents=documents), errors


def infer_format(path) -> str:
    """The input format ``path``'s suffix names; InputError when it names none."""
    suffix = Path(path).suffix.lower()
    if suffix not in SUFFIX_FORMATS:
        raise InputError(f"cannot infer format from suffix {suffix!r}")
    return SUFFIX_FORMATS[suffix]


def parse_file(path, format: str | None = None) -> tuple[Corpus, list[RecordError]]:
    """Open ``path`` in binary mode and parse it, inferring format from suffix."""
    p = Path(path)
    if format is None:
        format = infer_format(p)
    try:
        with open(p, "rb") as fh:
            return parse_records(fh, format)
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc}") from exc


def check_csv_header(path) -> None:
    """Raise InputError when the CSV file at ``path`` would fail
    :func:`parse_file` at its header row, with the same message. Reads the
    first record and the text decoded with it, not the whole file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as text:
            _csv_header(csv.reader(text))
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not valid UTF-8: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def serialize_corpus(corpus: Corpus) -> Iterator[str]:
    """Render a corpus as CSV text that reparses to an equal corpus: the
    chunks of ``csv_table``, with no comment line."""
    # str() and _value_ (the attribute behind the slower DocType.value
    # property) keep csv_field on its string path for the largest table
    return csv_table(REQUIRED_COLUMNS + OPTIONAL_COLUMNS, (
        (d.id, d.title, "" if d.year is None else str(d.year), d.abstract, ";".join(d.keywords),
         d.doc_type._value_, ";".join(d.countries))
        for d in corpus.documents
    ))


def _contains_phrase(tokens: list[str], phrase: list[str]) -> bool:
    if not phrase or len(phrase) > len(tokens):
        return False
    first = phrase[0]
    span = len(phrase)
    for i, tok in enumerate(tokens[: len(tokens) - span + 1]):
        if tok == first and tokens[i : i + span] == phrase:
            return True
    return False


def filter_by_phrase(corpus: Corpus, phrase: str) -> Corpus:
    """Keep documents whose title, abstract, or any keyword contains ``phrase``.

    Matching is on token sequences (case-insensitive, punctuation-free), so
    "Data-Science." matches the phrase "data science". A phrase must appear as
    contiguous tokens within a single field; it never spans fields.
    """
    phrase_tokens = tokenize(phrase)
    if not phrase_tokens:
        raise ConfigError(f"phrase {phrase!r} contains no word to match")
    kept = []
    for d in corpus:
        fields = [d.title, d.abstract, *d.keywords]
        if any(_contains_phrase(tokenize(f), phrase_tokens) for f in fields):
            kept.append(d)
    return corpus.derive(kept, f"phrase={phrase!r}")


def filter_by_years(
    corpus: Corpus, year_min: int | None = None, year_max: int | None = None
) -> Corpus:
    """Keep documents whose year lies in the closed range; drops year-less docs
    only when a bound is set."""
    if year_min is None and year_max is None:
        return corpus
    kept = [
        d
        for d in corpus
        if d.year is not None
        and (year_min is None or d.year >= year_min)
        and (year_max is None or d.year <= year_max)
    ]
    return corpus.derive(kept, f"years=[{year_min}, {year_max}]")


def partition_by_country(corpus: Corpus, country: str) -> tuple[Corpus, Corpus]:
    """Split into (documents with the country, the rest).

    Matching is a case-insensitive exact name comparison against each entry of
    ``Document.countries``. Every document lands in exactly one side.
    """
    needle = country.strip().casefold()
    if not needle:
        raise ConfigError("country must be non-empty")
    members, rest = [], []
    for d in corpus:
        if any(c.strip().casefold() == needle for c in d.countries):
            members.append(d)
        else:
            rest.append(d)
    return (
        corpus.derive(members, f"country={country}"),
        corpus.derive(rest, f"country!={country}"),
    )


def require_nonempty(corpus: Corpus, what: str) -> Corpus:
    """Raise EmptyResultError when a derived corpus came out empty."""
    if len(corpus) == 0:
        raise EmptyResultError(f"{what} produced an empty corpus")
    return corpus
