"""Seeded synthetic bibliographic corpora for the benchmark.

Each document mixes a few of ``N_TOPICS`` planted topics (disjoint word
lists, Zipf-weighted inside a topic) with Zipf noise words and English
stopwords, the same planted-topic idea as ``tests/conftest.py``'s
``planted_corpus`` at corpus scale. Every record carries all seven input
columns; years, document types and countries vary, and about one record in
two hundred has an empty year, which the program keeps and flags.

The words themselves are a fixed function of the module (not of the seed),
so two seeds give two corpora over the same word list. All sampling is
vectorized: one ``numpy.random.Generator`` call per column, never per token.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

N_TOPICS = 8
TOPIC_WORDS = 600
NOISE_WORDS = 8000
MISSING_YEAR_RATE = 0.005
FIELDS = ("id", "title", "year", "abstract", "keywords", "doc_type", "countries")

# a subset of the program's bundled stoplist; the pipeline removes these
STOPWORDS = (
    "the of and to in a is that for on with as by this are be from at an "
    "which or it we these our their has have was were can been its not"
).split()
DOC_TYPES = (
    "Research Article", "Conference Proceeding", "Book Chapter",
    "Conference Review", "Book", "Editorial",
)
DOC_TYPE_WEIGHTS = (0.45, 0.30, 0.10, 0.07, 0.05, 0.03)
COUNTRIES = (
    "Saudi Arabia", "Brazil", "China", "India", "United States", "Germany",
    "Nigeria", "Indonesia", "United Kingdom", "Egypt", "Malaysia", "Spain",
)
YEARS = np.arange(2000, 2024)

_ONSETS = "b c d f g h k l m n p r s t v z br dr gr pl st tr".split()
_VOWELS = "a e i o u ai ea io".split()
_CODAS = ["", "n", "r", "s", "l", "x"]


def _word_list(count: int, rng: np.random.Generator) -> list[str]:
    """``count`` distinct pronounceable words of two or three syllables.

    Six letters or more, which keeps them clear of the short function words
    in the program's stoplist.
    """
    words: dict[str, None] = {}
    while len(words) < count:
        n = 2 * (count - len(words))
        sylls = rng.integers(2, 4, size=n)
        parts = [
            rng.choice(_ONSETS, size=(n, 3)),
            rng.choice(_VOWELS, size=(n, 3)),
        ]
        coda = rng.choice(_CODAS, size=n)
        for i in range(n):
            w = "".join(parts[0][i, s] + parts[1][i, s] for s in range(sylls[i]))
            if len(w) + len(coda[i]) >= 6:
                words.setdefault(w + coda[i], None)
            if len(words) == count:
                break
    return list(words)


def _lexicon() -> tuple[np.ndarray, np.ndarray]:
    """(topic words as an N_TOPICS x TOPIC_WORDS array, noise words)."""
    rng = np.random.default_rng(20231023)
    arr = np.array(_word_list(N_TOPICS * TOPIC_WORDS + NOISE_WORDS, rng), dtype=object)
    topics = arr[: N_TOPICS * TOPIC_WORDS].reshape(N_TOPICS, TOPIC_WORDS)
    return topics, arr[N_TOPICS * TOPIC_WORDS:]


def _zipf_cdf(n: int, s: float = 1.05) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** s
    return np.cumsum(w) / w.sum()


def generate(n_docs: int, seed: int, mean_len: int = 150) -> list[dict]:
    """Return ``n_docs`` records (dicts with the seven input fields)."""
    rng = np.random.default_rng(seed)
    topic_words, noise_words = _lexicon()
    stop = np.array(STOPWORDS, dtype=object)

    lengths = rng.integers(mean_len * 2 // 3, mean_len * 4 // 3 + 1, size=n_docs)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    n_tok = int(offsets[-1])
    doc_of = np.repeat(np.arange(n_docs), lengths)

    # per-document topic mixture, sampled per token by inverse CDF
    theta = rng.dirichlet(np.full(N_TOPICS, 0.2), size=n_docs)
    cum = np.cumsum(theta, axis=1)
    cum[:, -1] = 1.0
    u = rng.random(n_tok)
    topic = (u[:, None] > cum[doc_of]).sum(axis=1)
    rank = np.searchsorted(_zipf_cdf(TOPIC_WORDS), rng.random(n_tok), side="right")
    rank = np.minimum(rank, TOPIC_WORDS - 1)

    kind = rng.random(n_tok)
    tokens = topic_words[topic, rank]
    is_noise = kind < 0.25
    noise_rank = np.searchsorted(_zipf_cdf(NOISE_WORDS), rng.random(n_tok), side="right")
    tokens[is_noise] = noise_words[np.minimum(noise_rank, NOISE_WORDS - 1)[is_noise]]
    is_stop = (kind >= 0.25) & (kind < 0.55)
    tokens[is_stop] = stop[rng.integers(len(stop), size=n_tok)[is_stop]]

    title_len = rng.integers(6, 12, size=n_docs)
    kw_count = rng.integers(2, 5, size=n_docs)
    kw_topic = theta.argmax(axis=1)
    kw_rank = rng.integers(0, 40, size=(n_docs, 4))
    year_p = np.linspace(1.0, 4.0, len(YEARS))
    years = rng.choice(YEARS, size=n_docs, p=year_p / year_p.sum())
    missing = rng.random(n_docs) < MISSING_YEAR_RATE
    types = rng.choice(len(DOC_TYPES), size=n_docs, p=DOC_TYPE_WEIGHTS)
    n_countries = rng.integers(1, 3, size=n_docs)
    country_idx = rng.integers(len(COUNTRIES), size=(n_docs, 2))

    records = []
    for d in range(n_docs):
        toks = tokens[offsets[d]:offsets[d + 1]]
        t = title_len[d]
        title = " ".join(toks[:t])
        abstract = " ".join(toks[t:])
        records.append({
            "id": f"S{d:06d}",
            "title": title[0].upper() + title[1:],
            "year": "" if missing[d] else str(years[d]),
            "abstract": abstract[0].upper() + abstract[1:] + ".",
            "keywords": ";".join(
                " ".join(topic_words[kw_topic[d], kw_rank[d, i]:kw_rank[d, i] + 2])
                for i in range(kw_count[d])
            ),
            "doc_type": DOC_TYPES[types[d]],
            "countries": ";".join(
                dict.fromkeys(COUNTRIES[c] for c in country_idx[d, : n_countries[d]])
            ),
        })
    return records


def render(records: list[dict], fmt: str) -> str:
    """The records as CSV (all columns as text) or JSON Lines."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(FIELDS)
        writer.writerows([r[f] for f in FIELDS] for r in records)
        return buf.getvalue()
    # JSON Lines: years as integers, list fields as arrays
    lines = []
    for r in records:
        obj = dict(r)
        obj["year"] = int(r["year"]) if r["year"] else None
        obj["keywords"] = r["keywords"].split(";")
        obj["countries"] = r["countries"].split(";")
        lines.append(json.dumps(obj, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def write_corpus(path: Path, n_docs: int, seed: int, fmt: str) -> Path:
    """Write the corpus for ``seed`` to ``path`` unless it is already there.

    The file appears atomically, so an interrupted run never leaves a
    truncated input behind for the next run to reuse.
    """
    if path.is_file():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(render(generate(n_docs, seed), fmt), encoding="utf-8")
    os.replace(tmp, path)
    return path
