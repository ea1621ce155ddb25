"""Adjacent word-pair counting and thresholded co-occurrence graphs.

:func:`count_bigrams` sorts one int64 key per adjacent pair in place and
reads the distinct pairs and their counts off its runs; strings are decoded
only for the pairs that are read or kept.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .text_pipeline import TokenArray, TokenSequence, as_token_array, csv_table

DEFAULT_THRESHOLD = 150


@dataclass(frozen=True, eq=False)
class BigramTable:
    """Counts of ordered adjacent token pairs across a corpus.

    The distinct pairs are arrays over the token array's codes: ``keys``
    holds ``first * len(types) + second`` in ascending order and ``counts``
    the frequency of each. ``pairs`` decodes them all into a (first, second)
    -> count dict; ``frequency`` looks one pair up without decoding.
    """

    types: tuple[str, ...] = field(repr=False)
    keys: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    total_bigrams: int

    @property
    def pairs(self) -> dict[tuple[str, str], int]:
        return self.decode()

    def frequency(self, first: str, second: str) -> int:
        types, n = self.types, len(self.types)
        a, b = bisect_left(types, first), bisect_left(types, second)
        if a == n or b == n or types[a] != first or types[b] != second:
            return 0
        key = a * n + b
        i = int(np.searchsorted(self.keys, key))
        return int(self.counts[i]) if i < self.keys.size and self.keys[i] == key else 0

    def decode(
        self, selected: np.ndarray | slice = slice(None)
    ) -> dict[tuple[str, str], int]:
        """The ``selected`` pairs (a mask or slice over ``keys``) as strings."""
        word = self.types.__getitem__
        firsts, seconds = np.divmod(self.keys[selected], len(self.types))
        pairs = zip(map(word, firsts.tolist()), map(word, seconds.tolist()))
        return dict(zip(pairs, self.counts[selected].tolist()))


@dataclass(frozen=True)
class BigramGraph:
    """Directed bigram graph containing pairs at or above a frequency floor."""

    nodes: tuple[str, ...]
    edges: Mapping[tuple[str, str], int] = field(repr=False)
    threshold: int


def count_bigrams(sequences: TokenArray | Iterable[TokenSequence]) -> BigramTable:
    """Count ordered pairs of adjacent tokens within each document.

    Pairs never span documents: a document with t tokens contributes exactly
    max(t - 1, 0) pairs, so the table total is sum over docs of (len - 1).
    """
    tokens = as_token_array(sequences)
    codes = tokens.codes
    # key i is pair (codes[i], codes[i + 1]); a pair that crosses into the
    # document starting at i + 1 gets key -1, which sorts before every pair
    keys = codes[:-1].astype(np.int64)
    keys *= len(tokens.types)
    keys += codes[1:]
    starts = tokens.offsets[1:-1]
    keys[starts[(starts > 0) & (starts < codes.size)] - 1] = -1
    keys.sort()
    keys = keys[np.searchsorted(keys, 0):]
    total = keys.size
    # each run of equal keys is one pair, counted by the run's length: a
    # True marks where a run starts, and the last one where the last run ends
    bounds = np.ones(total + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=bounds[1:-1])
    keys = keys[bounds[:-1]]
    counts = np.diff(np.flatnonzero(bounds))
    return BigramTable(types=tokens.types, keys=keys, counts=counts, total_bigrams=total)


def threshold_graph(table: BigramTable, min_freq: int = DEFAULT_THRESHOLD) -> BigramGraph:
    """Keep pairs with frequency >= min_freq (inclusive).

    Nodes are exactly the endpoints of surviving edges, sorted; an empty
    graph (no surviving pair) is a normal result, not an error.
    """
    if min_freq < 1:
        raise ConfigError(f"threshold must be >= 1, got {min_freq}")
    edges = table.decode(table.counts >= min_freq)
    nodes = {word for pair in edges for word in pair}
    return BigramGraph(nodes=tuple(sorted(nodes)), edges=edges, threshold=min_freq)


def export_graph(graph: BigramGraph, provenance: str = "") -> str:
    """Serialize a graph as edge CSV text by ``csv_table``, edges in sorted
    order, under a structural comment and ``provenance``. No floats appear,
    so equal graphs always serialize to identical bytes."""
    comments = (f"bigram-graph threshold={graph.threshold} directed=1", provenance)
    edges = ((a, b, graph.edges[(a, b)]) for a, b in sorted(graph.edges))
    return "".join(csv_table(("source", "target", "weight"), edges, comments))
