"""Adjacent word-pair counting and thresholded co-occurrence graphs."""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SchemaError
from .text_pipeline import TokenArray, TokenSequence, as_token_array, csv_field

DEFAULT_THRESHOLD = 150


class GraphFormat(enum.Enum):
    DOT = "dot"
    GRAPHML = "graphml"
    EDGE_CSV = "csv"


@dataclass(frozen=True, eq=False)
class BigramTable:
    """Counts of ordered adjacent token pairs across a corpus.

    The distinct pairs are arrays over the token array's codes: ``keys``
    holds ``first * len(types) + second`` in ascending order and ``counts``
    the frequency of each. ``pairs`` reads them as a (first, second) -> count
    mapping that decodes to strings only when it is read.
    """

    types: tuple[str, ...] = field(repr=False)
    keys: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    total_bigrams: int

    @property
    def pairs(self) -> Mapping[tuple[str, str], int]:
        return _PairCounts(self)

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


class _PairCounts(Mapping):
    """Read-only (first, second) -> count view of a :class:`BigramTable`."""

    def __init__(self, table: BigramTable):
        self._table = table

    def __len__(self) -> int:
        return int(self._table.keys.size)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._table.decode())

    def __getitem__(self, pair: tuple[str, str]) -> int:
        count = self._table.frequency(*pair)
        if not count:
            raise KeyError(pair)
        return count


@dataclass(frozen=True)
class BigramGraph:
    """Directed bigram graph containing pairs at or above a frequency floor."""

    nodes: tuple[str, ...]
    edges: Mapping[tuple[str, str], int] = field(repr=False)
    threshold: int
    directed: bool = True


def count_bigrams(sequences: TokenArray | Iterable[TokenSequence]) -> BigramTable:
    """Count ordered pairs of adjacent tokens within each document.

    Pairs never span documents: a document with t tokens contributes exactly
    max(t - 1, 0) pairs, so the table total is sum over docs of (len - 1).
    """
    tokens = as_token_array(sequences)
    codes = tokens.codes.astype(np.int64)
    # pair i is (codes[i], codes[i + 1]); it crosses a boundary when a
    # document starts at i + 1
    within = np.ones(max(codes.size - 1, 0), dtype=bool)
    starts = tokens.offsets[1:-1]
    within[starts[(starts > 0) & (starts < codes.size)] - 1] = False
    keys, counts = np.unique(
        codes[:-1][within] * len(tokens.types) + codes[1:][within], return_counts=True
    )
    return BigramTable(
        types=tokens.types, keys=keys, counts=counts, total_bigrams=int(within.sum())
    )


def threshold_graph(table: BigramTable, min_freq: int = DEFAULT_THRESHOLD) -> BigramGraph:
    """Keep pairs with frequency >= min_freq (inclusive).

    Nodes are exactly the endpoints of surviving edges, sorted; an empty
    graph (no surviving pair) is a normal result, not an error.
    """
    if min_freq < 1:
        raise ConfigError(f"threshold must be >= 1, got {min_freq}")
    edges = table.decode(table.counts >= min_freq)
    nodes = {word for pair in edges for word in pair}
    return BigramGraph(
        nodes=tuple(sorted(nodes)), edges=edges, threshold=min_freq, directed=True
    )


def merge_undirected(graph: BigramGraph) -> BigramGraph:
    """Collapse (a, b) and (b, a) into one undirected edge with summed weight."""
    merged: dict[tuple[str, str], int] = {}
    for (a, b), f in graph.edges.items():
        key = (a, b) if a <= b else (b, a)
        merged[key] = merged.get(key, 0) + f
    return BigramGraph(
        nodes=graph.nodes, edges=merged, threshold=graph.threshold, directed=False
    )


def _sorted_edges(graph: BigramGraph) -> list[tuple[str, str, int]]:
    return [(a, b, graph.edges[(a, b)]) for a, b in sorted(graph.edges)]


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_graph(graph: BigramGraph, format: GraphFormat | str, provenance: str = "") -> bytes:
    """Serialize a graph as DOT, GraphML, or edge CSV bytes.

    Nodes and edges are emitted in sorted order and floats never appear, so
    equal graphs always serialize to identical bytes.
    """
    if isinstance(format, str):
        try:
            format = GraphFormat(format.strip().lower())
        except ValueError:
            raise ConfigError(f"unknown graph format: {format!r}") from None

    if format is GraphFormat.DOT:
        kind, arrow = ("digraph", "->") if graph.directed else ("graph", "--")
        lines = [f"{kind} bigrams {{"]
        if provenance:
            lines.append(f"  // {provenance}")
        for node in graph.nodes:
            lines.append(f"  {_dot_quote(node)};")
        for a, b, f in _sorted_edges(graph):
            lines.append(f"  {_dot_quote(a)} {arrow} {_dot_quote(b)} [weight={f}];")
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")

    if format is GraphFormat.GRAPHML:
        from xml.sax.saxutils import escape as esc, quoteattr  # GraphML only
        default = "directed" if graph.directed else "undirected"
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        ]
        if provenance:
            lines.append(f"  <!-- {esc(provenance)} -->")
        lines.append(
            '  <key id="weight" for="edge" attr.name="weight" attr.type="int"/>'
        )
        lines.append(f'  <graph id="bigrams" edgedefault="{default}">')
        for node in graph.nodes:
            lines.append(f'    <node id={quoteattr(node)}/>')
        for a, b, f in _sorted_edges(graph):
            qa, qb = quoteattr(a), quoteattr(b)
            lines.append(f"    <edge source={qa} target={qb}>")
            lines.append(f'      <data key="weight">{f}</data>')
            lines.append("    </edge>")
        lines.append("  </graph>")
        lines.append("</graphml>")
        return ("\n".join(lines) + "\n").encode("utf-8")

    # edge CSV: structural comment first so the file round-trips losslessly
    lines = [f"# bigram-graph threshold={graph.threshold} directed={int(graph.directed)}"]
    if provenance:
        lines.append(f"# {provenance}")
    lines.append("source,target,weight")
    for a, b, f in _sorted_edges(graph):
        lines.append(f"{csv_field(a)},{csv_field(b)},{f}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def import_edge_csv(data: bytes) -> BigramGraph:
    """Parse edge CSV written by :func:`export_graph` back into a graph."""
    import csv
    import io

    threshold = 1
    directed = True
    rows: list[str] = []
    for line in data.decode("utf-8").splitlines():
        if line.startswith("#"):
            if line.startswith("# bigram-graph"):
                for part in line.split()[2:]:
                    key, _, value = part.partition("=")
                    if key == "threshold":
                        threshold = int(value)
                    elif key == "directed":
                        directed = bool(int(value))
            continue
        if line:
            rows.append(line)
    if not rows or rows[0] != "source,target,weight":
        raise SchemaError("missing edge CSV header")
    edges: dict[tuple[str, str], int] = {}
    nodes: set[str] = set()
    for rec in csv.reader(io.StringIO("\n".join(rows[1:]), newline="")):
        if not rec:
            continue
        if len(rec) != 3:
            raise SchemaError(f"bad edge row: {rec!r}")
        a, b, f = rec[0], rec[1], int(rec[2])
        edges[(a, b)] = f
        nodes.add(a)
        nodes.add(b)
    return BigramGraph(
        nodes=tuple(sorted(nodes)), edges=edges, threshold=threshold, directed=directed
    )
