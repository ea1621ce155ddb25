import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_scope.bigrams import BigramGraph, count_bigrams, export_graph, threshold_graph
from corpus_scope.errors import ConfigError
from corpus_scope.text_pipeline import encode_tokens


def seqs(*token_lists):
    return encode_tokens([f"d{i}" for i in range(len(token_lists))], token_lists)


# ---------------------------------------------------------------- counting


def test_count_bigrams_ordered_pairs():
    table = count_bigrams(seqs(["machine", "learning", "machine", "learning"]))
    assert dict(table.pairs) == {("machine", "learning"): 2, ("learning", "machine"): 1}
    assert table.total_bigrams == 3
    assert table.frequency("machine", "learning") == 2
    assert table.frequency("learning", "nothing") == 0


def test_count_bigrams_never_crosses_documents():
    table = count_bigrams(seqs(["a", "b"], ["c", "d"]))
    assert ("b", "c") not in table.pairs
    assert dict(table.pairs) == {("a", "b"): 1, ("c", "d"): 1}


def test_count_bigrams_degenerate_documents():
    table = count_bigrams(seqs([], ["only"], ["x", "x"]))
    assert dict(table.pairs) == {("x", "x"): 1}
    assert table.total_bigrams == 1
    assert count_bigrams(seqs()).total_bigrams == 0


def naive_count(token_lists):
    """Reference counter: scan every adjacent position with explicit loops."""
    out = {}
    for toks in token_lists:
        for i in range(len(toks) - 1):
            key = (toks[i], toks[i + 1])
            out[key] = out.get(key, 0) + 1
    return out


def test_count_bigrams_matches_naive_oracle():
    rng = np.random.default_rng(1001)
    alphabet = [f"w{i}" for i in range(8)]
    for _ in range(100):
        docs = [
            [alphabet[int(j)] for j in rng.integers(0, len(alphabet), size=rng.integers(0, 25))]
            for _ in range(int(rng.integers(0, 10)))
        ]
        table = count_bigrams(seqs(*docs))
        assert dict(table.pairs) == naive_count(docs)
        assert table.total_bigrams == sum(max(len(d) - 1, 0) for d in docs)


def unique_reference(docs):
    """The table as ``np.unique`` gives it over each document's own pairs."""
    tokens = seqs(*docs)
    width = len(tokens.types)
    pairs = [tokens.codes[a:b].astype(np.int64) for a, b in
             zip(tokens.offsets[:-1].tolist(), tokens.offsets[1:].tolist())]
    keys = np.concatenate([np.zeros(0, np.int64)]
                          + [c[:-1] * width + c[1:] for c in pairs])
    return np.unique(keys, return_counts=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdefg"), max_size=9), max_size=8))
def test_count_bigrams_matches_the_unique_reference(docs):
    # empty and one-token documents, at the start, the end and side by side
    table = count_bigrams(seqs(*docs))
    keys, counts = unique_reference(docs)
    assert table.keys.dtype == keys.dtype and table.counts.dtype == counts.dtype
    assert table.keys.tolist() == keys.tolist()
    assert table.counts.tolist() == counts.tolist()
    assert table.total_bigrams == int(counts.sum())


def test_count_bigrams_invariant_under_document_order():
    rng = np.random.default_rng(1002)
    docs = [[f"t{int(j)}" for j in rng.integers(0, 5, size=12)] for _ in range(6)]
    base = count_bigrams(seqs(*docs))
    shuffled = [docs[i] for i in rng.permutation(len(docs))]
    again = count_bigrams(seqs(*shuffled))
    assert dict(base.pairs) == dict(again.pairs)
    assert base.total_bigrams == again.total_bigrams


# ---------------------------------------------------------------- threshold


def test_threshold_is_inclusive():
    table = count_bigrams(seqs(["a", "b"] * 3 + ["c"]))  # (a,b)=3, (b,a)=2, (b,c)=1
    graph = threshold_graph(table, min_freq=2)
    assert dict(graph.edges) == {("a", "b"): 3, ("b", "a"): 2}
    assert graph.nodes == ("a", "b")
    assert graph.threshold == 2


def test_threshold_graph_may_be_empty():
    graph = threshold_graph(count_bigrams(seqs(["a", "b"])), min_freq=10)
    assert graph.nodes == () and dict(graph.edges) == {}
    with pytest.raises(ConfigError):
        threshold_graph(count_bigrams(seqs()), min_freq=0)


def test_threshold_monotonicity():
    rng = np.random.default_rng(1003)
    docs = [[f"v{int(j)}" for j in rng.integers(0, 4, size=40)] for _ in range(5)]
    table = count_bigrams(seqs(*docs))
    for low, high in [(1, 2), (2, 5), (3, 9), (1, 30)]:
        loose = set(threshold_graph(table, low).edges)
        tight = set(threshold_graph(table, high).edges)
        assert tight <= loose


# ---------------------------------------------------------------- exports


def demo_graph():
    table = count_bigrams(seqs(["data", "science", "data", "science"], ["deep", "learning"]))
    return threshold_graph(table, min_freq=1)


def read_edge_csv(text: str):
    """(comment lines, csv.reader rows) of an exported edge CSV."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    return comments, list(csv.reader(ln for ln in lines if not ln.startswith("#")))


def test_export_edge_csv_round_trip():
    graph = demo_graph()
    comments, rows = read_edge_csv(export_graph(graph, provenance="fixture v1"))
    assert comments == ["# bigram-graph threshold=1 directed=1", "# fixture v1"]
    assert rows[0] == ["source", "target", "weight"]
    assert {(a, b): int(f) for a, b, f in rows[1:]} == dict(graph.edges)
    assert [(a, b) for a, b, _ in rows[1:]] == sorted(graph.edges)


def test_export_edge_csv_quotes_labels():
    label = 'he said "hi", twice'
    graph = BigramGraph(nodes=(label, "x"), edges={(label, "x"): 4}, threshold=1)
    comments, rows = read_edge_csv(export_graph(graph))
    assert comments == ["# bigram-graph threshold=1 directed=1"]
    assert rows == [["source", "target", "weight"], [label, "x", "4"]]


def test_export_edge_csv_writes_a_multi_line_provenance_as_one_line():
    comments, rows = read_edge_csv(export_graph(demo_graph(), provenance="a\nb"))
    assert comments == ["# bigram-graph threshold=1 directed=1", "# a\\nb"]
    assert rows[0] == ["source", "target", "weight"]


def test_export_is_deterministic_bytes():
    g = demo_graph()
    assert export_graph(g, provenance="p") == export_graph(g, provenance="p")
    assert isinstance(export_graph(g), str)
