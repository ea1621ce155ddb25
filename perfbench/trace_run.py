"""One traced in-process run of the corpus-scope CLI.

Usage: python3 perfbench/trace_run.py SPANS.json CLI-ARGS...

Every public function that ``corpus_scope.pipeline`` imported from a layer
module (ingest, text, eda, lsa, lda, bigrams, svgplot) is replaced, in the
pipeline's namespace only, by a wrapper that records a span around the call;
``run_pipeline`` is wrapped the same way in the CLI's namespace. Then
``corpus_scope.cli.main`` runs with the given arguments, so the program's own
orchestration decides the call order. Spans (name, layer, start, end,
parent) and a few counts read from the returned objects stay in memory and
are written to SPANS.json when the run ends. Calls a layer makes to its own
functions are not traced.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "corpus_ingest", "text_pipeline", "eda", "svgplot", "lsa", "lda", "bigrams",
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": fn.__name__,
                "layer": layer,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            self._count(fn.__name__, result)
            return result

        return traced

    def _add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _count(self, name: str, result) -> None:
        """Counts with their bases, read from what the layer returned."""
        if name == "parse_file":
            corpus, errors = result
            self._add("corpus_ingest.records", len(corpus))
            self._add("corpus_ingest.flagged", len(errors))
        elif name == "build_sequences":
            self._add("text_pipeline.tokens", sum(len(s) for s in result))
        elif name == "build_dtm":
            self._add("text_pipeline.in_vocab_tokens", int(result.n_total))
            self._add("text_pipeline.dtm_nnz", int(result.csr.nnz))
            nbytes = 0
            for matrix in (result.csr, getattr(result, "csc", None)):
                if matrix is not None:
                    nbytes += matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            self._add("text_pipeline.dtm_bytes", nbytes)
        elif name == "fit_ca":
            self._add("lsa.fit_ca_iterations", int(result.iterations))
        elif name == "count_bigrams":
            self._add("bigrams.pairs", int(result.total_bigrams))
            self._add("bigrams.distinct_pairs", len(result.pairs))
        elif name == "threshold_graph":
            self._add("bigrams.edges", len(result.edges))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from corpus_scope import cli, pipeline

    tracer = Tracer()
    for name, obj in list(vars(pipeline).items()):
        module = getattr(obj, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        if inspect.isfunction(obj) and module.startswith("corpus_scope.") and layer in LAYERS:
            setattr(pipeline, name, tracer.wrap(obj, layer))
    cli.run_pipeline = tracer.wrap(cli.run_pipeline, "pipeline")

    code = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
