"""Command-line interface.

Subcommands: ingest, eda, lsa, lda, bigrams (each runs the pipeline up to
what it needs and writes only that stage's files), run (everything, with
--from to rewrite only later stages), and compare (country subset vs the
whole corpus). Exit codes: 0 success, 1 stage failure, 2 input or
configuration error, 3 empty subset after filtering.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

# A run is one short process. When OpenBLAS loads (numpy and scipy each
# bundle a copy, and both read this variable once, at load), its worker
# thread busy-polls for 2**28 cycles after start-up and after every threaded
# call, burning CPU time the run never uses and a core another process could.
# At 4 (2**4 cycles) the worker sleeps right after its job. The thread count
# and the split of each call stay the same, so the output bytes do too. A
# value already in the environment wins. This has to run before anything
# imports numpy.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .errors import (  # noqa: E402
    ConfigError,
    CorpusScopeError,
    EmptyResultError,
    InputError,
    StageError,
)
from .pipeline import (  # noqa: E402
    STAGES,
    PipelineConfig,
    compare_subsets,
    load_config,
    run_pipeline,
    warn_ignored,
)

# What the imports built lives until exit: leave it out of the cyclic GC, so
# that later collections, the interpreter's shutdown ones included, walk
# only the run's own objects.
gc.freeze()

_STAGE_FOR_COMMAND = {
    "ingest": "ingest",
    "eda": "eda",
    "lsa": "lsa",
    "lda": "lda",
    "bigrams": "bigrams",
}


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, help="INI config file (flags override it)")
    sub.add_argument("--input", type=Path, help="input records (CSV or JSON-Lines)")
    sub.add_argument("--format", choices=["csv", "jsonl"], help="input format "
                     "(default: inferred from the file suffix)")
    sub.add_argument("--phrase", help="keep only documents containing this phrase")
    sub.add_argument("--year-min", type=int, dest="year_min", help="earliest year kept")
    sub.add_argument("--year-max", type=int, dest="year_max", help="latest year kept")
    sub.add_argument("--stoplist", type=Path, help="stopword file, one term per line")
    sub.add_argument("--vocab-size", type=int, dest="vocab_size",
                     help="vocabulary cap (default 1000)")
    sub.add_argument("--dims", type=int, help="correspondence-analysis axes (default 2)")
    sub.add_argument("--topics", type=int, help="LDA topic count (default 6)")
    sub.add_argument("--alpha", type=float, help="LDA document prior (default 50/topics)")
    sub.add_argument("--beta", type=float, help="LDA word prior (default 0.01)")
    sub.add_argument("--iters", type=int, dest="iterations",
                     help="Gibbs sweeps (default 1000)")
    sub.add_argument("--burn-in", type=int, dest="burn_in",
                     help="burn-in sweeps, checked (< --iters) and recorded in the "
                     "model file; the estimates come from the final sweep, so it "
                     "does not change them (default 200)")
    sub.add_argument("--seed", type=int, help="RNG seed (default 42)")
    sub.add_argument("--bigram-threshold", type=int, dest="bigram_threshold",
                     help="minimum bigram frequency kept (default 150)")
    sub.add_argument("--country", help="country for the compare subcommand")
    sub.add_argument("--out", type=Path, dest="out_dir", help="output directory")
    sub.add_argument("--threads", type=int,
                     help="deprecated; accepted with a warning and has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corpus-scope",
        description="Batch text mining for bibliographic abstract corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "ingest": "parse, validate, filter, and write corpus.csv",
        "eda": "yearly counts, quadratic trend with forecast, top terms, type shares",
        "lsa": "correspondence analysis coordinates and representative documents",
        "lda": "topic model: lda_model.txt and lda_top_words.csv",
        "bigrams": "adjacent word pairs above the frequency threshold",
        "run": "all stages in order",
        "compare": "country subset vs the whole corpus, side by side",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc)
        _add_common_flags(p)
        if name == "run":
            p.add_argument(
                "--from",
                dest="from_stage",
                choices=STAGES,
                help="rewrite outputs from this stage on (earlier stages are "
                "recomputed in memory but their files are left untouched)",
            )
    return parser


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    kwargs: dict[str, object] = {}
    if args.config is not None:
        kwargs.update(load_config(args.config))
    if args.threads is not None:
        warn_ignored("--threads")
    for f in fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            kwargs[f.name] = value
    if "input" not in kwargs:
        raise ConfigError("no input given: pass --input or set it in the config file")
    if "out_dir" not in kwargs:
        raise ConfigError("no output directory given: pass --out or set it in the config file")
    return PipelineConfig(**kwargs)


def _exit_code(exc: CorpusScopeError) -> int:
    cause = exc.cause if isinstance(exc, StageError) else exc
    if isinstance(cause, (InputError, ConfigError)):
        return 2
    if isinstance(cause, EmptyResultError):
        return 3
    return 1


class _StderrWarnings(logging.Handler):
    """Prints the toolkit's logged warnings as the CLI prints its own, to
    whatever ``sys.stderr`` is when each one arrives."""

    def emit(self, record: logging.LogRecord) -> None:
        print(f"corpus-scope: {record.levelname.lower()}: {record.getMessage()}",
              file=sys.stderr)


def _route_warnings() -> None:
    logger = logging.getLogger("corpus_scope")
    if not any(isinstance(h, _StderrWarnings) for h in logger.handlers):
        logger.addHandler(_StderrWarnings(logging.WARNING))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _route_warnings()
    try:
        cfg = _build_config(args)
        if args.command == "compare":
            report = compare_subsets(cfg)
        elif args.command == "run":
            write = set(STAGES)
            if args.from_stage:
                write = set(STAGES[STAGES.index(args.from_stage):])
            report = run_pipeline(cfg, write_stages=write, command="run")
        else:
            stage = _STAGE_FOR_COMMAND[args.command]
            report = run_pipeline(cfg, write_stages={stage}, command=args.command)
    except CorpusScopeError as exc:
        print(f"corpus-scope: error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    for stage in report.stages:
        for note in stage.notes:
            print(f"[{stage.name}] {note}")
    written = ", ".join(sorted(report.output_files)) or "none"
    print(f"wrote {len(report.output_files)} file(s) to {cfg.out_dir}: {written}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
