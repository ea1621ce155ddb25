"""Command-line interface.

The subcommands, their help and ``run --from``'s choices come from
:mod:`corpus_scope.pipeline`, which plans what each one computes and
writes; each setting's flag from its ``PipelineConfig`` field. A run exits
0 on success and otherwise with its error's ``exit_code``: 2 for an
InputError or ConfigError, 3 for an EmptyResultError, 1 for any other.
The run report's notes are printed as ``note: ...`` lines: on standard
output after a success, on standard error below a failed stage's error.
Each character a stream's encoding cannot hold is printed backslash-escaped.

Importing this module sets a policy for its one process, which covers the
``corpus-scope`` console script and any ``from corpus_scope.cli import
main`` caller:

- Before numpy loads, ``OPENBLAS_THREAD_TIMEOUT`` is set to 4 unless the
  environment already sets it. OpenBLAS (numpy's copy, loaded with numpy,
  and SciPy's, loaded only when a Lanczos CA first runs) reads it once, at
  load. At OpenBLAS's default of 28 its worker thread busy-polls for about
  2**28 cycles after start-up and after every threaded call, CPU time the
  run never uses; at 4 it polls 2**4 cycles and then sleeps until the next
  job. The thread count and the split of each call stay the same, so the
  output bytes do too.
- After the imports, ``gc.freeze()`` leaves the ~44k objects they built,
  which live until exit anyway, out of the cyclic GC, so later
  collections, the interpreter's shutdown ones included, walk only the
  run's own objects.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path

# before anything imports numpy (see the module docstring)
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .errors import ConfigError, CorpusScopeError, StageError  # noqa: E402
from .pipeline import (  # noqa: E402
    COMMANDS,
    STAGES,
    PipelineConfig,
    load_config,
    run_pipeline,
)

gc.freeze()  # see the module docstring

def _common_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes: ``--config`` and one per setting."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="INI config file (flags override it)")
    for f in fields(PipelineConfig):
        if f.metadata["flag"] is None:
            continue
        help = f.metadata["help"]
        if f.default is not MISSING and f.default is not None:
            help += f" (default {f.default})"
        common.add_argument(f.metadata["flag"], dest=f.name, type=f.metadata["parse"],
                            choices=f.metadata["choices"], help=help)
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corpus-scope",
        description="Batch text mining for bibliographic abstract corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()
    for name, desc in COMMANDS.items():
        p = sub.add_parser(name, help=desc, parents=[common])
        if name == "run":
            p.add_argument(
                "--from",
                dest="from_stage",
                choices=STAGES,
                help="rewrite outputs from this stage on (the earlier stages "
                "they need are recomputed in memory, their files left untouched)",
            )
    return parser


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    kwargs: dict[str, object] = {}
    if args.config is not None:
        kwargs.update(load_config(args.config))
    for f in fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            kwargs[f.name] = value
        elif f.default is MISSING and f.name not in kwargs:
            meta = f.metadata
            raise ConfigError(f"no {meta['flag']} given: pass it or set [{meta['section']}]"
                              f" {meta['key'] or f.name} in the config file")
    return PipelineConfig(**kwargs)


def _print(text: str, file=None) -> None:
    """Print ``text`` to ``file`` (standard output by default) with each
    character its encoding cannot hold backslash-escaped, so that a note or
    a file name the terminal cannot show does not fail a finished run."""
    file = file or sys.stdout
    encoding = getattr(file, "encoding", None) or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding), file=file)


class _StderrWarnings(logging.Handler):
    """Prints the toolkit's logged warnings as the CLI prints its own, to
    whatever ``sys.stderr`` is when each one arrives."""

    def emit(self, record: logging.LogRecord) -> None:
        _print(f"corpus-scope: {record.levelname.lower()}: {record.getMessage()}",
               sys.stderr)


def _route_warnings() -> None:
    logger = logging.getLogger("corpus_scope")
    if not any(isinstance(h, _StderrWarnings) for h in logger.handlers):
        logger.addHandler(_StderrWarnings(logging.WARNING))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _route_warnings()
    try:
        cfg = _build_config(args)
        report = run_pipeline(cfg, command=args.command,
                              from_stage=getattr(args, "from_stage", None))
    except CorpusScopeError as exc:
        _print(f"corpus-scope: error: {exc}", sys.stderr)
        for note in exc.report.notes if isinstance(exc, StageError) else ():
            _print(f"note: {note}", sys.stderr)
        return exc.exit_code
    for stage in report.stages:
        for note in stage.notes:
            _print(f"[{stage.name}] {note}")
    for note in report.notes:
        _print(f"note: {note}")
    written = ", ".join(sorted(report.output_files)) or "none"
    _print(f"wrote {len(report.output_files)} file(s) to {cfg.out_dir}: {written}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
