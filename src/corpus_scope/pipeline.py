"""End-to-end batch pipeline and the subset comparison mode.

One table, :data:`STAGE_TABLE`, says what the stages are: in execution
order (ingest, text, eda, lsa, lda, bigrams, compare), each record names its
runner, the stages it needs and the files it writes. A command names the
stages whose files it writes (``run`` the first six, or those from
``--from`` on, and compare given a country; a subcommand its own stage);
:func:`plan` adds what they need and :func:`run_pipeline` computes that, in
table order, so compare reads the whole corpus's topics and tokens from the
lda and text stages. Every run also writes run_report.json, a manifest with
the echoed configuration, per-stage wall times and notes, dropped-record
lists, and a SHA-256 per output file. Settings come from
:class:`PipelineConfig` alone, never from the environment, so the echoed
configuration is all that chose the data files. These are deterministic for
a given (input, config) pair; ca_coords.csv and trend.csv, which BLAS and
LAPACK compute, only for a fixed BLAS thread count and the same OpenBLAS CPU
kernels (``OPENBLAS_CORETYPE``). The report's timing fields are the only
thing that varies between runs.

A short run spends most of its time starting up, so modules that not every
run uses load where they are needed: ``configparser`` in
:func:`load_config`, and ``resource`` only where ``/proc/self/status`` has
no ``VmHWM``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import __version__, _native
from .bigrams import (
    DEFAULT_THRESHOLD,
    count_bigrams,
    export_graph,
    threshold_graph,
)
from .corpus_ingest import (
    INPUT_FORMATS,
    Corpus,
    check_csv_header,
    filter_by_phrase,
    filter_by_years,
    infer_format,
    parse_file,
    partition_by_country,
    require_nonempty,
    serialize_corpus,
    tokenize,
)
from .eda import (
    EXTRAPOLATION_MARGIN,
    QuadraticFit,
    counts_per_year,
    fit_quadratic,
    forecast_point,
    top_terms,
    type_shares,
)
from .errors import (
    ConfigError,
    CorpusScopeError,
    InputError,
    InsufficientDataError,
    StageError,
)
from .lda import (
    DEFAULT_BETA,
    DEFAULT_BURN_IN,
    DEFAULT_ITERATIONS,
    DEFAULT_TOPICS,
    LdaConfig,
    fit_lda,
    render_model,
    top_words_per_topic,
)
from .lsa import DEFAULT_DIMS, fit_ca, project_supplementary, representative_documents
from .svgplot import empty_chart, line_chart, scatter_2d
from .text_pipeline import (
    DEFAULT_TEXT_FIELDS,
    DEFAULT_VOCAB_SIZE,
    _one_line,
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
)


def _setting(section: str, default, parse: Callable[[str], object], flag: str | None = None,
             help: str = "", *, key: str | None = None, choices: tuple[str, ...] | None = None):
    """A :class:`PipelineConfig` field: its INI ``section`` and ``key`` (the
    field's name unless given), the ``parse`` that reads the file's text and
    the flag's alike, before argparse checks ``choices``, its ``flag`` (None
    when only the file sets it) and the flag's ``help`` without the default."""
    return field(default=default, metadata=dict(
        section=section, key=key, parse=parse, flag=flag, help=help, choices=choices))


@dataclass(frozen=True, kw_only=True)
class PipelineConfig:
    """Everything a run needs. Each setting is declared once, here: its
    field's metadata (see :func:`_setting`) gives the INI schema
    :func:`load_config` reads and the CLI's flags, in ``--help``'s order."""

    input: Path = _setting("corpus_ingest", MISSING, Path, "--input",
                           "input records (CSV or JSON-Lines)")
    format: str | None = _setting("corpus_ingest", None, lambda v: v.strip().lower(), "--format",
                                  "input format (default: inferred from the file suffix)",
                                  choices=INPUT_FORMATS)
    phrase: str | None = _setting("corpus_ingest", None, str, "--phrase",
                                  "keep only documents containing this phrase")
    year_min: int | None = _setting("corpus_ingest", None, int, "--year-min", "earliest year kept")
    year_max: int | None = _setting("corpus_ingest", None, int, "--year-max", "latest year kept")
    stoplist: Path | None = _setting("text_pipeline", None, Path, "--stoplist",
                                     "stopword file, one term per line")
    text_fields: tuple[str, ...] = _setting(
        "text_pipeline", DEFAULT_TEXT_FIELDS,
        lambda v: tuple(s.strip() for s in v.split(",") if s.strip()))
    vocab_size: int = _setting("text_pipeline", DEFAULT_VOCAB_SIZE, int, "--vocab-size",
                               "vocabulary cap")
    top_terms: int = _setting("eda", 30, int)
    forecast_years: int = _setting("eda", 2, int)
    dims: int = _setting("lsa", DEFAULT_DIMS, int, "--dims", "correspondence-analysis axes")
    top_documents: int = _setting("lsa", 5, int)
    topics: int = _setting("lda", DEFAULT_TOPICS, int, "--topics", "LDA topic count")
    alpha: float | None = _setting("lda", None, float, "--alpha",
                                   "LDA document prior (default 50/topics)")
    beta: float = _setting("lda", DEFAULT_BETA, float, "--beta", "LDA word prior")
    iterations: int = _setting("lda", DEFAULT_ITERATIONS, int, "--iters", "Gibbs sweeps")
    burn_in: int = _setting("lda", DEFAULT_BURN_IN, int, "--burn-in", "burn-in sweeps, checked "
                            "(< --iters) and recorded in the model file; the estimates come "
                            "from the final sweep, so it does not change them")
    seed: int = _setting("report", 42, int, "--seed", "RNG seed")
    bigram_threshold: int = _setting("bigrams", DEFAULT_THRESHOLD, int, "--bigram-threshold",
                                     "minimum bigram frequency kept", key="threshold")
    country: str | None = _setting("corpus_ingest", None, str, "--country", "country whose "
                                   "documents compare.csv sets beside the whole corpus (required "
                                   "by compare; run writes compare.csv too when it is given)")
    out_dir: Path = _setting("report", MISSING, Path, "--out", "output directory", key="out")

    def __post_init__(self):
        if self.format is not None:
            fmt = self.format.strip().lower()
            if fmt not in INPUT_FORMATS:
                raise ConfigError(
                    f"format must be one of {', '.join(INPUT_FORMATS)}, got {self.format!r}"
                )
            # stored as the flag and the INI key give it, so the report echoes that
            object.__setattr__(self, "format", fmt)
        if self.vocab_size < 1:
            raise ConfigError("vocab_size must be >= 1")
        if not 0 <= self.forecast_years <= EXTRAPOLATION_MARGIN:
            # eda forecasts no further than this past the last observed year
            raise ConfigError(
                f"forecast_years must be between 0 and {EXTRAPOLATION_MARGIN},"
                f" got {self.forecast_years}"
            )
        if self.top_terms < 1 or self.top_documents < 1:
            raise ConfigError("top_terms and top_documents must be >= 1")
        if self.bigram_threshold < 1:
            raise ConfigError("bigram_threshold must be >= 1")
        if self.dims < 1:
            raise ConfigError("dims must be >= 1")
        if self.country is not None and not self.country.strip():
            raise ConfigError("country must name a country, got a blank string")
        if self.phrase is not None and not tokenize(self.phrase):
            raise ConfigError(f"phrase {self.phrase!r} contains no word to match")
        if None not in (self.year_min, self.year_max) and self.year_min > self.year_max:
            raise ConfigError(
                f"year_min ({self.year_min}) must not exceed year_max ({self.year_max})"
            )
        unknown = [f for f in self.text_fields if f not in DEFAULT_TEXT_FIELDS]
        if unknown or not self.text_fields:
            raise ConfigError(
                f"text_fields must name some of {', '.join(DEFAULT_TEXT_FIELDS)};"
                f" got {', '.join(self.text_fields) or 'none'}"
            )
        self.lda_config()  # raises ConfigError before any stage writes a file

    def lda_config(self) -> LdaConfig:
        return LdaConfig(
            k=self.topics,
            alpha=self.alpha,
            beta=self.beta,
            iterations=self.iterations,
            burn_in=self.burn_in,
            seed=self.seed,
        )


def load_config(path) -> dict[str, object]:
    """Parse an INI config with sections mirroring the module names.

    Returns a kwargs dict for :class:`PipelineConfig`; unknown sections or
    keys raise ConfigError so typos never silently fall back to defaults.
    A leading byte-order mark is skipped.
    """
    import configparser  # here, so that a run without a config never loads it

    # a section named "\n" cannot be written, so [DEFAULT] is an unknown
    # section like any other instead of lending its keys to every section
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    schema: dict[str, dict] = {}
    for f in fields(PipelineConfig):
        schema.setdefault(f.metadata["section"], {})[f.metadata["key"] or f.name] = f
    kwargs: dict[str, object] = {}
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in schema[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            f = schema[section][key]
            try:
                kwargs[f.name] = f.metadata["parse"](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    return kwargs


@dataclass
class StageReport:
    name: str
    seconds: float = 0.0
    outputs: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    peak_rss_mb: float | None = None  # the process's peak so far, at stage end


@dataclass
class RunReport:
    """Machine-readable run manifest (written as run_report.json)."""

    version: str
    command: str
    config: PipelineConfig
    stages: list[StageReport] = field(default_factory=list)
    output_files: dict[str, str] = field(default_factory=dict)
    record_errors: list[dict] = field(default_factory=list)
    failed_stage: str | None = None
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, default=os.fspath) + "\n"


def resolve_stoplist(cfg: PipelineConfig) -> tuple[frozenset[str], str]:
    """The stoplist and where it came from: the file ``cfg.stoplist`` names,
    else the bundled list."""
    if cfg.stoplist is None:
        return default_stoplist(), "bundled"
    return load_stoplist(cfg.stoplist), f"file:{cfg.stoplist.name}"


def _check_paths(cfg: PipelineConfig, files: tuple[str, ...]) -> None:
    """Raise InputError, before any stage runs, when the input or the
    stoplist is not a file, when no ``format`` is given and the input's
    suffix names none, when the input or the stoplist is one of the planned
    ``files`` or ``run_report.json`` in ``--out``, which the run would
    overwrite, when one of those outputs exists and is not a file, or when
    a CSV input's header row would fail the ingest stage."""
    if not cfg.input.is_file():
        raise InputError(f"input path is not a readable file: {cfg.input}")
    fmt = cfg.format or infer_format(cfg.input)
    if cfg.stoplist is not None and not cfg.stoplist.is_file():
        raise InputError(f"stoplist path is not a readable file: {cfg.stoplist}")
    read = [("input", cfg.input)] + ([("stoplist", cfg.stoplist)] if cfg.stoplist else [])
    for name in (*files, "run_report.json"):
        target = cfg.out_dir / name
        if target.exists() and not target.is_file():
            raise InputError(f"output {target} exists and is not a file")
        for what, path in read:
            if target.is_file() and os.path.samefile(path, target):
                raise InputError(f"{what} {path} is the output {name} this run would overwrite")
    if fmt == "csv":
        check_csv_header(cfg.input)


# where Linux reports the process's own peak RSS (VmHWM)
_PROC_STATUS = Path("/proc/self/status")


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size so far, in MB.

    Read from ``VmHWM`` where the system has it; ``ru_maxrss`` is the
    fallback, but on Linux it survives ``execve``, so there a child started
    from a larger parent would report the parent's peak.
    """
    try:
        with open(_PROC_STATUS, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)  # in kB
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - not on Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return round(peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0), 1)


class _Run:
    """Mutable state shared by the stage runners of one pipeline execution."""

    def __init__(self, cfg: PipelineConfig, command: str, stages: tuple[str, ...],
                 files: tuple[str, ...]):
        self.cfg = cfg
        self.stages = stages  # the planned stages' names, in table order
        self.files = files  # the planned outputs, in table order
        self.report = RunReport(version=__version__, command=command, config=cfg)
        self.provenance = ""
        self.corpus: Corpus | None = None
        self.subset: Corpus | None = None  # the country subset, when compare is planned
        self.stoplist: frozenset[str] = frozenset()  # read before --out is created
        self.stoplist_origin = ""
        self.tokens = None
        self.vocab = None
        self.dtm = None
        self.topic_words: list[list[str]] | None = None  # lda's top 10 per topic

    def emit(self, stage: StageReport, name: str, payload: str | Iterable[str]) -> None:
        """Write one output of ``stage`` with :func:`_write_atomically`, if
        the plan has it.

        A writer's chunk iterator does its work only then; if it raises, the
        report gets no hash.
        """
        if name not in self.files:
            return
        digest = _write_atomically(self.cfg.out_dir / name, payload)
        stage.outputs.append(name)
        self.report.output_files[name] = digest

    def finish_report(self) -> None:
        """Note the planned files left from an earlier run; write the report."""
        stale = [name for name in self.files if name not in self.report.output_files
                 and (self.cfg.out_dir / name).exists()]
        if stale:
            self.report.notes.append(f"stale from an earlier run: {', '.join(stale)}")
        _write_atomically(self.cfg.out_dir / "run_report.json", self.report.to_json())


def _write_atomically(path: Path, payload: str | Iterable[str]) -> str:
    """Write ``payload``, a string or its chunks, to ``path`` as UTF-8 and
    return the SHA-256 of its bytes.

    Each chunk is encoded, hashed and written to a temporary name beside
    ``path`` that is renamed into place after the last one; if the payload
    raises, the temporary file is removed and ``path`` keeps whatever it held
    before.
    """
    chunks = (payload,) if isinstance(payload, str) else payload
    sha256 = hashlib.sha256()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                sha256.update(data)
                fh.write(data)
                # only the bytes go before the writer makes the next chunk: on
                # x86-64 glibc, keeping them raised a 3k-document run's peak
                # RSS by 1 MB, and dropping the chunk too a 10k one's by 6 MB
                del data
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return sha256.hexdigest()


def _float(v: float) -> str:
    return repr(float(v))


def _float_rows(matrix: np.ndarray) -> list[str]:
    """Each row of a 2-D float array as its values' reprs joined by commas."""
    rows, cols = matrix.shape
    ends = np.arange(cols, rows * cols + 1, cols)
    return "".join(line_chunks(matrix, ends, ",")).split("\n")[:-1]


def _ingest(run: _Run, stage: StageReport) -> None:
    cfg = run.cfg
    corpus, errors = parse_file(cfg.input, cfg.format)
    run.report.record_errors = [
        {"row": e.row, "reason": e.reason, "dropped": e.dropped} for e in errors
    ]
    stage.notes.append(f"parsed {len(corpus)} unique records, {len(errors)} flagged")
    if cfg.year_min is not None or cfg.year_max is not None:
        corpus = filter_by_years(corpus, cfg.year_min, cfg.year_max)
        stage.notes.append(f"year filter kept {len(corpus)}")
    if cfg.phrase:
        corpus = filter_by_phrase(corpus, cfg.phrase)
        stage.notes.append(f"phrase filter kept {len(corpus)}")
    require_nonempty(corpus, "ingest filters")
    if "compare" in run.stages:  # an empty subset fails before any stage writes
        run.subset, _rest = partition_by_country(corpus, cfg.country)
        require_nonempty(run.subset, f"country filter {cfg.country!r}")
    run.corpus = corpus
    run.provenance = _one_line(
        f"corpus-scope {__version__} | input={cfg.input.name}"
        f" | filters={'; '.join(corpus.filters) or 'none'}"
        f" | seed={cfg.seed}"
    )
    run.emit(stage, "corpus.csv", serialize_corpus(corpus))


def _text(run: _Run, stage: StageReport) -> None:
    cfg = run.cfg
    stage.notes.append(f"stoplist={run.stoplist_origin} ({len(run.stoplist)} terms)")
    run.tokens = build_sequences(run.corpus, run.stoplist, fields=cfg.text_fields)
    stage.notes.append(f"tokenizer backend {_native.backend()}")
    run.vocab = build_vocabulary(run.tokens, cfg.vocab_size)
    run.dtm = build_dtm(run.tokens, run.vocab)
    stage.notes.append(
        f"vocabulary {len(run.vocab)} terms, {run.dtm.n_total} tokens counted"
    )
    run.emit(stage, "dtm.mtx", export_matrixmarket(run.dtm, comment=run.provenance))
    run.emit(stage, "dtm_index.csv", export_dtm_index(run.dtm, comment=run.provenance))


def _eda(run: _Run, stage: StageReport) -> None:
    cfg = run.cfg
    series = counts_per_year(run.corpus)
    if series.missing_year_count:
        stage.notes.append(f"{series.missing_year_count} document(s) without a year")

    comments = (run.provenance,)
    run.emit(stage, "year_counts.csv", csv_table(("year", "count"), series.points, comments))

    fit: QuadraticFit | None = None
    trend: list[tuple[str, object]] = []
    try:
        fit = fit_quadratic(series)
    except InsufficientDataError as exc:
        trend.append(("status", f"skipped: {exc}"))
        stage.notes.append(f"trend fit skipped: {exc}")
    forecasts: list[tuple[int, float, bool]] = []
    if fit is not None:
        fitted = ("a2", "a1", "a0", "r_squared", "p_value")
        trend += [("status", "ok"), *((key, float(getattr(fit, key))) for key in fitted),
                  ("x_encoding", "raw_year"), ("degenerate", int(fit.degenerate)),
                  ("x_min", fit.x_min), ("x_max", fit.x_max)]
        for offset in range(1, cfg.forecast_years + 1):
            year = fit.x_max + offset
            value, clamped = forecast_point(fit, year)
            forecasts.append((year, value, clamped))
            trend.append((f"forecast_{year}", float(value)))
            trend.append((f"forecast_{year}_clamped", int(clamped)))
    run.emit(stage, "trend.csv", csv_table(("key", "value"), trend, comments))

    ranked = top_terms(run.vocab, cfg.top_terms)
    run.emit(stage, "top_terms.csv", csv_table(
        ("rank", "term", "count", "cumulative_share"),
        ((i, term, count, float(share)) for i, (term, count, share) in enumerate(ranked, 1)),
        comments))

    shares = type_shares(run.corpus)
    tally = Counter(d.doc_type for d in run.corpus)
    run.emit(stage, "type_shares.csv", csv_table(
        ("doc_type", "count", "share_percent"),
        ((t.value, tally[t], shares[t]) for t in shares), comments))

    observed = [(float(y), float(c)) for y, c in series.points]
    fitted_pts: list[tuple[float, float]] = []
    forecast_pts = [(float(y), v) for y, v, _ in forecasts]
    if fit is not None:
        last = fit.x_max + cfg.forecast_years
        for year in range(fit.x_min, last + 1):
            value, _ = forecast_point(fit, year)
            fitted_pts.append((float(year), value))
    labels = dict(title="Documents per year", x_label="year", y_label="documents")
    if observed:
        svg = line_chart(observed, fitted=fitted_pts, forecast=forecast_pts, **labels)
    else:
        svg = empty_chart(**labels)
    run.emit(stage, "trend.svg", svg)


def _lsa(run: _Run, stage: StageReport) -> None:
    cfg = run.cfg
    n_rows = int((run.dtm.row_totals > 0).sum())
    n_cols = int((run.dtm.col_totals > 0).sum())
    max_dims = min(n_rows, n_cols) - 1
    dims = cfg.dims
    # below one axis fit_ca says why the table is too small
    if dims > max_dims >= 1:
        dims = max_dims
        stage.notes.append(f"dims reduced to {dims} for a {n_rows}x{n_cols} table")
    model = fit_ca(run.dtm, dims=dims)
    stage.notes.append(f"ca solver {model.solver}, {model.iterations} iterations")
    if model.solver == "lanczos":
        from . import _lapack  # loaded by the Lanczos fit, and only by it

        stage.notes.append(f"tridiagonal solver {_lapack.solver()}")
        stage.notes.append(f"{model.tridiagonal_solves} tridiagonal solves,"
                           f" {model.bounded_steps} steps decided by bounds")
        stage.notes.append(f"ritz residual {model.ritz_residual:.1e} of the top eigenvalue")
    if model.dropped_docs:
        stage.notes.append(f"dropped empty documents: {', '.join(model.dropped_docs)}")
    if model.dropped_terms:
        stage.notes.append(f"dropped empty terms: {', '.join(model.dropped_terms)}")
    stage.notes.append(
        "inertia "
        + _float(model.total_inertia)
        + " | explained "
        + ", ".join(_float(v) for v in model.explained_inertia())
    )

    ranked = [doc_id for doc_id, _ in representative_documents(model, len(model.row_ids))]
    ranking = {doc_id: rank for rank, doc_id in enumerate(ranked, start=1)}
    by_year: dict[str, list[str]] = {}
    years = {d.id: d.year for d in run.corpus}
    for doc_id in model.row_ids:
        year = years.get(doc_id)
        if year is not None:
            by_year.setdefault(str(year), []).append(doc_id)
    supp = project_supplementary(model, by_year) if by_year else None

    header = ("kind", "label", "mass", "score", "rank",
              *(f"dim_{i + 1}" for i in range(model.dims)))
    # per point: kind, label, the floats before the coordinates (mass and
    # score for documents, mass for terms and years), what follows them, and
    # the coordinates
    scores = np.linalg.norm(model.row_coords, axis=1)
    points = [
        ("row", model.row_ids, np.column_stack((model.row_masses, scores)),
         [f",{ranking[doc_id]}" for doc_id in model.row_ids], model.row_coords),
        ("col", model.col_labels, model.col_masses[:, None],
         [",,"] * len(model.col_labels), model.col_coords),
    ]
    if supp is not None:
        points.append(("year", supp.labels, supp.masses[:, None],
                       [",,"] * len(supp.labels), supp.coords))

    def coords_csv() -> Iterator[str]:
        yield from csv_table(header, (), (run.provenance,))
        for kind, labels, lead, tails, coords in points:
            for lo in range(0, len(labels), 2048):
                block = slice(lo, lo + 2048)
                yield "".join(
                    f"{kind},{csv_field(label)},{first}{tail},{rest}\n"
                    for label, first, tail, rest in zip(
                        labels[block], _float_rows(lead[block]), tails[block],
                        _float_rows(coords[block]))
                )

    run.emit(stage, "ca_coords.csv", coords_csv())
    stage.notes.append(f"number formatter backend {_native.backend()}")

    if "ca_scatter.svg" in run.files and model.dims >= 2:
        xy = dict(zip(model.row_ids, model.row_coords[:, :2].tolist()))
        labels = [(*xy[doc_id], doc_id) for doc_id in ranked[:cfg.top_documents]]
        groups = [
            ("documents", "#225599",
             [(float(x), float(y)) for x, y, *_ in model.row_coords]),
            ("terms", "#cc8822",
             [(float(x), float(y)) for x, y, *_ in model.col_coords]),
        ]
        if supp is not None and len(supp.labels):
            groups.append(
                ("years", "#338844",
                 [(float(x), float(y)) for x, y, *_ in supp.coords])
            )
            labels.extend(
                (float(supp.coords[g][0]), float(supp.coords[g][1]), label)
                for g, label in enumerate(supp.labels)
            )
        svg = scatter_2d(
            groups,
            labels=labels,
            title="Correspondence analysis (principal coordinates)",
            x_label="dim 1",
            y_label="dim 2",
        )
        run.emit(stage, "ca_scatter.svg", svg)


def _lda(run: _Run, stage: StageReport) -> None:
    cfg = run.cfg
    model = fit_lda(run.tokens, run.vocab, cfg.lda_config())
    stage.notes.append(f"gibbs backend {_native.backend()}")
    if model.dropped_ids:
        stage.notes.append(
            f"dropped documents without vocabulary tokens: {', '.join(model.dropped_ids)}"
        )
    stage.notes.append(f"final log-likelihood {_float(model.log_likelihoods[-1])}")
    run.emit(stage, "lda_model.txt", render_model(model))

    run.topic_words = words = top_words_per_topic(model, m=10)
    term_index = {t: j for j, t in enumerate(model.terms)}
    rows = []
    for t, terms in enumerate(words):
        phi = model.phi[t, [term_index[term] for term in terms]].tolist()
        rows += ((t, r, term, value) for r, (term, value) in enumerate(zip(terms, phi), 1))
    run.emit(stage, "lda_top_words.csv",
             csv_table(("topic", "rank", "term", "phi"), rows, (run.provenance,)))


def _bigrams(run: _Run, stage: StageReport) -> None:
    cfg = run.cfg
    table = count_bigrams(run.tokens)
    graph = threshold_graph(table, cfg.bigram_threshold)
    stage.notes.append(
        f"{table.total_bigrams} pairs observed, {len(graph.edges)} edges kept "
        f"at threshold {graph.threshold}"
    )
    run.emit(stage, "bigrams_edges.csv", export_graph(graph, provenance=run.provenance))


def _share_percent(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f}" if whole else "0.0"


def _compare(run: _Run, stage: StageReport) -> None:
    """compare.csv: the country subset beside the ingested corpus.

    Rows are (section, key, subset, overall): corpus sizes and share, counts
    per year, publication-type shares, top-20 terms, and per-topic top words
    from topic models fitted separately with identical settings and seed.
    The overall column reuses the text stage's vocabulary and the lda stage's
    top words, and the subset is the one ingest partitioned and found
    non-empty; its tokens are its rows of the text stage's token array, and
    only its vocabulary and topic model are built here, with the same settings.
    """
    cfg, corpus, subset = run.cfg, run.corpus, run.subset
    stage.notes.append(f"subset {len(subset)} of {len(corpus)} documents")
    provenance = (f"corpus-scope {__version__} | input={cfg.input.name}"
                  f" | compare country={cfg.country} | seed={cfg.seed}")

    members = {d.id for d in subset}
    sub_tokens = run.tokens.take([r for r, i in enumerate(run.tokens.doc_ids) if i in members])
    sub_vocab = build_vocabulary(sub_tokens, cfg.vocab_size)
    sub_terms = top_terms(sub_vocab, 20)
    sub_topics = top_words_per_topic(fit_lda(sub_tokens, sub_vocab, cfg.lda_config()), m=10)
    all_terms = top_terms(run.vocab, 20)
    all_topics = run.topic_words

    rows: list[tuple] = [
        ("size", "documents", len(subset), len(corpus)),
        ("size", "share_percent", _share_percent(len(subset), len(corpus)), "100.0"),
    ]
    # each section's counts by label; years have four digits (ingest keeps
    # 1900-2100), so their labels sort as the years do
    for section, count in (
        ("years", lambda c: {str(y): n for y, n in counts_per_year(c).points}),
        ("types", lambda c: {t.value: n for t, n in type_shares(c).items()}),
    ):
        sub, full = count(subset), count(corpus)
        rows += ((section, key, sub.get(key, 0), full.get(key, 0))
                 for key in sorted(sub.keys() | full.keys()))
    for i in range(20):
        sub = f"{sub_terms[i][0]}:{sub_terms[i][1]}" if i < len(sub_terms) else ""
        full = f"{all_terms[i][0]}:{all_terms[i][1]}" if i < len(all_terms) else ""
        rows.append(("top_terms", f"rank_{i + 1:02d}", sub, full))
    for t in range(cfg.topics):
        for r in range(10):
            sub = sub_topics[t][r] if t < len(sub_topics) and r < len(sub_topics[t]) else ""
            full = all_topics[t][r] if t < len(all_topics) and r < len(all_topics[t]) else ""
            rows.append(("lda_top_words", f"topic_{t}_rank_{r + 1:02d}", sub, full))

    run.emit(stage, "compare.csv",
             csv_table(("section", "key", "subset", "overall"), rows, (provenance,)))


@dataclass(frozen=True)
class Stage:
    """One row of the stage table: ``runner`` reads what the stages in
    ``needs`` left on the :class:`_Run` and writes those of ``outputs`` that
    the plan has."""

    name: str
    runner: Callable[[_Run, StageReport], None]
    needs: tuple[str, ...]
    outputs: tuple[str, ...]


STAGE_TABLE = (
    Stage("ingest", _ingest, (), ("corpus.csv",)),
    Stage("text", _text, ("ingest",), ("dtm.mtx", "dtm_index.csv")),
    Stage("eda", _eda, ("text",), ("year_counts.csv", "trend.csv", "top_terms.csv",
                                   "type_shares.csv", "trend.svg")),
    Stage("lsa", _lsa, ("text",), ("ca_coords.csv", "ca_scatter.svg")),
    Stage("lda", _lda, ("text",), ("lda_model.txt", "lda_top_words.csv")),
    Stage("bigrams", _bigrams, ("text",), ("bigrams_edges.csv",)),
    Stage("compare", _compare, ("lda",), ("compare.csv",)),
)

# the stages `run` writes, in order; `--from` names one of them
STAGES = tuple(s.name for s in STAGE_TABLE if s.name != "compare")

# each command with its help text: `run` writes STAGES, or those from
# `--from` on, and compare given a country; every other command its own stage
COMMANDS = {
    "ingest": "parse, validate, filter, and write corpus.csv",
    "eda": "yearly counts, quadratic trend with forecast, top terms, type shares",
    "lsa": "correspondence analysis coordinates and representative documents",
    "lda": "topic model: lda_model.txt and lda_top_words.csv",
    "bigrams": "adjacent word pairs above the frequency threshold",
    "run": "all stages in order, and compare given --country",
    "compare": "country subset vs the whole corpus, side by side",
}


def plan(cfg: PipelineConfig, command: str = "run",
         from_stage: str | None = None) -> tuple[tuple[Stage, ...], tuple[str, ...]]:
    """The stages a command computes and the files it writes.

    The stages are those whose files the command writes plus everything they
    need, in table order; ``run`` given a country writes compare's too. The
    files are those stages' outputs, in the same order; ``ca_scatter.svg``
    only under ``lsa``, since `run` keeps the pinned file set and the
    coordinates CSV is enough to redraw the figure.
    Raises ConfigError for an unknown command or stage, for ``compare``
    without a country, and for lsa with a vocabulary cap below two terms,
    which correspondence analysis needs.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if from_stage is not None and (command != "run" or from_stage not in STAGES):
        raise ConfigError(f"--from {from_stage!r} names no stage of `run`")
    if command == "compare" and not cfg.country:
        raise ConfigError("compare requires a country")
    if command == "run":
        targets = STAGES[STAGES.index(from_stage):] if from_stage else STAGES
        if cfg.country:
            targets += ("compare",)
    else:
        targets = (command,)
    compute = set(targets)
    for stage in reversed(STAGE_TABLE):  # a stage needs only earlier ones
        if stage.name in compute:
            compute.update(stage.needs)
    if "lsa" in compute and cfg.vocab_size < 2:
        raise ConfigError("correspondence analysis needs at least two terms and two documents"
                          f" with counts, and vocab_size {cfg.vocab_size} keeps one term")
    files = tuple(
        output for s in STAGE_TABLE if s.name in targets for output in s.outputs
        if output != "ca_scatter.svg" or command == "lsa"
    )
    return tuple(s for s in STAGE_TABLE if s.name in compute), files


def run_pipeline(
    cfg: PipelineConfig,
    command: str = "run",
    from_stage: str | None = None,
) -> RunReport:
    """Execute ``command`` as :func:`plan` lays it out, timing each stage;
    the report is always written.

    The plan, the input and the stoplist are checked, and the stoplist read,
    before anything is written. A stage that raises a CorpusScopeError, a
    MemoryError or an OSError is recorded as ``failed_stage`` and re-raised
    as StageError; when compare is planned, an empty country
    subset fails the ingest stage, before corpus.csv is written, with
    EmptyResultError (CLI exit code 3). Whether the run succeeds or a stage
    raises, the report's ``notes`` name the planned files that it did not
    write but that ``--out`` still holds from an earlier run.
    """
    stages, files = plan(cfg, command, from_stage)
    _check_paths(cfg, files)
    run = _Run(cfg, command, tuple(s.name for s in stages), files)
    if "text" in run.stages:
        run.stoplist, run.stoplist_origin = resolve_stoplist(cfg)
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    try:
        for planned in stages:
            stage = StageReport(name=planned.name)
            run.report.stages.append(stage)
            started = time.perf_counter()
            try:
                planned.runner(run, stage)
            except (CorpusScopeError, MemoryError, OSError) as exc:
                run.report.failed_stage = planned.name
                stage.notes.append(f"failed: {exc}")
                raise StageError(planned.name, exc, run.report) from exc
            finally:
                stage.seconds = round(time.perf_counter() - started, 6)
                stage.peak_rss_mb = _peak_rss_mb()
    finally:
        run.finish_report()
    return run.report
