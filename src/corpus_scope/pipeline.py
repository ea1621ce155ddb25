"""End-to-end batch pipeline and the subset comparison mode.

Stages run in a fixed order (ingest, text, eda, lsa, lda, bigrams), each
writing its files into the output directory. Every run also writes
run_report.json, a manifest with the echoed configuration, per-stage wall
times and notes, dropped-record lists, and a SHA-256 per output file. All
data files are deterministic for a given (input, config) pair at a fixed BLAS
thread count; the report's timing fields are the only thing that varies.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

try:
    import resource
except ImportError:  # pragma: no cover - not on Windows
    resource = None

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
    filter_by_phrase,
    filter_by_years,
    parse_file,
    partition_by_country,
    require_nonempty,
    serialize_corpus,
)
from .eda import (
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
    DegenerateDesignError,
    InputError,
    InsufficientDataError,
    StageError,
)
from .lda import LdaConfig, fit_lda, gibbs_backend, render_model, top_words_per_topic
from .lsa import fit_ca, project_supplementary, representative_documents
from .svgplot import line_chart, scatter_2d
from .text_pipeline import (
    DEFAULT_TEXT_FIELDS,
    DEFAULT_VOCAB_SIZE,
    build_dtm,
    build_sequences,
    build_vocabulary,
    csv_field,
    default_stoplist,
    export_dtm_index,
    export_matrixmarket,
    format_float_lines,
    load_stoplist,
)

STAGES = ("ingest", "text", "eda", "lsa", "lda", "bigrams")

STOPLIST_ENV_VAR = "CORPUS_SCOPE_STOPLIST"


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; CLI flags and the INI file both build this."""

    input: Path
    out_dir: Path
    format: str | None = None
    phrase: str | None = None
    year_min: int | None = None
    year_max: int | None = None
    country: str | None = None
    stoplist: Path | None = None
    text_fields: tuple[str, ...] = DEFAULT_TEXT_FIELDS
    vocab_size: int = DEFAULT_VOCAB_SIZE
    top_terms: int = 30
    forecast_years: int = 2
    dims: int = 2
    top_documents: int = 5
    topics: int = 6
    alpha: float | None = None
    beta: float = 0.01
    iterations: int = 1000
    burn_in: int = 200
    bigram_threshold: int = DEFAULT_THRESHOLD
    seed: int = 42

    def __post_init__(self):
        if self.format is not None and self.format.strip().lower() not in INPUT_FORMATS:
            raise ConfigError(
                f"format must be one of {', '.join(INPUT_FORMATS)}, got {self.format!r}"
            )
        if self.vocab_size < 1:
            raise ConfigError("vocab_size must be >= 1")
        if self.forecast_years < 0:
            raise ConfigError("forecast_years must be >= 0")
        if self.top_terms < 1 or self.top_documents < 1:
            raise ConfigError("top_terms and top_documents must be >= 1")
        if self.bigram_threshold < 1:
            raise ConfigError("bigram_threshold must be >= 1")
        if self.dims < 1:
            raise ConfigError("dims must be >= 1")
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


_CONFIG_SCHEMA: dict[str, dict[str, Callable[[str], object]]] = {
    "corpus_ingest": {
        "input": Path,
        "format": str,
        "phrase": str,
        "country": str,
        "year_min": int,
        "year_max": int,
    },
    "text_pipeline": {
        "stoplist": Path,
        "vocab_size": int,
        "text_fields": lambda v: tuple(s.strip() for s in v.split(",") if s.strip()),
    },
    "eda": {"top_terms": int, "forecast_years": int},
    "lsa": {"dims": int, "top_documents": int},
    "lda": {
        "topics": int,
        "alpha": float,
        "beta": float,
        "iterations": int,
        "burn_in": int,
    },
    "bigrams": {"threshold": int},
    "report": {"out": Path, "seed": int, "threads": int},
}

_KEY_RENAMES = {"threshold": "bigram_threshold", "out": "out_dir"}


def warn_ignored(setting: str) -> None:
    """Tell the user on stderr that a still-accepted setting does nothing."""
    print(f"corpus-scope: warning: {setting} is deprecated and has no effect",
          file=sys.stderr)


def load_config(path) -> dict[str, object]:
    """Parse an INI config with sections mirroring the module names.

    Returns a kwargs dict for :class:`PipelineConfig`; unknown sections or
    keys raise ConfigError so typos never silently fall back to defaults.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    kwargs: dict[str, object] = {}
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        schema = _CONFIG_SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                value = schema[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
            if key == "threads":
                warn_ignored(f"[{section}] threads")
                continue
            kwargs[_KEY_RENAMES.get(key, key)] = value
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
    config: dict
    stages: list[StageReport] = field(default_factory=list)
    output_files: dict[str, str] = field(default_factory=dict)
    record_errors: list[dict] = field(default_factory=list)
    failed_stage: str | None = None
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "stages": [
                {
                    "name": s.name,
                    "seconds": round(s.seconds, 6),
                    "outputs": s.outputs,
                    "notes": s.notes,
                    "peak_rss_mb": s.peak_rss_mb,
                }
                for s in self.stages
            ],
            "output_files": self.output_files,
            "record_errors": self.record_errors,
            "failed_stage": self.failed_stage,
            "notes": self.notes,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _config_echo(cfg: PipelineConfig) -> dict:
    echo = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, Path):
            value = str(value)
        elif isinstance(value, tuple):
            value = list(value)
        echo[f.name] = value
    return echo


def resolve_stoplist(cfg: PipelineConfig) -> tuple[frozenset[str], str]:
    """Stoplist resolution order: explicit path, CORPUS_SCOPE_STOPLIST, bundled."""
    if cfg.stoplist is not None:
        return load_stoplist(cfg.stoplist), f"file:{cfg.stoplist.name}"
    env = os.environ.get(STOPLIST_ENV_VAR)
    if env:
        return load_stoplist(env), f"env:{Path(env).name}"
    return default_stoplist(), "bundled"


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size so far (``ru_maxrss``), in MB."""
    if resource is None:  # pragma: no cover - not on Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return round(peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0), 1)


class _Output:
    """One output file being written: each chunk is encoded, hashed and written."""

    def __init__(self, fh):
        self._fh = fh
        self.sha256 = hashlib.sha256()

    def write(self, chunk: str | bytes) -> None:
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        self.sha256.update(chunk)
        self._fh.write(chunk)


class _Run:
    """Mutable state shared by the stage runners of one pipeline execution."""

    def __init__(self, cfg: PipelineConfig, command: str, write_stages: set[str]):
        self.cfg = cfg
        self.write = write_stages
        self.report = RunReport(
            version=__version__, command=command, config=_config_echo(cfg)
        )
        self.provenance = ""
        self.corpus: Corpus | None = None
        self.stoplist: frozenset[str] = frozenset()
        self.tokens = None
        self.vocab = None
        self.dtm = None

    def emit(
        self,
        stage: StageReport,
        name: str,
        payload: str | bytes | Callable[[_Output], object],
    ) -> None:
        """Write one output of ``stage`` with :func:`_write_atomically`.

        A callable payload runs only then, writing its chunks to the
        :class:`_Output` it is given. If it raises, the report gets no hash.
        """
        if stage.name not in self.write:
            return
        digest = _write_atomically(self.cfg.out_dir / name, payload)
        stage.outputs.append(name)
        self.report.output_files[name] = digest

    def finish_report(self) -> None:
        _write_atomically(self.cfg.out_dir / "run_report.json", self.report.to_json())


def _write_atomically(path: Path, payload: str | bytes | Callable[[_Output], object]) -> str:
    """Write ``payload`` to ``path`` and return the SHA-256 of its bytes.

    The bytes go to a temporary name beside ``path`` that is renamed into
    place after the last chunk; if the payload raises, the temporary file is
    removed and ``path`` keeps whatever it held before.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            out = _Output(fh)
            if callable(payload):
                payload(out)
            else:
                out.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return out.sha256.hexdigest()


def _float(v: float) -> str:
    return repr(float(v))


def _float_rows(matrix: np.ndarray) -> list[str]:
    """Each row of a 2-D float array as its values' reprs joined by commas."""
    rows, cols = matrix.shape
    ends = np.arange(cols, rows * cols + 1, cols)
    return format_float_lines(matrix, ends, ",").split("\n")[:-1]


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
    run.corpus = corpus
    run.provenance = (
        f"corpus-scope {__version__} | input={cfg.input.name}"
        f" | filters={'; '.join(corpus.provenance.filters) or 'none'}"
        f" | seed={cfg.seed}"
    )
    run.emit(stage, "corpus.csv", lambda out: serialize_corpus(corpus, out=out))


def _text(run: _Run, stage: StageReport) -> None:
    cfg = run.cfg
    run.stoplist, origin = resolve_stoplist(cfg)
    stage.notes.append(f"stoplist={origin} ({len(run.stoplist)} terms)")
    run.tokens = build_sequences(run.corpus, run.stoplist, fields=cfg.text_fields)
    stage.notes.append(f"tokenizer backend {_native.backend()}")
    run.vocab = build_vocabulary(run.tokens, cfg.vocab_size)
    run.dtm = build_dtm(run.tokens, run.vocab)
    stage.notes.append(
        f"vocabulary {len(run.vocab)} terms, {run.dtm.n_total} tokens counted"
    )
    run.emit(stage, "dtm.mtx",
             lambda out: export_matrixmarket(run.dtm, comment=run.provenance, out=out))
    run.emit(stage, "dtm_index.csv",
             lambda out: out.write(export_dtm_index(run.dtm, comment=run.provenance)))


def _eda(run: _Run, stage: StageReport) -> None:
    cfg = run.cfg
    series = counts_per_year(run.corpus)
    if series.missing_year_count:
        stage.notes.append(f"{series.missing_year_count} document(s) without a year")

    lines = [f"# {run.provenance}", "year,count"]
    lines += [f"{y},{c}" for y, c in series.points]
    run.emit(stage, "year_counts.csv", "\n".join(lines) + "\n")

    fit: QuadraticFit | None = None
    trend = [f"# {run.provenance}", "key,value"]
    try:
        fit = fit_quadratic(series)
    except (InsufficientDataError, DegenerateDesignError) as exc:
        trend.append(f"status,skipped: {exc}")
        stage.notes.append(f"trend fit skipped: {exc}")
    forecasts: list[tuple[int, float, bool]] = []
    if fit is not None:
        trend += [
            "status,ok",
            f"a2,{_float(fit.a2)}",
            f"a1,{_float(fit.a1)}",
            f"a0,{_float(fit.a0)}",
            f"r_squared,{_float(fit.r_squared)}",
            f"p_value,{_float(fit.p_value)}",
            f"x_encoding,{fit.x_encoding.value}",
            f"degenerate,{int(fit.degenerate)}",
            f"x_min,{fit.x_min}",
            f"x_max,{fit.x_max}",
        ]
        for offset in range(1, cfg.forecast_years + 1):
            year = fit.x_max + offset
            value, clamped = forecast_point(fit, year)
            forecasts.append((year, value, clamped))
            trend.append(f"forecast_{year},{_float(value)}")
            trend.append(f"forecast_{year}_clamped,{int(clamped)}")
    run.emit(stage, "trend.csv", "\n".join(trend) + "\n")

    ranked = top_terms(run.dtm, run.vocab, cfg.top_terms)
    lines = [f"# {run.provenance}", "rank,term,count,cumulative_share"]
    lines += [
        f"{i},{term},{count},{_float(share)}"
        for i, (term, count, share) in enumerate(ranked, start=1)
    ]
    run.emit(stage, "top_terms.csv", "\n".join(lines) + "\n")

    shares = type_shares(run.corpus)
    tally = Counter(d.doc_type for d in run.corpus)
    lines = [f"# {run.provenance}", "doc_type,count,share_percent"]
    lines += [f"{t.value},{tally[t]},{shares[t]}" for t in shares]
    run.emit(stage, "type_shares.csv", "\n".join(lines) + "\n")

    observed = [(float(y), float(c)) for y, c in series.points]
    fitted_pts: list[tuple[float, float]] = []
    forecast_pts = [(float(y), v) for y, v, _ in forecasts]
    if fit is not None:
        last = fit.x_max + cfg.forecast_years
        for year in range(fit.x_min, last + 1):
            value, _ = forecast_point(fit, year)
            fitted_pts.append((float(year), value))
    svg = line_chart(
        observed,
        fitted=fitted_pts,
        forecast=forecast_pts,
        title="Documents per year",
        x_label="year",
        y_label="documents",
    )
    run.emit(stage, "trend.svg", svg)


def _lsa(run: _Run, stage: StageReport) -> None:
    cfg = run.cfg
    n_rows = int((run.dtm.row_totals > 0).sum())
    n_cols = int((run.dtm.col_totals > 0).sum())
    max_dims = min(n_rows, n_cols) - 1
    dims = cfg.dims
    if dims > max_dims:
        dims = max_dims
        stage.notes.append(f"dims reduced to {dims} for a {n_rows}x{n_cols} table")
    model = fit_ca(run.dtm, dims=dims)
    stage.notes.append(f"ca solver {model.solver}, {model.iterations} iterations")
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

    ranking = {
        doc_id: rank
        for rank, (doc_id, _) in enumerate(
            representative_documents(model, top_n=len(model.row_ids)), start=1
        )
    }
    by_year: dict[str, list[str]] = {}
    years = {d.id: d.year for d in run.corpus}
    for doc_id in model.row_ids:
        year = years.get(doc_id)
        if year is not None:
            by_year.setdefault(str(year), []).append(doc_id)
    supp = project_supplementary(model, by_year) if by_year else None

    dim_cols = ",".join(f"dim_{i + 1}" for i in range(model.dims))
    header = f"# {run.provenance}\nkind,label,mass,score,rank,{dim_cols}\n"
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

    def write_coords(out: _Output) -> None:
        out.write(header)
        for kind, labels, lead, tails, coords in points:
            for lo in range(0, len(labels), 2048):
                block = slice(lo, lo + 2048)
                out.write("".join(
                    f"{kind},{csv_field(label)},{first}{tail},{rest}\n"
                    for label, first, tail, rest in zip(
                        labels[block], _float_rows(lead[block]), tails[block],
                        _float_rows(coords[block]))
                ))

    run.emit(stage, "ca_coords.csv", write_coords)
    stage.notes.append(f"number formatter backend {_native.backend()}")

    # the scatter is an extra of the lsa subcommand; `run` keeps the pinned
    # file set and the coordinates CSV is enough to regenerate the figure
    if run.report.command == "lsa" and model.dims >= 2:
        reps = representative_documents(model, top_n=cfg.top_documents)
        pos = {doc_id: i for i, doc_id in enumerate(model.row_ids)}
        labels = [
            (
                float(model.row_coords[pos[doc_id]][0]),
                float(model.row_coords[pos[doc_id]][1]),
                doc_id,
            )
            for doc_id, _ in reps
        ]
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
    stage.notes.append(f"gibbs backend {gibbs_backend()}")
    if model.dropped_ids:
        stage.notes.append(
            f"dropped documents without vocabulary tokens: {', '.join(model.dropped_ids)}"
        )
    stage.notes.append(f"final log-likelihood {_float(model.log_likelihoods[-1])}")
    run.emit(stage, "lda_model.txt", lambda out: render_model(model, out=out))

    words = top_words_per_topic(model, m=10)
    term_index = {t: j for j, t in enumerate(model.terms)}
    lines = [f"# {run.provenance}", "topic,rank,term,phi"]
    for t, terms in enumerate(words):
        phi = model.phi[t, [term_index[term] for term in terms]].tolist()
        lines += (
            f"{t},{r},{term},{value!r}"
            for r, (term, value) in enumerate(zip(terms, phi), start=1)
        )
    run.emit(stage, "lda_top_words.csv", "\n".join(lines) + "\n")


def _bigrams(run: _Run, stage: StageReport) -> None:
    cfg = run.cfg
    table = count_bigrams(run.tokens)
    graph = threshold_graph(table, cfg.bigram_threshold)
    stage.notes.append(
        f"{table.total_bigrams} pairs observed, {len(graph.edges)} edges kept "
        f"at threshold {graph.threshold}"
    )
    run.emit(
        stage,
        "bigrams_edges.csv",
        export_graph(graph, provenance=run.provenance),
    )


def _share_percent(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f}" if whole else "0.0"


def _compare(run: _Run, stage: StageReport) -> None:
    """compare.csv: the country subset beside the ingested corpus.

    The overall column reuses the text stage's tokens, vocabulary and DTM;
    only the subset is tokenized and fitted here, with the same settings.
    """
    cfg, corpus = run.cfg, run.corpus
    subset, _rest = partition_by_country(corpus, cfg.country)
    require_nonempty(subset, f"country filter {cfg.country!r}")
    stage.notes.append(f"subset {len(subset)} of {len(corpus)} documents")
    run.provenance = (
        f"corpus-scope {__version__} | input={cfg.input.name}"
        f" | compare country={cfg.country} | seed={cfg.seed}"
    )

    sub_tokens = build_sequences(subset, run.stoplist, fields=cfg.text_fields)
    sub_vocab = build_vocabulary(sub_tokens, cfg.vocab_size)
    sub_terms = top_terms(build_dtm(sub_tokens, sub_vocab), sub_vocab, 20)
    sub_topics = top_words_per_topic(fit_lda(sub_tokens, sub_vocab, cfg.lda_config()), m=10)
    all_terms = top_terms(run.dtm, run.vocab, 20)
    all_topics = top_words_per_topic(fit_lda(run.tokens, run.vocab, cfg.lda_config()), m=10)

    rows: list[tuple[str, str, str, str]] = [
        ("size", "documents", str(len(subset)), str(len(corpus))),
        ("size", "share_percent", _share_percent(len(subset), len(corpus)), "100.0"),
    ]
    sub_years = dict(counts_per_year(subset).points)
    all_years = dict(counts_per_year(corpus).points)
    for year in sorted(all_years | sub_years):
        rows.append(
            ("years", str(year), str(sub_years.get(year, 0)), str(all_years.get(year, 0)))
        )
    sub_shares = type_shares(subset)
    all_shares = type_shares(corpus)
    for t in sorted(set(sub_shares) | set(all_shares), key=lambda t: t.value):
        rows.append(
            ("types", t.value, str(sub_shares.get(t, 0)), str(all_shares.get(t, 0)))
        )
    for i in range(20):
        sub = f"{sub_terms[i][0]}:{sub_terms[i][1]}" if i < len(sub_terms) else ""
        full = f"{all_terms[i][0]}:{all_terms[i][1]}" if i < len(all_terms) else ""
        rows.append(("top_terms", f"rank_{i + 1:02d}", sub, full))
    for t in range(cfg.topics):
        for r in range(10):
            sub = sub_topics[t][r] if t < len(sub_topics) and r < len(sub_topics[t]) else ""
            full = all_topics[t][r] if t < len(all_topics) and r < len(all_topics[t]) else ""
            rows.append(("lda_top_words", f"topic_{t}_rank_{r + 1:02d}", sub, full))

    lines = [f"# {run.provenance}", "section,key,subset,overall"]
    lines += [",".join(r) for r in rows]
    run.emit(stage, "compare.csv", "\n".join(lines) + "\n")


# the files each stage writes when its files are requested; ca_scatter.svg
# only under the lsa subcommand
_STAGE_OUTPUTS = {
    "ingest": ("corpus.csv",),
    "text": ("dtm.mtx", "dtm_index.csv"),
    "eda": ("year_counts.csv", "trend.csv", "top_terms.csv", "type_shares.csv",
            "trend.svg"),
    "lsa": ("ca_coords.csv", "ca_scatter.svg"),
    "lda": ("lda_model.txt", "lda_top_words.csv"),
    "bigrams": ("bigrams_edges.csv",),
    "compare": ("compare.csv",),
}

_STAGE_RUNNERS = {
    "ingest": _ingest,
    "text": _text,
    "eda": _eda,
    "lsa": _lsa,
    "lda": _lda,
    "bigrams": _bigrams,
    "compare": _compare,
}


def _run_stages(run: _Run, names: list[str]) -> RunReport:
    """Run the named stages in order, timing each; the report is always written.

    A stage that raises a CorpusScopeError is recorded as ``failed_stage``
    and re-raised as StageError. Whatever a stage raises, the report's
    ``notes`` then name the files it or a later stage would have written that
    are still in ``--out`` from an earlier run.
    """
    try:
        run.cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {run.cfg.out_dir}: {exc}") from exc
    try:
        for at, name in enumerate(names):
            stage = StageReport(name=name)
            run.report.stages.append(stage)
            started = time.perf_counter()
            try:
                _STAGE_RUNNERS[name](run, stage)
            except BaseException as exc:
                stale = _stale_outputs(run, names[at:])
                if stale:
                    run.report.notes.append(f"stale from an earlier run: {', '.join(stale)}")
                if not isinstance(exc, CorpusScopeError):
                    raise
                run.report.failed_stage = name
                stage.notes.append(f"failed: {exc}")
                raise StageError(name, exc, run.report) from exc
            finally:
                stage.seconds = time.perf_counter() - started
                stage.peak_rss_mb = _peak_rss_mb()
    finally:
        run.finish_report()
    return run.report


def _stale_outputs(run: _Run, unfinished: list[str]) -> list[str]:
    """Files in ``--out`` that the unfinished stages were asked to write but
    this run did not: they are left from an earlier run."""
    stale = []
    for name in unfinished:
        if name not in run.write:
            continue
        for output in _STAGE_OUTPUTS[name]:
            if output == "ca_scatter.svg" and run.report.command != "lsa":
                continue
            if (output not in run.report.output_files
                    and (run.cfg.out_dir / output).exists()):
                stale.append(output)
    return stale


def run_pipeline(
    cfg: PipelineConfig,
    write_stages: set[str] | None = None,
    command: str = "run",
) -> RunReport:
    """Execute the pipeline, writing files for ``write_stages`` (default all).

    Stages that no requested stage depends on are skipped entirely. The input
    is validated before anything is written; a failing stage still produces
    run_report.json with ``failed_stage`` set, then raises StageError.
    """
    if write_stages is None:
        write_stages = set(STAGES)
    unknown = write_stages - set(STAGES)
    if unknown:
        raise ConfigError(f"unknown stage(s): {', '.join(sorted(unknown))}")
    if not cfg.input.is_file():
        raise InputError(f"input path is not a readable file: {cfg.input}")

    compute = {"ingest", "text"} | write_stages
    run = _Run(cfg, command, write_stages)
    return _run_stages(run, [name for name in STAGES if name in compute])


def compare_subsets(cfg: PipelineConfig, country: str | None = None) -> RunReport:
    """Side-by-side country subset vs the whole corpus (compare.csv).

    Rows are (section, key, subset, overall): corpus sizes and share, counts
    per year, publication-type shares, top-20 terms, and per-topic top words
    from topic models fitted separately with identical settings and seed.
    ``country`` overrides ``cfg.country``. The ingest and text stages run as
    in :func:`run_pipeline` but write nothing; an empty subset fails the
    compare stage with EmptyResultError (CLI exit code 3).
    """
    if country is not None:
        cfg = replace(cfg, country=country)
    if not cfg.country:
        raise ConfigError("compare requires a country")
    if not cfg.input.is_file():
        raise InputError(f"input path is not a readable file: {cfg.input}")
    run = _Run(cfg, "compare", write_stages={"compare"})
    return _run_stages(run, ["ingest", "text", "compare"])
