import csv
import hashlib
import json
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import scipy.io

from conftest import BACKENDS, child_env, use_backend
from corpus_scope import _native, pipeline
from corpus_scope.cli import main
from corpus_scope.corpus_ingest import parse_file
from corpus_scope.errors import (
    ConfigError,
    EmptyCorpusError,
    InsufficientDataError,
    StageError,
)
from corpus_scope.lda import load_model
from corpus_scope.pipeline import STAGES, PipelineConfig, load_config, run_pipeline
from corpus_scope.svgplot import line_chart, scatter_2d

DATA_FILES = frozenset({
    "corpus.csv", "dtm.mtx", "dtm_index.csv",
    "year_counts.csv", "trend.csv", "top_terms.csv", "type_shares.csv", "trend.svg",
    "ca_coords.csv", "lda_model.txt", "lda_top_words.csv", "bigrams_edges.csv",
})


def quick_cfg(mini_corpus_path, out_dir, **overrides):
    kwargs = dict(input=mini_corpus_path, out_dir=Path(out_dir),
                  iterations=40, burn_in=10)
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


@pytest.fixture(scope="module")
def run_dir(mini_corpus_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("full_run")
    run_pipeline(quick_cfg(mini_corpus_path, out))
    return out


def read_rows(path: Path):
    return [ln for ln in path.read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")]


# ---------------------------------------------------------------- file set


def test_run_writes_exactly_the_pinned_files(run_dir):
    names = {p.name for p in run_dir.iterdir()}
    assert names == DATA_FILES | {"run_report.json"}


def test_rerun_is_byte_identical(mini_corpus_path, run_dir, tmp_path):
    run_pipeline(quick_cfg(mini_corpus_path, tmp_path))
    for name in sorted(DATA_FILES):
        assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_thread_count_does_not_change_bytes(mini_corpus_path, run_dir, tmp_path, capsys):
    # --threads is deprecated: accepted with one warning, and nothing else
    assert main(["run", "--input", str(mini_corpus_path), "--out", str(tmp_path),
                 "--iters", "40", "--burn-in", "10", "--threads", "8"]) == 0
    err = capsys.readouterr().err
    assert err.count("--threads is deprecated and has no effect") == 1
    for name in sorted(DATA_FILES):
        assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name
    report = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
    assert "threads" not in report["config"]


def stage_notes(out_dir, stage):
    report = json.loads((out_dir / "run_report.json").read_text(encoding="utf-8"))
    return next(s["notes"] for s in report["stages"] if s["name"] == stage)


@pytest.mark.parametrize("backend", BACKENDS)
def test_each_backend_writes_the_same_bytes(backend, mini_corpus_path, run_dir, tmp_path):
    with use_backend(backend):
        run_pipeline(quick_cfg(mini_corpus_path, tmp_path))
    for name in sorted(DATA_FILES):
        assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name
    assert f"tokenizer backend {backend}" in stage_notes(tmp_path, "text")
    assert f"gibbs backend {backend}" in stage_notes(tmp_path, "lda")
    assert f"number formatter backend {backend}" in stage_notes(tmp_path, "lsa")


def test_unloadable_kernels_fall_back_with_one_warning(mini_corpus_path, run_dir, tmp_path,
                                                      capsys, monkeypatch):
    def no_compiler():
        raise FileNotFoundError("g++")

    monkeypatch.setattr(_native, "_build", no_compiler)
    _native.library.cache_clear()
    try:
        assert main(["run", "--input", str(mini_corpus_path), "--out", str(tmp_path),
                     "--iters", "40", "--burn-in", "10"]) == 0
    finally:
        _native.library.cache_clear()
    assert capsys.readouterr().err.splitlines() == [
        "corpus-scope: warning: compiled kernels unavailable, running the Python "
        "sweep, tokenizer and number formatters: g++"
    ]
    for name in sorted(DATA_FILES):
        assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name
    assert "tokenizer backend python" in stage_notes(tmp_path, "text")
    assert "number formatter backend python" in stage_notes(tmp_path, "lsa")


def test_from_flag_writes_only_later_stages(mini_corpus_path, tmp_path):
    run_pipeline(quick_cfg(mini_corpus_path, tmp_path), write_stages=set(STAGES[4:]))
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"lda_model.txt", "lda_top_words.csv", "bigrams_edges.csv",
                     "run_report.json"}


# ---------------------------------------------------------------- report


def test_run_report_structure(run_dir):
    report = json.loads((run_dir / "run_report.json").read_text(encoding="utf-8"))
    assert report["version"]
    assert report["command"] == "run"
    assert report["failed_stage"] is None
    assert [s["name"] for s in report["stages"]] == list(STAGES)
    assert all(s["seconds"] >= 0 for s in report["stages"])
    assert set(report["output_files"]) == DATA_FILES
    assert all(len(sha) == 64 for sha in report["output_files"].values())
    assert report["config"]["seed"] == 42
    # the fixture has one known year-less record, kept but flagged
    assert [(e["row"], e["dropped"]) for e in report["record_errors"]] == [(60, False)]
    peaks = [s["peak_rss_mb"] for s in report["stages"]]
    assert all(p > 0 for p in peaks)
    assert peaks == sorted(peaks)  # the process's running maximum
    lda_notes = next(s["notes"] for s in report["stages"] if s["name"] == "lda")
    assert {"gibbs backend native", "gibbs backend python"} & set(lda_notes)
    text_notes = next(s["notes"] for s in report["stages"] if s["name"] == "text")
    assert {"tokenizer backend native", "tokenizer backend python"} & set(text_notes)
    # the demo table is small enough for the dense CA solver
    lsa_notes = next(s["notes"] for s in report["stages"] if s["name"] == "lsa")
    assert "ca solver dense, 0 iterations" in lsa_notes


def test_report_hashes_match_the_files(run_dir):
    report = json.loads((run_dir / "run_report.json").read_text(encoding="utf-8"))
    for name, sha in report["output_files"].items():
        assert hashlib.sha256((run_dir / name).read_bytes()).hexdigest() == sha


# ---------------------------------------------------------------- contents


def test_dtm_file_reads_with_scipy(run_dir):
    dtm = scipy.io.mmread(run_dir / "dtm.mtx")
    assert dtm.shape == (60, 85)
    assert dtm.dtype == np.int64 and dtm.sum() == 2273


def test_emitted_corpus_round_trips(run_dir, mini_corpus):
    corpus, errors = parse_file(run_dir / "corpus.csv")
    assert corpus.documents == mini_corpus.documents
    assert [e for e in errors if e.dropped] == []


def test_year_counts_file(run_dir):
    rows = read_rows(run_dir / "year_counts.csv")
    assert rows[0] == "year,count"
    pairs = [r.split(",") for r in rows[1:]]
    assert [y for y, _ in pairs] == sorted(y for y, _ in pairs)
    assert sum(int(c) for _, c in pairs) == 59  # one fixture doc has no year


def test_trend_file(run_dir):
    kv = dict(r.split(",", 1) for r in read_rows(run_dir / "trend.csv")[1:])
    assert kv["status"] == "ok"
    assert kv["x_encoding"] == "raw_year"
    assert kv["degenerate"] == "0"
    assert float(kv["a2"]) > 0
    assert 0.9 < float(kv["r_squared"]) <= 1.0
    assert float(kv["p_value"]) < 1e-6
    assert "forecast_2023" in kv and "forecast_2024" in kv
    assert float(kv["forecast_2023"]) >= 0


def test_type_shares_file(run_dir):
    rows = read_rows(run_dir / "type_shares.csv")
    assert rows[0] == "doc_type,count,share_percent"
    shares = {r.split(",")[0]: r.split(",") for r in rows[1:]}
    assert sum(int(v[2]) for v in shares.values()) == 100
    assert shares["Conference Proceeding"][1:] == ["31", "52"]
    assert shares["Research Article"][1:] == ["22", "37"]


def test_top_terms_file(run_dir):
    rows = [r.split(",") for r in read_rows(run_dir / "top_terms.csv")]
    assert rows[0] == ["rank", "term", "count", "cumulative_share"]
    counts = [int(r[2]) for r in rows[1:]]
    assert counts == sorted(counts, reverse=True)
    shares = [float(r[3]) for r in rows[1:]]
    assert shares == sorted(shares) and shares[-1] <= 1.0
    assert [int(r[0]) for r in rows[1:]] == list(range(1, len(rows)))
    assert rows[1][1] == "data"  # the fixture's dominant token


def test_ca_coords_file(run_dir):
    rows = [r.split(",") for r in read_rows(run_dir / "ca_coords.csv")]
    assert rows[0] == ["kind", "label", "mass", "score", "rank", "dim_1", "dim_2"]
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {"row", "col", "year"}
    doc_rows = [r for r in rows[1:] if r[0] == "row"]
    assert len(doc_rows) == 60  # every fixture doc has usable text
    ranks = sorted(int(r[4]) for r in doc_rows)
    assert ranks == list(range(1, 61))
    year_rows = [r for r in rows[1:] if r[0] == "year"]
    assert len(year_rows) == 13
    for r in rows[1:]:
        float(r[5]), float(r[6])  # coordinates parse


def test_ca_coords_rows_parse_to_the_header_width(tmp_path):
    # a comma in a document id used to add a field to that row
    src = tmp_path / "ids.csv"
    with open(src, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "title", "year", "abstract"])
        for i in range(12):
            writer.writerow([
                "A,3" if i == 3 else f"A{i}",
                f"network model {'data' if i % 2 else 'graph'} learning",
                2010 + i % 5,
                f"text mining topic cluster {'alpha' if i % 3 else 'beta'} analysis",
            ])
    out = tmp_path / "out"
    run_pipeline(quick_cfg(src, out, topics=2, bigram_threshold=1))
    lines = [ln for ln in (out / "ca_coords.csv").read_text(encoding="utf-8")
             .splitlines() if not ln.startswith("#")]
    table = list(csv.reader(lines))
    assert {len(row) for row in table} == {len(table[0])}
    assert ["row", "A,3"] in [row[:2] for row in table]


def test_lda_outputs(run_dir):
    model = load_model(run_dir / "lda_model.txt")
    assert model.config.k == 6
    assert model.config.iterations == 40
    rows = [r.split(",") for r in read_rows(run_dir / "lda_top_words.csv")]
    assert rows[0] == ["topic", "rank", "term", "phi"]
    assert len(rows) == 1 + 6 * 10
    for r in rows[1:]:
        assert 0.0 < float(r[3]) < 1.0
        assert r[2] in model.terms


def test_bigram_edges_file(run_dir):
    text = (run_dir / "bigrams_edges.csv").read_text(encoding="utf-8")
    assert text.splitlines()[0] == "# bigram-graph threshold=150 directed=1"
    rows = read_rows(run_dir / "bigrams_edges.csv")
    assert rows[0] == "source,target,weight"
    assert rows[1:] == ["data,science,232"]


def test_svg_outputs_are_well_formed(run_dir, mini_corpus_path, tmp_path):
    svg = (run_dir / "trend.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    ET.fromstring(svg)
    assert "ca_scatter.svg" not in {p.name for p in run_dir.iterdir()}

    # the scatter is produced by the dedicated subcommand, not by `run`
    assert main(["lsa", "--input", str(mini_corpus_path), "--out", str(tmp_path)]) == 0
    scatter = (tmp_path / "ca_scatter.svg").read_text(encoding="utf-8")
    ET.fromstring(scatter)
    assert {p.name for p in tmp_path.iterdir()} == {
        "ca_coords.csv", "ca_scatter.svg", "run_report.json"}


def test_empty_plots_raise_config_error():
    with pytest.raises(ConfigError, match="observed point"):
        line_chart([])
    with pytest.raises(ConfigError, match="nothing to plot"):
        scatter_2d([("documents", "#225599", [])])


def test_provenance_comments_have_no_paths(run_dir):
    for name in ["trend.csv", "top_terms.csv", "type_shares.csv", "year_counts.csv"]:
        first = (run_dir / name).read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith("# corpus-scope")
        assert "mini_corpus.csv" in first
        assert "/" not in first.split("input=")[1].split("|")[0]
    # corpus.csv carries no comment header: it must reparse as plain records
    assert (run_dir / "corpus.csv").read_text(encoding="utf-8").startswith("id,")


# ---------------------------------------------------------------- CLI


def run_cli(*args):
    return main([str(a) for a in args])


def test_cli_run_and_stage_subcommands(mini_corpus_path, tmp_path, capsys):
    out = tmp_path / "o1"
    code = run_cli("run", "--input", mini_corpus_path, "--out", out,
                   "--iters", "30", "--burn-in", "5")
    assert code == 0
    assert "wrote 12 file(s)" in capsys.readouterr().out

    out2 = tmp_path / "o2"
    assert run_cli("ingest", "--input", mini_corpus_path, "--out", out2) == 0
    assert {p.name for p in out2.iterdir()} == {"corpus.csv", "run_report.json"}

    out3 = tmp_path / "o3"
    assert run_cli("eda", "--input", mini_corpus_path, "--out", out3) == 0
    assert {p.name for p in out3.iterdir()} == {
        "year_counts.csv", "trend.csv", "top_terms.csv", "type_shares.csv",
        "trend.svg", "run_report.json"}


def test_cli_run_from_stage(mini_corpus_path, tmp_path, capsys):
    code = run_cli("run", "--input", mini_corpus_path, "--out", tmp_path,
                   "--from", "bigrams")
    assert code == 0
    assert {p.name for p in tmp_path.iterdir()} == {"bigrams_edges.csv",
                                                    "run_report.json"}
    capsys.readouterr()


def test_cli_missing_input_exits_2_without_partial_outputs(tmp_path, capsys):
    out = tmp_path / "never"
    assert run_cli("run", "--input", tmp_path / "ghost.csv", "--out", out) == 2
    assert not out.exists()
    assert "ghost.csv" in capsys.readouterr().err


def test_cli_out_that_is_a_file_exits_2(mini_corpus_path, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    assert run_cli("eda", "--input", mini_corpus_path, "--out", taken) == 2
    assert "cannot create output directory" in capsys.readouterr().err


def test_cli_input_error_exits_2(mini_corpus_path, tmp_path, capsys):
    # an input directory is unreadable as a record stream
    assert run_cli("run", "--input", tmp_path, "--out", tmp_path / "x") == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("id,title\nA1,no year column\n", encoding="utf-8")
    assert run_cli("run", "--input", bad, "--out", tmp_path / "y") == 2
    capsys.readouterr()


def test_cli_bad_config_exits_2(mini_corpus_path, tmp_path, capsys):
    assert run_cli("run", "--input", mini_corpus_path, "--out", tmp_path,
                   "--topics", "0") == 2
    assert run_cli("run", "--input", mini_corpus_path, "--out", tmp_path,
                   "--vocab-size", "-5") == 2
    capsys.readouterr()


def test_cli_lda_settings_are_checked_before_any_stage(mini_corpus_path, tmp_path,
                                                      capsys):
    out = tmp_path / "never"
    assert run_cli("run", "--input", mini_corpus_path, "--out", out,
                   "--burn-in", "50", "--iters", "10") == 2
    assert not out.exists() or not any(out.iterdir())
    assert "burn_in" in capsys.readouterr().err


def test_cli_wordless_phrase_exits_2(mini_corpus_path, tmp_path, capsys):
    assert run_cli("run", "--input", mini_corpus_path, "--out", tmp_path,
                   "--phrase", "!!!") == 2
    err = capsys.readouterr().err
    assert "phrase" in err and "Traceback" not in err
    assert {p.name for p in tmp_path.iterdir()} <= {"run_report.json"}


def test_cli_bigram_threshold_is_checked_before_any_stage(mini_corpus_path, tmp_path,
                                                          capsys):
    out = tmp_path / "never"
    assert run_cli("run", "--input", mini_corpus_path, "--out", out,
                   "--bigram-threshold", "0") == 2
    assert not out.exists()
    assert "bigram_threshold" in capsys.readouterr().err


def test_cli_dims_and_text_fields_are_checked_before_any_stage(mini_corpus_path,
                                                            tmp_path, capsys):
    out = tmp_path / "never"
    assert run_cli("run", "--input", mini_corpus_path, "--out", out,
                   "--dims", "0") == 2
    assert not out.exists()
    assert "dims" in capsys.readouterr().err
    cfg_file = tmp_path / "fields.ini"
    cfg_file.write_text("[text_pipeline]\ntext_fields = title,bogus\n", encoding="utf-8")
    assert run_cli("run", "--config", cfg_file, "--input", mini_corpus_path,
                   "--out", out) == 2
    assert not out.exists()
    assert "bogus" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="text_fields"):
        quick_cfg(mini_corpus_path, out, text_fields=())


def test_cli_config_format_is_checked_before_any_stage(mini_corpus_path, tmp_path,
                                                       capsys):
    out = tmp_path / "never"
    cfg_file = tmp_path / "fmt.ini"
    cfg_file.write_text("[corpus_ingest]\nformat = xml\n", encoding="utf-8")
    assert run_cli("run", "--config", cfg_file, "--input", mini_corpus_path,
                   "--out", out) == 2
    assert not out.exists()
    assert "format" in capsys.readouterr().err
    assert quick_cfg(mini_corpus_path, out, format=" CSV ").format == " CSV "


def test_cli_empty_result_exits_3(mini_corpus_path, tmp_path, capsys):
    assert run_cli("run", "--input", mini_corpus_path, "--out", tmp_path,
                   "--phrase", "quantum blockchain grandmothers") == 3
    capsys.readouterr()


def test_cli_internal_stage_failure_exits_1(tmp_path, capsys):
    stopworded = tmp_path / "allstop.csv"
    stopworded.write_text("id,title,year\nA1,the of and,2020\n", encoding="utf-8")
    assert run_cli("run", "--input", stopworded, "--out", tmp_path / "z") == 1
    capsys.readouterr()


def test_run_pipeline_raises_stage_error_with_cause(tmp_path):
    stopworded = tmp_path / "allstop.csv"
    stopworded.write_text("id,title,year\nA1,the of and,2020\n", encoding="utf-8")
    cfg = PipelineConfig(input=stopworded, out_dir=tmp_path / "out")
    with pytest.raises(StageError) as exc_info:
        run_pipeline(cfg)
    err = exc_info.value
    assert err.stage == "text"
    assert isinstance(err.cause, EmptyCorpusError)
    # the report still lands on disk and names the failed stage
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["failed_stage"] == "text"


def test_a_writer_that_fails_partway_leaves_no_partial_file(mini_corpus_path, run_dir,
                                                           tmp_path, monkeypatch):
    previous = (run_dir / "lda_model.txt").read_bytes()
    (tmp_path / "lda_model.txt").write_bytes(previous)

    def fails_partway(model, out=None):
        out.write("corpus-scope-lda\n")
        raise OSError("disk full")

    monkeypatch.setattr(pipeline, "render_model", fails_partway)
    with pytest.raises(OSError, match="disk full"):
        run_pipeline(quick_cfg(mini_corpus_path, tmp_path))
    # the earlier output stays whole, and no temporary file is left behind
    assert (tmp_path / "lda_model.txt").read_bytes() == previous
    names = {p.name for p in tmp_path.iterdir()}
    assert names == DATA_FILES - {"lda_top_words.csv", "bigrams_edges.csv"} | {
        "run_report.json"}
    report = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
    assert "lda_model.txt" not in report["output_files"]
    assert report["notes"] == ["stale from an earlier run: lda_model.txt"]
    assert report["output_files"]["ca_coords.csv"] == hashlib.sha256(
        (tmp_path / "ca_coords.csv").read_bytes()).hexdigest()


def failing(stage):
    def runner(run, stage_report):
        raise InsufficientDataError(f"{stage} cannot run")
    return runner


@pytest.mark.parametrize("write,fails,stale", [
    (set(STAGES), "lda", ["lda_model.txt", "lda_top_words.csv", "bigrams_edges.csv"]),
    (set(STAGES), "text", ["dtm.mtx", "dtm_index.csv", "year_counts.csv", "trend.csv",
                           "top_terms.csv", "type_shares.csv", "trend.svg",
                           "ca_coords.csv", "lda_model.txt", "lda_top_words.csv",
                           "bigrams_edges.csv"]),
    # run --from lda: the earlier stages' files were never to be rewritten
    (set(STAGES[4:]), "text", ["lda_model.txt", "lda_top_words.csv",
                               "bigrams_edges.csv"]),
    # the lsa subcommand writes only its own stage's files, the scatter too
    ({"lsa"}, "lsa", ["ca_coords.csv", "ca_scatter.svg"]),
])
def test_a_failed_run_names_the_files_left_from_an_earlier_run(
        mini_corpus_path, run_dir, tmp_path, monkeypatch, write, fails, stale):
    shutil.copytree(run_dir, tmp_path, dirs_exist_ok=True)
    (tmp_path / "ca_scatter.svg").write_text("<svg/>", encoding="utf-8")
    monkeypatch.setitem(pipeline._STAGE_RUNNERS, fails, failing(fails))
    with pytest.raises(StageError):
        run_pipeline(quick_cfg(mini_corpus_path, tmp_path), write_stages=write,
                     command="lsa" if write == {"lsa"} else "run")
    report = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
    assert report["failed_stage"] == fails
    assert report["notes"] == [f"stale from an earlier run: {', '.join(stale)}"]
    assert not set(stale) & set(report["output_files"])


def test_files_the_failed_stage_wrote_before_failing_are_not_stale(mini_corpus_path,
                                                                  run_dir, tmp_path,
                                                                  monkeypatch):
    shutil.copytree(run_dir, tmp_path, dirs_exist_ok=True)

    def no_chart(*args, **kwargs):
        raise ConfigError("nothing to plot")

    monkeypatch.setattr(pipeline, "line_chart", no_chart)
    with pytest.raises(StageError):
        run_pipeline(quick_cfg(mini_corpus_path, tmp_path), write_stages={"eda"},
                     command="eda")
    report = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
    assert sorted(report["output_files"]) == [
        "top_terms.csv", "trend.csv", "type_shares.csv", "year_counts.csv"]
    assert report["notes"] == ["stale from an earlier run: trend.svg"]


def test_a_failed_run_into_a_fresh_directory_names_nothing_stale(mini_corpus_path,
                                                                 tmp_path, monkeypatch):
    monkeypatch.setitem(pipeline._STAGE_RUNNERS, "eda", failing("eda"))
    with pytest.raises(StageError):
        run_pipeline(quick_cfg(mini_corpus_path, tmp_path))
    report = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
    assert report["failed_stage"] == "eda"
    assert report["notes"] == []


def test_every_stage_output_is_listed_for_the_stale_check(run_dir):
    report = json.loads((run_dir / "run_report.json").read_text(encoding="utf-8"))
    for stage in report["stages"]:
        assert set(stage["outputs"]) <= set(pipeline._STAGE_OUTPUTS[stage["name"]])


# ---------------------------------------------------------------- config file


CONFIG_TEMPLATE = """\
[corpus_ingest]
input = {input}

[text_pipeline]
vocab_size = 500

[lda]
topics = 3
iterations = 25
burn_in = 5

[report]
out = {out}
seed = 9
"""


def test_config_file_drives_a_run(mini_corpus_path, tmp_path, capsys):
    cfg_file = tmp_path / "run.ini"
    out = tmp_path / "from_config"
    cfg_file.write_text(CONFIG_TEMPLATE.format(input=mini_corpus_path, out=out),
                        encoding="utf-8")
    assert run_cli("run", "--config", cfg_file) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["config"]["seed"] == 9
    assert report["config"]["topics"] == 3
    capsys.readouterr()


def test_config_threads_key_is_accepted_and_ignored(tmp_path, capsys):
    cfg_file = tmp_path / "threads.ini"
    cfg_file.write_text("[report]\nseed = 3\nthreads = 4\n", encoding="utf-8")
    assert load_config(cfg_file) == {"seed": 3}
    assert capsys.readouterr().err.count("threads is deprecated and has no effect") == 1


def test_cli_flags_override_config_values(mini_corpus_path, tmp_path, capsys):
    cfg_file = tmp_path / "run.ini"
    out = tmp_path / "overridden"
    cfg_file.write_text(CONFIG_TEMPLATE.format(input=mini_corpus_path, out=out),
                        encoding="utf-8")
    assert run_cli("run", "--config", cfg_file, "--seed", "123",
                   "--topics", "2") == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["config"]["seed"] == 123
    assert report["config"]["topics"] == 2
    capsys.readouterr()


def test_config_file_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[lda]\ntopics = 3\nwibble = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="wibble"):
        load_config(bad)
    bad.write_text("[nonsense]\nx = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="nonsense"):
        load_config(bad)
    assert main(["run", "--config", str(bad)]) == 2


# ---------------------------------------------------------------- stoplist


def test_stoplist_env_var_and_flag_precedence(mini_corpus_path, tmp_path,
                                              monkeypatch, capsys):
    env_stop = tmp_path / "env_stop.txt"
    env_stop.write_text("data\n", encoding="utf-8")
    flag_stop = tmp_path / "flag_stop.txt"
    flag_stop.write_text("science\n", encoding="utf-8")

    out_env = tmp_path / "env_run"
    monkeypatch.setenv("CORPUS_SCOPE_STOPLIST", str(env_stop))
    assert run_cli("run", "--input", mini_corpus_path, "--out", out_env,
                   "--iters", "20", "--burn-in", "4") == 0
    env_terms = {r.split(",")[2] for r in read_rows(out_env / "dtm_index.csv")[1:]
                 if r.startswith("term,")}
    assert "data" not in env_terms and "science" in env_terms

    out_flag = tmp_path / "flag_run"
    assert run_cli("run", "--input", mini_corpus_path, "--out", out_flag,
                   "--stoplist", flag_stop, "--iters", "20", "--burn-in", "4") == 0
    flag_terms = {r.split(",")[2] for r in read_rows(out_flag / "dtm_index.csv")[1:]
                  if r.startswith("term,")}
    assert "science" not in flag_terms and "data" in flag_terms  # flag wins
    capsys.readouterr()


# ---------------------------------------------------------------- compare


def test_compare_subcommand(mini_corpus_path, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert run_cli("compare", "--input", mini_corpus_path, "--out", out,
                   "--country", "Saudi Arabia", "--iters", "25", "--burn-in", "5",
                   "--topics", "2") == 0
    rows = [r.split(",") for r in read_rows(out / "compare.csv")]
    assert rows[0] == ["section", "key", "subset", "overall"]
    table = {(r[0], r[1]): (r[2], r[3]) for r in rows[1:]}
    assert table[("size", "documents")] == ("10", "60")
    assert table[("size", "share_percent")] == ("16.7", "100.0")
    year_keys = [k for s, k in table if s == "years"]
    assert year_keys == sorted(year_keys)
    assert any(s == "top_terms" for s, _ in table)
    assert any(s == "lda_top_words" for s, _ in table)
    capsys.readouterr()


def test_compare_needs_a_country(mini_corpus_path, tmp_path, capsys):
    assert run_cli("compare", "--input", mini_corpus_path,
                   "--out", tmp_path / "c1") == 2
    assert run_cli("compare", "--input", mini_corpus_path, "--out", tmp_path / "c2",
                   "--country", "Atlantis") == 3  # empty subset
    assert "Atlantis" in capsys.readouterr().err
    # the failed compare still leaves its report, and nothing else
    assert {p.name for p in (tmp_path / "c2").iterdir()} == {"run_report.json"}
    report = json.loads((tmp_path / "c2" / "run_report.json").read_text(encoding="utf-8"))
    assert report["command"] == "compare"
    assert report["failed_stage"] == "compare"
    assert [s["name"] for s in report["stages"]] == ["ingest", "text", "compare"]


def test_compare_bytes_match_the_pinned_hash(mini_corpus_path, tmp_path, capsys):
    # compare.csv of the demo at default settings, pinned byte for byte
    assert run_cli("compare", "--input", mini_corpus_path, "--out", tmp_path,
                   "--country", "Saudi Arabia") == 0
    capsys.readouterr()
    assert {p.name for p in tmp_path.iterdir()} == {"compare.csv", "run_report.json"}
    digest = hashlib.sha256((tmp_path / "compare.csv").read_bytes()).hexdigest()
    assert digest == "03bcf5ba0f2ce9ca7e681c2a7042aee4249aa52ad54ec0f7e76c0e7cc23809f1"


# ---------------------------------------------------------------- entry point


def test_dense_run_loads_neither_lanczos_nor_graphml_modules(mini_corpus_path, tmp_path):
    # scipy.linalg serves only the Lanczos CA solver, and nothing in a run
    # writes XML beyond the hand-built SVG; a demo-sized run needs neither
    script = (
        "import sys\n"
        "from corpus_scope.cli import main\n"
        f"code = main(['run', '--input', {str(mini_corpus_path)!r},"
        f" '--out', {str(tmp_path / 'out')!r}, '--iters', '5', '--burn-in', '1'])\n"
        "print(code, [m for m in ('scipy.linalg', 'xml.sax.saxutils')"
        " if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "corpus_scope.cli", "--help"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    for sub in ("ingest", "eda", "lsa", "lda", "bigrams", "run", "compare"):
        assert sub in proc.stdout
