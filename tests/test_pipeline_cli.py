import contextlib
import csv
import errno
import hashlib
import importlib.util
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.io
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BACKENDS, PLANTED_COUNTRIES, child_env, planted_records, use_backend
from corpus_scope import _native, errors, pipeline
from corpus_scope.cli import main
from corpus_scope.corpus_ingest import parse_file, serialize_corpus
from corpus_scope.errors import (
    ConfigError,
    CorpusScopeError,
    InputError,
    InsufficientDataError,
    StageError,
)
from corpus_scope.pipeline import STAGES, PipelineConfig, load_config, plan, run_pipeline
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
        "sweep, tokenizer, CSR products and number formatters: g++"
    ]
    for name in sorted(DATA_FILES):
        assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name
    assert "tokenizer backend python" in stage_notes(tmp_path, "text")
    assert "number formatter backend python" in stage_notes(tmp_path, "lsa")


def test_from_flag_writes_only_later_stages(mini_corpus_path, tmp_path):
    run_pipeline(quick_cfg(mini_corpus_path, tmp_path), from_stage="lda")
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


def test_skipped_trend_status_is_one_quoted_field(mini_corpus, tmp_path):
    # two years are too few for the quadratic fit, whose reason has a comma
    two_years = tmp_path / "two_years.csv"
    with open(two_years, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "title", "year", "abstract"])
        for doc in mini_corpus:
            if doc.year in (2010, 2011):
                writer.writerow([doc.id, doc.title, doc.year, doc.abstract])
    run_pipeline(quick_cfg(two_years, tmp_path / "out"), command="eda")
    rows = list(csv.reader(read_rows(tmp_path / "out" / "trend.csv")))
    assert rows[0] == ["key", "value"]
    assert {len(row) for row in rows} == {2}
    assert rows[1] == ["status", "skipped: need at least 4 points, got 2"]


def write_without_years(corpus, path, blank=lambda doc: True):
    """``corpus`` as a CSV whose year is empty for each document ``blank`` picks."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "title", "year", "abstract", "countries"])
        for doc in corpus:
            writer.writerow([doc.id, doc.title, "" if blank(doc) else doc.year,
                             doc.abstract, ";".join(doc.countries)])


def test_a_corpus_without_years_runs_to_the_end(mini_corpus, tmp_path, capsys):
    no_years = tmp_path / "no_years.csv"
    write_without_years(mini_corpus, no_years)
    out = tmp_path / "out"
    assert run_cli("run", "--input", no_years, "--out", out, "--iters", "5",
                   "--burn-in", "0") == 0
    assert "Traceback" not in capsys.readouterr().err
    assert {p.name for p in out.iterdir()} == DATA_FILES | {"run_report.json"}
    assert read_rows(out / "year_counts.csv") == ["year,count"]
    assert read_rows(out / "trend.csv") == ["key,value", "status,skipped: no document has a year"]
    svg = ET.fromstring((out / "trend.svg").read_text(encoding="utf-8"))
    assert svg.find("{http://www.w3.org/2000/svg}rect") is not None  # the axes
    assert svg.find("{http://www.w3.org/2000/svg}polyline") is None  # no series
    assert len(read_rows(out / "top_terms.csv")) == 31
    assert stage_notes(out, "eda")[0] == "60 document(s) without a year"


def test_a_country_subset_without_years_still_writes_compare_csv(mini_corpus, tmp_path,
                                                                 capsys):
    src = tmp_path / "subset_no_years.csv"
    write_without_years(mini_corpus, src, lambda doc: "Saudi Arabia" in doc.countries)
    out = tmp_path / "out"
    assert run_cli("compare", "--input", src, "--out", out, "--country", "Saudi Arabia",
                   "--iters", "5", "--burn-in", "0", "--topics", "2") == 0
    rows = [r.split(",") for r in read_rows(out / "compare.csv")]
    years = [r for r in rows if r[0] == "years"]
    assert years and all(r[2] == "0" for r in years)
    dated = [d for d in mini_corpus if d.year and "Saudi Arabia" not in d.countries]
    assert sum(int(r[3]) for r in years) == len(dated)
    capsys.readouterr()


def test_more_topics_than_tokens_exits_2_before_the_chain(tmp_path, capsys):
    three = tmp_path / "three.csv"
    three.write_text("id,title,year,abstract\nA,data graph,2001,network\n"
                     "B,model,2002,data text\nC,graph,2003,mining\n", encoding="utf-8")
    out = tmp_path / "out"
    # eight in-vocabulary tokens: eight topics fit, nine would leave one empty
    assert run_cli("lda", "--input", three, "--out", out, "--topics", "8", "--iters", "2",
                   "--burn-in", "0") == 0
    assert run_cli("lda", "--input", three, "--out", out, "--topics", "9", "--iters", "2",
                   "--burn-in", "0") == 2
    err = capsys.readouterr().err
    assert "9 topics exceed the 8 in-vocabulary tokens" in err and "Traceback" not in err
    report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
    assert report["failed_stage"] == "lda"
    assert report["notes"] == ["stale from an earlier run: lda_model.txt, lda_top_words.csv"]


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


def test_every_csv_data_file_reads_back_rectangular_with_odd_ids_and_titles(tmp_path, capsys):
    odd_ids = ["A,1", 'B"2', "C\n3", "D\r4", "E\r\n5"]
    src = tmp_path / "odd.csv"
    with open(src, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "title", "year", "abstract", "countries"])
        for i in range(12):
            writer.writerow([
                odd_ids[i] if i < len(odd_ids) else f"P{i}",
                f'network, "model"\r\n{"data" if i % 2 else "graph"}\rlearning',
                2010 + i % 5,
                f"text mining topic cluster {'alpha' if i % 3 else 'beta'} analysis",
                "Saudi Arabia" if i % 2 else "Norway",
            ])
    out = tmp_path / "out"
    assert run_cli("run", "--input", src, "--out", out, "--country", "Saudi Arabia",
                   "--topics", "2", "--iters", "20", "--burn-in", "5",
                   "--bigram-threshold", "1") == 0
    capsys.readouterr()
    tables = {}
    for path in sorted(out.glob("*.csv")):
        text = path.read_bytes().decode("utf-8")
        while text.startswith("# "):
            text = text.split("\n", 1)[1]
        tables[path.name] = table = list(csv.reader(io.StringIO(text, newline="")))
        assert len(table) > 1 and {len(row) for row in table} == {len(table[0])}, path.name
    assert set(tables) == {n for n in DATA_FILES if n.endswith(".csv")} | {"compare.csv"}
    assert {row[0] for row in tables["corpus.csv"][1:]} >= set(odd_ids)
    for name, column in (("dtm_index.csv", 2), ("ca_coords.csv", 1)):
        assert {row[column] for row in tables[name][1:]} >= set(odd_ids), name


def test_lda_outputs(run_dir):
    model = (run_dir / "lda_model.txt").read_text(encoding="utf-8").split("\n")
    assert {"k=6", "iterations=40"} <= set(model[:model.index("[terms]")])
    terms = model[model.index("[terms]") + 1:model.index("[documents]")]
    rows = [r.split(",") for r in read_rows(run_dir / "lda_top_words.csv")]
    assert rows[0] == ["topic", "rank", "term", "phi"]
    assert len(rows) == 1 + 6 * 10
    for r in rows[1:]:
        assert 0.0 < float(r[3]) < 1.0
        assert r[2] in terms


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


def test_cli_missing_stoplist_exits_2_before_any_stage(mini_corpus_path, tmp_path, capsys):
    out = tmp_path / "never"
    ghost = tmp_path / "ghost_stop.txt"
    assert run_cli("run", "--input", mini_corpus_path, "--out", out,
                   "--stoplist", ghost) == 2
    assert run_cli("compare", "--input", mini_corpus_path, "--out", out,
                   "--stoplist", ghost, "--country", "Saudi Arabia") == 2
    assert run_cli("ingest", "--input", mini_corpus_path, "--out", out,
                   "--stoplist", ghost) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("ghost_stop.txt") == 3 and "Traceback" not in err


# one user mistake per row: the files it writes into tmp_path ("{tmp}" in
# its argv), its argv (the demo is the input unless it names one) and a
# phrase the error must hold
USER_MISTAKES = {
    "stoplist-not-utf8": ({"stop.txt": b"the\n\xff\n"},
                          ["run", "--stoplist", "{tmp}/stop.txt"], "not valid UTF-8"),
    "missing-stoplist": ({}, ["run", "--stoplist", "{tmp}/ghost.txt"], "ghost.txt"),
    "suffix-names-no-format": ({"records.json": b"id,title,year\nA1,t,2001\n"},
                               ["run", "--input", "{tmp}/records.json"], "suffix '.json'"),
    "ini-default-section": ({"c.ini": b"[DEFAULT]\nseed = 3\n"},
                            ["run", "--config", "{tmp}/c.ini"], "section [DEFAULT]"),
    "ini-default-beside-lda": ({"c.ini": b"[DEFAULT]\nseed = 3\n[lda]\ntopics = 4\n"},
                               ["run", "--config", "{tmp}/c.ini"], "section [DEFAULT]"),
    "blank-country": ({}, ["run", "--country", " "], "country"),
    "wordless-phrase": ({}, ["run", "--phrase", "!!!"], "phrase"),
    "bigram-threshold-0": ({}, ["run", "--bigram-threshold", "0"], "bigram_threshold"),
    "vocab-size-1": ({}, ["run", "--vocab-size", "1"], "vocab_size 1"),
    "dims-0": ({}, ["run", "--dims", "0"], "dims"),
    "forecast-years-11": ({"c.ini": b"[eda]\nforecast_years = 11\n"},
                          ["eda", "--config", "{tmp}/c.ini"], "forecast_years"),
    "csv-without-id": ({"bad.csv": b"EID,Title,Year\nA1,t,2001\n"},
                       ["run", "--input", "{tmp}/bad.csv"], "missing required column(s): id"),
    "csv-bom-without-year": ({"bad.csv": b"\xef\xbb\xbfid,title\nA1,t\n"},
                             ["compare", "--input", "{tmp}/bad.csv", "--country", "Egypt"],
                             "missing required column(s): year"),
    "csv-empty": ({"empty.csv": b""}, ["ingest", "--input", "{tmp}/empty.csv"],
                  "empty input: no header row"),
    "csv-header-not-utf8": ({"bad.csv": b"id,t\xeftle,year\n"},
                            ["run", "--input", "{tmp}/bad.csv"], "not valid UTF-8"),
    "csv-header-unparseable": ({"bad.csv": b"id,title,year," + b"x" * 140_000 + b"\n"},
                               ["run", "--input", "{tmp}/bad.csv"],
                               "cannot parse the CSV header row"),
}


@pytest.mark.parametrize("files,argv,says", USER_MISTAKES.values(), ids=USER_MISTAKES)
def test_each_user_mistake_exits_2_before_out_is_created(files, argv, says, mini_corpus_path,
                                                         tmp_path, capsys):
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if "--input" not in argv:
        argv += ["--input", str(mini_corpus_path)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert says in err and "Traceback" not in err
    assert not out.exists()


def test_a_csv_header_without_a_required_column_writes_nothing_into_an_existing_out(
        tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("EID,Title,Year\nA1,t,2001\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli("run", "--input", bad, "--out", out) == 2
    assert "missing required column(s): id" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_cli_oversized_csv_field_fails_ingest_with_exit_2(tmp_path, capsys):
    bad = tmp_path / "big.csv"
    bad.write_text("id,title,year,abstract\nA1,fine,2001,short\n"
                   f"A2,long,2002,{'word ' * 40_000}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--input", bad, "--out", out) == 2
    err = capsys.readouterr().err
    assert "CSV data row 2" in err and "Traceback" not in err
    report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
    assert report["failed_stage"] == "ingest"
    assert report["output_files"] == {}


@pytest.mark.parametrize("name,content,dropped", [
    ("header_only.csv", b"id,title,year\n", 0),
    ("bad_years.csv", b"id,title,year\nA1,one,soon\nA2,two,20x1\n", 2),
    ("empty.jsonl", b"", 0),
])
def test_an_input_without_a_valid_record_fails_ingest_with_exit_2(name, content, dropped,
                                                                 tmp_path, capsys):
    # no filter ran, so this is bad input (2), not an empty filter result (3)
    source = tmp_path / name
    source.write_bytes(content)
    out = tmp_path / "out"
    assert run_cli("run", "--input", source, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"no valid record in {name}: {dropped} dropped" in err and "Traceback" not in err
    report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
    assert report["failed_stage"] == "ingest"
    assert report["output_files"] == {}


def test_cli_lsa_on_one_term_says_what_ca_needs(mini_corpus_path, tmp_path, capsys):
    # the cap is checked with the plan, so no stage runs and nothing is written
    assert run_cli("lsa", "--input", mini_corpus_path, "--out", tmp_path,
                   "--vocab-size", "1") == 2
    err = capsys.readouterr().err
    assert "needs at least two terms and two documents with counts" in err
    assert "dims" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["run"], ["run", "--from", "text"], ["run", "--from", "lsa"]])
def test_a_vocabulary_cap_below_two_terms_stops_lsa_before_out_is_created(
        argv, mini_corpus_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(*argv, "--input", mini_corpus_path, "--out", out, "--vocab-size", "1") == 2
    assert "vocab_size 1 keeps one term" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["lda", "bigrams"])
def test_a_one_term_vocabulary_still_runs_the_stages_without_lsa(command, mini_corpus_path,
                                                                 tmp_path, capsys):
    assert run_cli(command, "--input", mini_corpus_path, "--out", tmp_path,
                   "--vocab-size", "1", "--iters", "5", "--burn-in", "1") == 0
    capsys.readouterr()


def test_cli_notes_for_reduced_dims_and_dropped_documents(mini_corpus_path, tmp_path,
                                                          capsys):
    # three terms leave D14 without a token and a 59x3 table for the CA
    assert run_cli("run", "--input", mini_corpus_path, "--out", tmp_path,
                   "--vocab-size", "3", "--dims", "5", "--iters", "20",
                   "--burn-in", "0") == 0
    assert capsys.readouterr().err == (
        "corpus-scope: warning: dropping 1 document(s) with no in-vocabulary tokens\n")
    lsa_notes = stage_notes(tmp_path, "lsa")
    assert "dims reduced to 2 for a 59x3 table" in lsa_notes
    assert "dropped empty documents: D14" in lsa_notes
    assert "dropped documents without vocabulary tokens: D14" in stage_notes(tmp_path, "lda")


def test_cli_out_that_is_a_file_exits_2(mini_corpus_path, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    assert run_cli("eda", "--input", mini_corpus_path, "--out", taken) == 2
    assert "cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize("command,taken", [("ingest", "corpus.csv"),
                                           ("eda", "run_report.json")])
def test_cli_output_that_is_a_directory_exits_2_before_any_stage(
        mini_corpus_path, tmp_path, capsys, command, taken):
    (tmp_path / taken).mkdir()
    assert run_cli(command, "--input", mini_corpus_path, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert f"{taken} exists and is not a file" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == [taken]


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 63.3 GiB for an array"),
    OSError(errno.ENOSPC, "No space left on device"),
    RuntimeError("count conservation violated at sweep 3"),
    ValueError("array is too big; `arr.size * arr.dtype.itemsize` is larger than the"
               " maximum possible size."),
], ids=["memory", "disk", "runtime", "value"])
def test_cli_stage_out_of_memory_or_disk_exits_1_with_a_report(
        mini_corpus_path, run_dir, tmp_path, monkeypatch, capsys, error):
    shutil.copytree(run_dir, tmp_path, dirs_exist_ok=True)

    def runner(run, stage_report):
        raise error

    monkeypatch.setattr(pipeline, "STAGE_TABLE", tuple(
        replace(s, runner=runner) if s.name == "lda" else s for s in pipeline.STAGE_TABLE))
    assert run_cli("lda", "--input", mini_corpus_path, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert err == (f"corpus-scope: error: stage 'lda' failed: {error}\n"
                   "note: stale from an earlier run: lda_model.txt, lda_top_words.csv\n")
    report = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
    assert report["failed_stage"] == "lda"
    assert report["notes"] == ["stale from an earlier run: lda_model.txt, lda_top_words.csv"]
    assert stage_notes(tmp_path, "lda") == [f"failed: {error}"]


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
    # more sweeps than numpy can keep a log-likelihood for
    assert run_cli("run", "--input", mini_corpus_path, "--out", out,
                   "--burn-in", "0", "--iters", str(10**20)) == 2
    assert not out.exists()
    assert "iterations must be <=" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--alpha", "nan"), ("--alpha", "inf"),
                                        ("--beta", "inf"), ("--beta", "nan")])
def test_cli_non_finite_lda_priors_exit_2_before_out_is_created(
        mini_corpus_path, tmp_path, capsys, flag, value):
    out = tmp_path / "never"
    assert run_cli("run", "--input", mini_corpus_path, "--out", out, flag, value) == 2
    cfg_file = tmp_path / "prior.ini"
    cfg_file.write_text(f"[lda]\n{flag[2:]} = {value}\n", encoding="utf-8")
    assert run_cli("run", "--config", cfg_file, "--input", mini_corpus_path,
                   "--out", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("alpha and beta must be finite and positive") == 2 and "Traceback" not in err


def test_a_run_never_overwrites_its_own_input(mini_corpus_path, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    own = out / "corpus.csv"
    own.write_text(mini_corpus_path.read_text(encoding="utf-8")
                   + "D99,A record to keep,not a year,Words,,Research Article,Oman\n",
                   encoding="utf-8")
    before = own.read_bytes()
    # the same file under another name, and a stoplist that is an output
    (tmp_path / "link.csv").symlink_to(own)
    (out / "run_report.json").write_text("stop\n", encoding="utf-8")
    for args in (("run", "--input", own), ("ingest", "--input", tmp_path / "link.csv"),
                 ("eda", "--input", mini_corpus_path, "--stoplist", out / "run_report.json")):
        assert run_cli(*args, "--out", out) == 2
    assert {p.name for p in out.iterdir()} == {"corpus.csv", "run_report.json"}
    assert own.read_bytes() == before
    err = capsys.readouterr().err
    assert err.count("this run would overwrite") == 3 and "Traceback" not in err
    # run --from lda plans no corpus.csv, so it may read it
    assert run_cli("run", "--input", own, "--out", out, "--from", "lda",
                   "--iters", "20", "--burn-in", "5") == 0
    assert own.read_bytes() == before
    capsys.readouterr()


def test_provenance_comments_stay_one_line(mini_corpus_path, tmp_path):
    # a line feed and the byte 0xff, which Python holds as the lone surrogate
    # U+DCFF and UTF-8 cannot encode
    odd = tmp_path / "mini\n\udcffcorpus.csv"
    shutil.copyfile(mini_corpus_path, odd)
    plain_out, odd_out = tmp_path / "plain", tmp_path / "odd"
    run_pipeline(quick_cfg(mini_corpus_path, plain_out, country="Saudi Arabia"))
    run_pipeline(quick_cfg(odd, odd_out, country="Saudi Arabia\r\n"))
    names = {p.name for p in plain_out.iterdir()} - {"run_report.json", "corpus.csv"}
    assert "compare.csv" in names and len(names) == 12
    for name in sorted(names):
        plain = (plain_out / name).read_text(encoding="utf-8")
        text = (odd_out / name).read_text(encoding="utf-8")
        assert "\r" not in text and text.count("\n") == plain.count("\n"), name
        assert text.replace("input=mini\\n\\udcffcorpus.csv", "input=mini_corpus.csv").replace(
            "country=Saudi Arabia\\r\\n", "country=Saudi Arabia") == plain, name
        if name.endswith(".csv"):  # no reader sees a piece of the comment as a record
            for row in csv.reader(text.splitlines()):
                assert "corpus.csv" not in ",".join(row) or row[0].startswith("# "), name


@pytest.mark.parametrize("command,flag,value", [
    ("run", "--country", "  "),
    ("compare", "--country", ""),
    ("run", "--phrase", "!!"),
])
def test_cli_blank_country_and_wordless_phrase_exit_2_before_any_work(
        mini_corpus_path, tmp_path, capsys, command, flag, value):
    out = tmp_path / "never"
    assert run_cli(command, "--input", mini_corpus_path, "--out", out, flag, value) == 2
    err = capsys.readouterr().err
    assert flag[2:] in err and "Traceback" not in err
    assert not out.exists()


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


def test_cli_inverted_year_range_is_checked_before_any_stage(mini_corpus_path,
                                                             tmp_path, capsys):
    out = tmp_path / "never"
    assert run_cli("run", "--input", mini_corpus_path, "--out", out,
                   "--year-min", "2020", "--year-max", "2010") == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "year_min" in err and "Traceback" not in err
    cfg_file = tmp_path / "years.ini"
    cfg_file.write_text("[corpus_ingest]\nyear_min = 2020\nyear_max = 2010\n",
                        encoding="utf-8")
    assert run_cli("run", "--config", cfg_file, "--input", mini_corpus_path,
                   "--out", out) == 2
    assert not out.exists()
    assert "year_max" in capsys.readouterr().err
    # a one-year range and a one-sided bound stay valid
    assert quick_cfg(mini_corpus_path, out, year_min=2015, year_max=2015).year_max == 2015
    assert quick_cfg(mini_corpus_path, out, year_min=2020).year_max is None


def test_cli_config_format_is_checked_before_any_stage(mini_corpus_path, tmp_path,
                                                       capsys):
    out = tmp_path / "never"
    cfg_file = tmp_path / "fmt.ini"
    cfg_file.write_text("[corpus_ingest]\nformat = xml\n", encoding="utf-8")
    assert run_cli("run", "--config", cfg_file, "--input", mini_corpus_path,
                   "--out", out) == 2
    assert not out.exists()
    assert "format" in capsys.readouterr().err
    # stored normalised, so run_report.json echoes it as the flag and the file do
    assert quick_cfg(mini_corpus_path, out, format=" CSV ").format == "csv"


@pytest.mark.parametrize("value,code", [("CSV", 0), ("xml", 2)])
def test_format_flag_and_file_take_the_same_values(value, code, mini_corpus_path, tmp_path,
                                                   capsys):
    cfg_file = tmp_path / "fmt.ini"
    cfg_file.write_text(f"[corpus_ingest]\nformat = {value}\n", encoding="utf-8")
    by_flag, by_file = tmp_path / "flag", tmp_path / "file"
    try:
        flag_code = run_cli("ingest", "--input", mini_corpus_path, "--out", by_flag,
                            "--format", value)
    except SystemExit as exc:  # argparse's refusal
        flag_code = exc.code
    file_code = run_cli("ingest", "--config", cfg_file, "--input", mini_corpus_path,
                        "--out", by_file)
    assert flag_code == file_code == code
    assert by_flag.exists() == by_file.exists() == (code == 0)
    if code == 0:
        for out in (by_flag, by_file):
            report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
            assert report["config"]["format"] == "csv"
        assert (by_flag / "corpus.csv").read_bytes() == (by_file / "corpus.csv").read_bytes()
    capsys.readouterr()


def test_cli_forecast_years_past_the_trusted_window_exit_2_before_any_stage(
        mini_corpus_path, tmp_path, capsys):
    out = tmp_path / "never"
    cfg_file = tmp_path / "forecast.ini"
    cfg_file.write_text("[eda]\nforecast_years = 11\n", encoding="utf-8")
    assert run_cli("eda", "--config", cfg_file, "--input", mini_corpus_path,
                   "--out", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "forecast_years" in err and "Traceback" not in err
    # the last year eda forecasts, 10 past the data, still runs
    cfg_file.write_text("[eda]\nforecast_years = 10\n", encoding="utf-8")
    assert run_cli("eda", "--config", cfg_file, "--input", mini_corpus_path,
                   "--out", out) == 0
    kv = dict(row.split(",", 1) for row in read_rows(out / "trend.csv"))
    assert f"forecast_{int(kv['x_max']) + 10}" in kv
    capsys.readouterr()


def test_cli_empty_result_exits_3(mini_corpus_path, tmp_path, capsys):
    assert run_cli("run", "--input", mini_corpus_path, "--out", tmp_path,
                   "--phrase", "quantum blockchain grandmothers") == 3
    capsys.readouterr()


def test_ingest_alone_does_not_tokenize(tmp_path, capsys):
    # a corpus whose words are all stopwords fails only the text stage
    stopworded = tmp_path / "allstop.csv"
    stopworded.write_text("id,title,year\nA1,the of and,2020\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("ingest", "--input", stopworded, "--out", out) == 0
    assert {p.name for p in out.iterdir()} == {"corpus.csv", "run_report.json"}
    report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
    assert [s["name"] for s in report["stages"]] == ["ingest"]
    capsys.readouterr()


NO_TOKENS = "no tokens in any document; cannot build vocabulary"


def test_cli_input_with_only_stopwords_exits_2(tmp_path, capsys):
    stopworded = tmp_path / "allstop.csv"
    stopworded.write_text("id,title,year\nA1,the of and,2020\n", encoding="utf-8")
    assert run_cli("run", "--input", stopworded, "--out", tmp_path / "z") == 2
    assert capsys.readouterr().err == f"corpus-scope: error: stage 'text' failed: {NO_TOKENS}\n"

    # the country's documents hold only stopwords: compare's own fit finds no token
    records = tmp_path / "records.csv"
    records.write_text(
        "id,title,year,abstract,countries\n"
        "A1,data mining networks,2019,graph models of data science,Egypt\n"
        "A2,graph data models,2020,mining networks of science data,Egypt\n"
        "A3,network science,2021,data graph mining models,Egypt\n"
        "S1,of the,2022,and the,Saudi Arabia\n", encoding="utf-8")
    out = tmp_path / "compare"
    assert run_cli("run", "--input", records, "--out", out,
                   "--country", "Saudi Arabia", "--topics", "2") == 2
    assert capsys.readouterr().err.splitlines() == [  # the whole corpus's lda drops S1
        "corpus-scope: warning: dropping 1 document(s) with no in-vocabulary tokens",
        f"corpus-scope: error: stage 'compare' failed: {NO_TOKENS}",
    ]
    report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
    assert report["failed_stage"] == "compare"
    assert set(report["output_files"]) == DATA_FILES


def test_lda_model_writes_each_document_id_on_one_line(tmp_path, capsys):
    records = tmp_path / "ids.csv"
    records.write_text('id,title,year\n"A\nB",data graph,2020\nC,graph model,2021\n'
                       '"D;E",model data,2022\n', encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("lda", "--input", records, "--out", out, "--topics", "2") == 0
    capsys.readouterr()
    lines = (out / "lda_model.txt").read_bytes().decode("utf-8").split("\n")
    docs = lines[lines.index("[documents]") + 1:lines.index("[topic_word_counts]")]
    assert "n_docs=3" in lines and docs == ["A\\nB", "C", "D\\x3bE"]


def test_run_pipeline_raises_stage_error_with_cause(tmp_path):
    stopworded = tmp_path / "allstop.csv"
    stopworded.write_text("id,title,year\nA1,the of and,2020\n", encoding="utf-8")
    cfg = PipelineConfig(input=stopworded, out_dir=tmp_path / "out")
    with pytest.raises(StageError) as exc_info:
        run_pipeline(cfg)
    err = exc_info.value
    assert err.stage == "text"
    assert isinstance(err.cause, InputError) and str(err.cause) == NO_TOKENS
    assert err.exit_code == InputError.exit_code == 2
    # the report still lands on disk and names the failed stage
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["failed_stage"] == "text"


def test_a_writer_that_fails_partway_leaves_no_partial_file(mini_corpus_path, run_dir,
                                                           tmp_path, monkeypatch):
    previous = (run_dir / "lda_model.txt").read_bytes()
    (tmp_path / "lda_model.txt").write_bytes(previous)

    def fails_partway(model):
        yield "corpus-scope-lda\n"
        raise OSError("disk full")

    monkeypatch.setattr(pipeline, "render_model", fails_partway)
    with pytest.raises(StageError, match="disk full") as exc_info:
        run_pipeline(quick_cfg(mini_corpus_path, tmp_path))
    assert exc_info.value.stage == "lda" and isinstance(exc_info.value.cause, OSError)
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


def test_a_writer_whose_file_is_not_planned_never_starts(mini_corpus_path, tmp_path,
                                                         monkeypatch):
    def unplanned(*args, **kwargs):
        raise AssertionError("a writer ran for a file the plan does not have")
        yield  # a generator function: the body runs at the first next

    monkeypatch.setattr(pipeline, "serialize_corpus", unplanned)
    monkeypatch.setattr(pipeline, "export_matrixmarket", unplanned)
    out = tmp_path / "from_lda"
    run_pipeline(quick_cfg(mini_corpus_path, out), from_stage="lda")
    assert {p.name for p in out.iterdir()} == {
        "lda_model.txt", "lda_top_words.csv", "bigrams_edges.csv", "run_report.json"}
    # the patch bites where the files are planned, failing the stage
    with pytest.raises(StageError, match="the plan does not have") as exc_info:
        run_pipeline(quick_cfg(mini_corpus_path, tmp_path / "full"))
    assert isinstance(exc_info.value.cause, AssertionError)


def make_fail(monkeypatch, name):
    """Give stage ``name`` a runner that fails, in the stage table."""
    def runner(run, stage_report):
        raise InsufficientDataError(f"{name} cannot run")

    table = tuple(replace(s, runner=runner) if s.name == name else s
                  for s in pipeline.STAGE_TABLE)
    monkeypatch.setattr(pipeline, "STAGE_TABLE", table)


# `write` holds the command and --from, which decide the files a run writes
@pytest.mark.parametrize("write,fails,stale", [
    ({"command": "run"}, "lda",
     ["lda_model.txt", "lda_top_words.csv", "bigrams_edges.csv"]),
    ({"command": "run"}, "text",
     ["dtm.mtx", "dtm_index.csv", "year_counts.csv", "trend.csv", "top_terms.csv",
      "type_shares.csv", "trend.svg", "ca_coords.csv", "lda_model.txt",
      "lda_top_words.csv", "bigrams_edges.csv"]),
    # run --from lda: the earlier stages' files were never to be rewritten
    ({"command": "run", "from_stage": "lda"}, "text",
     ["lda_model.txt", "lda_top_words.csv", "bigrams_edges.csv"]),
    # the lsa subcommand writes only its own stage's files, the scatter too
    ({"command": "lsa"}, "lsa", ["ca_coords.csv", "ca_scatter.svg"]),
])
def test_a_failed_run_names_the_files_left_from_an_earlier_run(
        mini_corpus_path, run_dir, tmp_path, monkeypatch, write, fails, stale):
    shutil.copytree(run_dir, tmp_path, dirs_exist_ok=True)
    (tmp_path / "ca_scatter.svg").write_text("<svg/>", encoding="utf-8")
    make_fail(monkeypatch, fails)
    with pytest.raises(StageError):
        run_pipeline(quick_cfg(mini_corpus_path, tmp_path), **write)
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
        run_pipeline(quick_cfg(mini_corpus_path, tmp_path), command="eda")
    report = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
    assert sorted(report["output_files"]) == [
        "top_terms.csv", "trend.csv", "type_shares.csv", "year_counts.csv"]
    assert report["notes"] == ["stale from an earlier run: trend.svg"]


def test_a_failed_run_into_a_fresh_directory_names_nothing_stale(mini_corpus_path,
                                                                 tmp_path, monkeypatch):
    make_fail(monkeypatch, "eda")
    with pytest.raises(StageError):
        run_pipeline(quick_cfg(mini_corpus_path, tmp_path))
    report = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
    assert report["failed_stage"] == "eda"
    assert report["notes"] == []


def test_a_successful_run_names_a_planned_file_left_from_an_earlier_run(
        mini_corpus_path, tmp_path, capsys):
    note = "stale from an earlier run: ca_scatter.svg"
    assert run_cli("lsa", "--input", mini_corpus_path, "--out", tmp_path, "--dims", "2") == 0
    capsys.readouterr()
    # one axis draws no scatter, so the two-axis one from the run before stays
    assert run_cli("lsa", "--input", mini_corpus_path, "--out", tmp_path, "--dims", "1") == 0
    report = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
    assert list(report["output_files"]) == ["ca_coords.csv"]
    assert report["notes"] == [note]
    assert f"note: {note}\n" in capsys.readouterr().out


EDA_FILES = ["year_counts.csv", "trend.csv", "top_terms.csv", "type_shares.csv",
             "trend.svg"]
LDA_FILES = ["lda_model.txt", "lda_top_words.csv"]


SAUDI = "Saudi Arabia"


@pytest.mark.parametrize("command,from_stage,country,computed,written", [
    pytest.param("run", None, SAUDI, [*STAGES, "compare"], None, id="run"),
    pytest.param("run", None, None, list(STAGES), None, id="run-without-country"),
    pytest.param("run", "ingest", SAUDI, [*STAGES, "compare"], None, id="run-from-ingest"),
    pytest.param("run", "lda", SAUDI, ["ingest", "text", "lda", "bigrams", "compare"],
                 LDA_FILES + ["bigrams_edges.csv", "compare.csv"], id="run-from-lda"),
    pytest.param("ingest", None, SAUDI, ["ingest"], ["corpus.csv"], id="ingest"),
    pytest.param("eda", None, SAUDI, ["ingest", "text", "eda"], EDA_FILES, id="eda"),
    pytest.param("lsa", None, SAUDI, ["ingest", "text", "lsa"],
                 ["ca_coords.csv", "ca_scatter.svg"], id="lsa"),
    pytest.param("lda", None, SAUDI, ["ingest", "text", "lda"], LDA_FILES, id="lda"),
    pytest.param("bigrams", None, SAUDI, ["ingest", "text", "bigrams"],
                 ["bigrams_edges.csv"], id="bigrams"),
    pytest.param("compare", None, SAUDI, ["ingest", "text", "lda", "compare"],
                 ["compare.csv"], id="compare"),
])
def test_a_command_computes_what_it_needs_and_writes_its_planned_files(
        mini_corpus_path, run_dir, tmp_path, command, from_stage, country, computed,
        written):
    if written is None:  # a whole run's files, in the order the report lists them
        report = json.loads((run_dir / "run_report.json").read_text(encoding="utf-8"))
        written = [name for s in report["stages"] for name in s["outputs"]]
        assert set(written) == DATA_FILES
        if country:
            written.append("compare.csv")
    cfg = quick_cfg(mini_corpus_path, tmp_path, country=country)
    stages, files = plan(cfg, command, from_stage)
    assert [s.name for s in stages] == computed
    assert list(files) == written
    # a run computes and writes what its plan says, and nothing else
    report = run_pipeline(cfg, command=command, from_stage=from_stage)
    assert [s.name for s in report.stages] == computed
    assert [name for s in report.stages for name in s.outputs] == written
    assert {p.name for p in tmp_path.iterdir()} == set(written) | {"run_report.json"}


def test_a_plan_checks_its_command_before_any_file_is_written(mini_corpus_path,
                                                              tmp_path):
    cfg = quick_cfg(mini_corpus_path, tmp_path / "never")
    with pytest.raises(ConfigError, match="compare requires a country"):
        run_pipeline(cfg, command="compare")
    with pytest.raises(ConfigError, match="unknown command"):
        run_pipeline(cfg, command="text")
    for command, from_stage in [("run", "compare"), ("eda", "lda")]:
        with pytest.raises(ConfigError, match="--from"):
            run_pipeline(cfg, command=command, from_stage=from_stage)
    assert not (tmp_path / "never").exists()


def test_the_benchmark_checks_the_files_and_stages_of_a_run_without_country(
        mini_corpus_path, tmp_path, monkeypatch):
    # perfbench/run.py times `run` without --country and checks the bytes of
    # each file it writes; its own lists of those files and stages must stay
    # the plan's, so that a change to the plan cannot pass it unseen
    bench_dir = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench_dir))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run", bench_dir / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    assert bench.DATA_FILES == plan(quick_cfg(mini_corpus_path, tmp_path), "run")[1]
    assert bench.STAGES == STAGES


# ---------------------------------------------------------------- any input

# the last three hold an accented letter, U+2019 and U+2013
WORDS = ("data", "graph", "model", "network", "mining", "science", "the", "and",
         "réseau", "model’s", "data–driven")
FLAGS = {f.name: f.metadata["flag"] for f in fields(PipelineConfig)}


@st.composite
def cli_cases(draw):
    """A small generated corpus (its file name and bytes), a command, its
    ``--from`` stage and the settings its flags set. The file name may hold
    a byte that is not UTF-8, and a JSON Lines title an unpaired surrogate."""
    dated = draw(st.sampled_from(("all", "some", "none")))
    records, tokens = [], 0
    for i in range(draw(st.integers(1, 6))):
        title, abstract = (draw(st.lists(st.sampled_from(WORDS), max_size=n)) for n in (3, 8))
        tokens += len(title) + len(abstract)
        year = None
        if dated == "all" or dated == "some" and draw(st.booleans()):
            year = draw(st.integers(2000, 2005))
        records.append({"id": f"D{i}", "title": " ".join(title), "year": year,
                        "abstract": " ".join(abstract),
                        "countries": draw(st.sampled_from(("", "Saudi Arabia", "Egypt")))})
    if draw(st.booleans()):
        name, lines = "records.csv", ["id,title,year,abstract,countries"] + [
            ",".join("" if v is None else str(v) for v in r.values()) for r in records]
    else:
        if draw(st.booleans()):
            records[0]["title"] += " \ud800"  # valid JSON, not Unicode
        name, lines = "records.jsonl", [json.dumps(r) for r in records]
    if draw(st.booleans()):
        name = "\udcff" + name  # the byte 0xff, as Python decodes a file name
    data = (draw(st.sampled_from(("", "\ufeff"))) + "\n".join(lines) + "\n").encode("utf-8")
    command = draw(st.sampled_from(("run", "run", "compare")))
    from_stage = draw(st.none() | st.sampled_from(STAGES)) if command == "run" else None
    optional = {
        "topics": st.integers(1, tokens + 3),
        "vocab_size": st.integers(1, 8),
        "dims": st.integers(1, 3),
        "bigram_threshold": st.integers(0, 3),
        "year_min": st.integers(1999, 2006),
        "year_max": st.integers(1999, 2006),
        "phrase": st.sampled_from(("data", "graph model", "science")),
        "country": st.sampled_from(("Saudi Arabia", "Egypt", " ")),
        "iterations": st.integers(1, 2) | st.integers(sys.maxsize // 8 + 1, 10**20),
    }
    chosen = {key: draw(value) for key, value in optional.items() if draw(st.booleans())}
    return name, data, command, from_stage, chosen


def run_quietly(argv):
    """``main(argv)``'s exit code and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(cli_cases())
def test_any_small_corpus_and_flag_set_exits_cleanly_and_reproducibly(case):
    name, data, command, from_stage, chosen = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        source = tmp / name
        source.write_bytes(data)
        argv = [command, "--input", source, "--iters", "2", "--burn-in", "0",
                *(["--from", from_stage] if from_stage else []),
                *(arg for key, value in chosen.items() for arg in (FLAGS[key], value))]

        def run(out):
            code, err = run_quietly([*argv, "--out", out])
            # generated input never makes a stage fail internally (exit 1)
            assert code in (0, 2, 3) and "Traceback" not in err
            if code == 3:
                assert re.search(r"failed: (ingest filters|country filter '[^']*')"
                                 r" produced an empty corpus\n", err), err
            if not out.exists():
                assert code == 2  # a mistake found before any work
                return code, None, None
            report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
            assert (code == 0) == (report["failed_stage"] is None)
            if code:
                assert f"stage {report['failed_stage']!r} failed" in err
            data_files = {p.name: p.read_bytes() for p in out.iterdir()
                          if p.name != "run_report.json"}
            return code, report, data_files

        code, report, written = run(tmp / "a")
        assert report is None or report["notes"] == []  # nothing stale in a fresh --out
        assert run(tmp / "b")[::2] == (code, written)
        if code == 0 or report is None:
            return
        # the same failure where every file a run can write is left from before
        old = tmp / "old"
        old.mkdir()
        for stale in (*DATA_FILES, "compare.csv"):
            (old / stale).write_bytes(b"old\n")
        again = run(old)[1]
        assert again["failed_stage"] == report["failed_stage"]
        cfg = PipelineConfig(input=source, out_dir=old, **{"iterations": 2, "burn_in": 0,
                                                            **chosen})
        left = [f for f in plan(cfg, command, from_stage)[1] if f not in again["output_files"]]
        assert again["notes"] == [f"stale from an earlier run: {', '.join(left)}"] * bool(left)


def case_records(name, data):
    """The records of a generated case's file, as dicts of JSON values."""
    text = data.decode("utf-8-sig")
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    return [{**row, "year": int(row["year"]) if row["year"] else None}
            for row in csv.DictReader(io.StringIO(text))]


def write_records(path, records):
    """``records`` as CSV or JSON Lines, by ``path``'s suffix; in CSV, each
    unpaired surrogate as the U+FFFD that JSON Lines input reads it as."""
    if path.suffix == ".jsonl":
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return
    records = [{key: re.sub("[\ud800-\udfff]", "\ufffd", value) if isinstance(value, str)
                else value for key, value in r.items()} for r in records]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, records[0].keys(), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)


def data_files_without_provenance(out):
    """Each data file in ``out``, without the comment line naming its input."""
    return {p.name: re.sub(rb"(?m)^[#%] corpus-scope .*\n", b"", p.read_bytes())
            for p in out.iterdir() if p.name != "run_report.json"}


def runnable_flags(chosen):
    """A case's settings as flags, less what empties or refuses most generated
    corpora: the filters, the country, a zero threshold, over two topics,
    other than two sweeps."""
    kept = {key: value for key, value in chosen.items()
            if key not in ("phrase", "year_min", "year_max", "country", "iterations")}
    kept["topics"] = min(kept.get("topics", 2), 2)
    kept["bigram_threshold"] = max(kept.get("bigram_threshold", 1), 1)
    return ["--iters", "2", "--burn-in", "0",
            *(arg for key, value in kept.items() for arg in (FLAGS[key], value))]


DEMO = Path(pipeline.__file__).parent / "data" / "mini_corpus.csv"
DEMO_CASE = (DEMO.name, DEMO.read_bytes(), "run", None, {"country": "Saudi Arabia"})


@settings(max_examples=20, deadline=None)
@given(cli_cases())
@example(DEMO_CASE)
def test_the_same_records_as_csv_jsonl_or_corpus_csv_write_the_same_files(case):
    name, data, _, from_stage, chosen = case
    records = case_records(name, data)
    country = chosen.get("country", " ").strip()
    argv = ["run", *runnable_flags(chosen), *(["--from", from_stage] if from_stage else []),
            *(["--country", country] if country else [])]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        as_csv, as_jsonl = tmp / "records.csv", tmp / "records.jsonl"
        write_records(as_csv, records)
        write_records(as_jsonl, records)
        assert run_quietly(["ingest", "--input", as_csv, "--out", tmp / "ingested"])[0] == 0
        results = []
        for i, source in enumerate((as_csv, as_jsonl, tmp / "ingested" / "corpus.csv")):
            out = tmp / f"out{i}"
            code = run_quietly([*argv, "--input", source, "--out", out])[0]
            results.append((code, out.exists() and data_files_without_provenance(out)))
        assert results[1] == results[0]
        assert results[2] == results[0]


def csv_body(path):
    """A data file's CSV rows below its comment line and header."""
    return list(csv.reader(read_rows(path)))[1:]


@settings(max_examples=20, deadline=None)
@given(cli_cases(), st.sampled_from(("Saudi Arabia", "Egypt")))
@example(DEMO_CASE, "Saudi Arabia")
def test_compare_subset_column_is_a_plain_run_on_the_subset(case, country):
    name, data, _, _, chosen = case
    argv = runnable_flags(chosen)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        source = tmp / name
        source.write_bytes(data)
        code = run_quietly(["compare", "--input", source, "--country", country, *argv,
                            "--out", tmp / "cmp"])[0]
        if code != 0:
            return
        subset = tmp / f"subset{source.suffix}"
        write_records(subset, [r for r in case_records(name, data)
                               if country in r["countries"].split(";")])
        # plain runs of the two stages whose files compare sets beside: `run`
        # would also refuse a one-term vocabulary, or a table too small, for lsa
        for command in ("eda", "lda"):
            assert run_quietly([command, "--input", subset, *argv, "--out", tmp / "plain"])[0] == 0
        compared = csv_body(tmp / "cmp" / "compare.csv")
        terms = [f"{term}:{count}" for _, term, count, _ in csv_body(tmp / "plain" / "top_terms.csv")]
        assert [r[2] for r in compared if r[0] == "top_terms" and r[2]] == terms[:20]
        words = [row[2] for row in csv_body(tmp / "plain" / "lda_top_words.csv")]
        assert [r[2] for r in compared if r[0] == "lda_top_words" and r[2]] == words


@settings(max_examples=20, deadline=None)
@given(cli_cases())
@example(DEMO_CASE)
@example((DEMO.name, DEMO.read_bytes(), "run", None, {}))
def test_run_writes_what_its_stage_commands_write_one_after_another(case):
    name, data, _, _, chosen = case
    country = chosen.get("country", " ").strip()
    argv = [*runnable_flags(chosen), *(["--country", country] if country else [])]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        source = tmp / name
        source.write_bytes(data)
        if run_quietly(["run", "--input", source, *argv, "--out", tmp / "run"])[0] != 0:
            return
        for command in ("ingest", "eda", "lsa", "lda", "bigrams", *["compare"] * bool(country)):
            code = run_quietly([command, "--input", source, *argv, "--out", tmp / "stages"])[0]
            assert code == 0, command
        ran = {p.name: p.read_bytes() for p in (tmp / "run").iterdir()}
        staged = {p.name: p.read_bytes() for p in (tmp / "stages").iterdir()}
        assert set(ran) - set(staged) == {"dtm.mtx", "dtm_index.csv"}
        assert set(staged) - set(ran) <= {"ca_scatter.svg"}  # a plot of two or more axes
        shared = sorted(set(ran) & set(staged) - {"run_report.json"})
        assert [ran[f] for f in shared] == [staged[f] for f in shared]


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


def test_config_threads_key_is_rejected(mini_corpus_path, tmp_path, capsys):
    cfg_file = tmp_path / "threads.ini"
    cfg_file.write_text("[report]\nseed = 3\nthreads = 4\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key 'threads' in section \\[report\\]"):
        load_config(cfg_file)
    out = tmp_path / "never"
    assert run_cli("run", "--config", cfg_file, "--input", mini_corpus_path,
                   "--out", out) == 2
    with pytest.raises(SystemExit) as exc_info:
        run_cli("run", "--input", mini_corpus_path, "--out", out, "--threads", "8")
    assert exc_info.value.code == 2
    assert not out.exists()
    capsys.readouterr()


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


def test_config_file_with_a_byte_order_mark_reads_the_same(tmp_path):
    plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
    plain.write_text("[lda]\ntopics = 4\n[report]\nseed = 3\n", encoding="utf-8")
    marked.write_text("\ufeff[lda]\ntopics = 4\n[report]\nseed = 3\n", encoding="utf-8")
    assert load_config(marked) == load_config(plain) == {"topics": 4, "seed": 3}


def test_readme_lists_every_exit_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.split("|")[1:4]]
            for line in section.splitlines() if re.match(r"\| \d ", line)]
    assert [code for code, _, _ in rows] == ["0", "1", "2", "3"]
    listed = [(name, int(code)) for code, _, classes in rows
              for name in re.findall(r"`(\w+)`", classes)]
    declared = {name: cls.exit_code for name, cls in vars(errors).items()
                if isinstance(cls, type) and issubclass(cls, CorpusScopeError)}
    assert len(listed) == len(dict(listed))  # each class in one row
    assert dict(listed) == declared


def test_readme_lists_every_config_key():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = [[cell.strip(" `") for cell in line.split("|")[1:5]]
            for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `[")]
    listed = {(section.strip("[]"), key): (flag, default)
              for section, key, flag, default in rows}
    declared = {(f.metadata["section"], f.metadata["key"] or f.name): f
                for f in fields(PipelineConfig)}
    assert len(rows) == len(listed)
    assert listed.keys() == declared.keys()
    for ini_key, f in declared.items():
        flag, default = listed[ini_key]
        assert flag == (f.metadata["flag"] or "file only"), ini_key
        if isinstance(f.default, (int, float)):
            assert default == str(f.default), ini_key
        elif isinstance(f.default, tuple):
            assert default == ",".join(f.default), ini_key


# ---------------------------------------------------------------- stoplist


def test_stoplist_flag_replaces_the_bundled_list(mini_corpus_path, tmp_path, capsys):
    flag_stop = tmp_path / "flag_stop.txt"
    flag_stop.write_text("science\n", encoding="utf-8")
    out = tmp_path / "flag_run"
    assert run_cli("run", "--input", mini_corpus_path, "--out", out,
                   "--stoplist", flag_stop, "--iters", "20", "--burn-in", "4") == 0
    terms = {r.split(",")[2] for r in read_rows(out / "dtm_index.csv")[1:]
             if r.startswith("term,")}
    # the flag's file replaces the bundled list, whose "the" is now counted
    assert "science" not in terms and "data" in terms and "the" in terms
    report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
    assert report["config"]["stoplist"] == str(flag_stop)
    text = next(s for s in report["stages"] if s["name"] == "text")
    assert "stoplist=file:flag_stop.txt (1 terms)" in text["notes"]
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
    # an empty subset fails ingest, before any stage writes or fits: under
    # `run`, corpus.csv is not written either
    for command in ("compare", "run"):
        out = tmp_path / command
        assert run_cli(command, "--input", mini_corpus_path, "--out", out,
                       "--country", "Atlantis") == 3
        assert "Atlantis" in capsys.readouterr().err
        assert {p.name for p in out.iterdir()} == {"run_report.json"}
        report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
        assert report["command"] == command
        assert report["failed_stage"] == "ingest"
        assert [s["name"] for s in report["stages"]] == ["ingest"]


# compare.csv of the demo at default settings, pinned byte for byte
COMPARE_SHA256 = "03bcf5ba0f2ce9ca7e681c2a7042aee4249aa52ad54ec0f7e76c0e7cc23809f1"


def test_compare_bytes_match_the_pinned_hash(mini_corpus_path, tmp_path, capsys):
    assert run_cli("compare", "--input", mini_corpus_path, "--out", tmp_path,
                   "--country", "Saudi Arabia") == 0
    capsys.readouterr()
    assert {p.name for p in tmp_path.iterdir()} == {"compare.csv", "run_report.json"}
    digest = hashlib.sha256((tmp_path / "compare.csv").read_bytes()).hexdigest()
    assert digest == COMPARE_SHA256
    report = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
    assert [s["name"] for s in report["stages"]] == ["ingest", "text", "lda", "compare"]


def test_run_with_a_country_also_writes_compare_csv_from_one_whole_corpus_fit(
        mini_corpus_path, tmp_path, monkeypatch, capsys):
    fits, tokenized = [], []
    fit_lda, build_sequences = pipeline.fit_lda, pipeline.build_sequences

    def counted(tokens, *args):
        fits.append(len(tokens))
        return fit_lda(tokens, *args)

    def tokenize_counted(corpus, *args, **kwargs):
        tokenized.append(len(corpus))
        return build_sequences(corpus, *args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_lda", counted)
    monkeypatch.setattr(pipeline, "build_sequences", tokenize_counted)
    plain, country = tmp_path / "plain", tmp_path / "country"
    assert run_cli("run", "--input", mini_corpus_path, "--out", plain) == 0
    assert fits == [60] and tokenized == [60]
    fits.clear()
    tokenized.clear()
    assert run_cli("run", "--input", mini_corpus_path, "--out", country,
                   "--country", "Saudi Arabia") == 0
    capsys.readouterr()
    assert fits == [60, 10]  # the whole corpus once, then the subset
    assert tokenized == [60]  # the subset's tokens are rows of the corpus's array
    assert {p.name for p in country.iterdir()} == (
        DATA_FILES | {"compare.csv", "run_report.json"})
    for name in sorted(DATA_FILES):
        assert (country / name).read_bytes() == (plain / name).read_bytes(), name
    digest = hashlib.sha256((country / "compare.csv").read_bytes()).hexdigest()
    assert digest == COMPARE_SHA256


def test_run_with_a_country_writes_its_planted_share(tmp_path, capsys):
    # each document names one of 12 countries drawn uniformly; over seeds
    # 0-39 and all 12 countries the written share was 6.4-10.5 (100/12 =
    # 8.33, standard deviation 0.62)
    for seed in range(6):
        corpus, _ = planted_records(np.random.default_rng(seed))
        src = tmp_path / f"planted{seed}.csv"
        src.write_text("".join(serialize_corpus(corpus)), encoding="utf-8")
        out = tmp_path / f"out{seed}"
        assert run_cli("run", "--input", src, "--out", out, "--iters", "2", "--burn-in", "0",
                       "--country", PLANTED_COUNTRIES[seed]) == 0
        size = [r.split(",") for r in read_rows(out / "compare.csv") if r.startswith("size,")]
        assert size[1][:2] == ["size", "share_percent"] and size[1][3] == "100.0"
        assert abs(float(size[1][2]) - 100 / 12) <= 2.5, seed
    capsys.readouterr()


# ---------------------------------------------------------------- entry point


def run_and_list_modules(argv: list[str]) -> list:
    """Run ``main(argv)`` in a fresh interpreter; return its exit code, the
    SciPy and XML modules it loaded, and whether it loaded SciPy's LAPACK."""
    script = (
        "import json, sys\n"
        "from corpus_scope import _lapack\n"
        "from corpus_scope.cli import main\n"
        f"code = main({argv!r})\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m == 'xml.sax.saxutils']\n"
        "print(json.dumps([code, loaded, _lapack._bundled.cache_info().currsize]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_dense_run_loads_neither_lanczos_nor_graphml_modules(mini_corpus_path, tmp_path):
    # the tridiagonal solver serves only the Lanczos CA, nothing in a run
    # writes XML beyond the hand-built SVG, and no stage imports SciPy: a
    # demo-sized run loads none of them
    argv = ["run", "--input", str(mini_corpus_path), "--out", str(tmp_path / "out"),
            "--iters", "5", "--burn-in", "1"]
    assert run_and_list_modules(argv) == [0, [], 0]


@pytest.fixture(scope="module")
def lanczos_corpus(tmp_path_factory) -> Path:
    """90 documents over 120 made-up words: both sides of the table are
    above the dense cutoff, so the run's CA takes the Lanczos path."""
    rng = np.random.default_rng(61)
    words = [f"w{a}{b}x" for a in "abcdefghijkl" for b in "mnopqrstuv"]
    path = tmp_path_factory.mktemp("lanczos") / "corpus.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "title", "year", "abstract", "keywords", "doc_type", "countries"])
        for d in range(90):
            text = " ".join(words[i] for i in rng.zipf(1.3, size=40) % len(words))
            out.writerow([f"L{d:03d}", f"{words[d % len(words)]} study", 2000 + d % 12,
                          text, "", "Research Article", "Brazil"])
    return path


def test_lanczos_run_loads_no_scipy_module(lanczos_corpus, tmp_path):
    out = tmp_path / "out"
    argv = ["run", "--input", str(lanczos_corpus), "--out", str(out),
            "--iters", "5", "--burn-in", "1"]
    assert run_and_list_modules(argv) == [0, [], 1]
    assert "ca solver lanczos" in " ".join(stage_notes(out, "lsa"))


def test_the_synth_wide_fit_reports_few_tridiagonal_solves(tmp_path, capsys):
    # the benchmark's synth-wide corpus takes 182 Lanczos steps for 20 axes;
    # bisection bounds show nearly all of them to be no stop, and the notes
    # count the exact solves that the others took, the final one included
    bench_dir = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_synth", bench_dir / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    corpus = synth.write_corpus(tmp_path / "corpus.jsonl", 3000, 1, "jsonl")
    out = tmp_path / "out"
    assert main(["lsa", "--input", str(corpus), "--out", str(out),
                 "--vocab-size", "5000", "--dims", "20"]) == 0
    capsys.readouterr()
    notes = stage_notes(out, "lsa")
    steps = int(re.fullmatch(r"ca solver lanczos, (\d+) iterations", notes[0])[1])
    counts = re.fullmatch(r"(\d+) tridiagonal solves, (\d+) steps decided by bounds", notes[2])
    solves, bounded = int(counts[1]), int(counts[2])
    assert steps > 100 and solves <= 10
    assert bounded + solves - 1 >= steps - 20


def test_lanczos_without_the_bundled_lapack_writes_the_same_bytes(lanczos_corpus, tmp_path,
                                                                   capsys):
    # where SciPy bundles no OpenBLAS, scipy.linalg's eigh_tridiagonal runs
    # the same LAPACK routine and writes the same ca_coords.csv
    from corpus_scope import _lapack

    argv = ["lsa", "--input", str(lanczos_corpus)]
    assert main([*argv, "--out", str(tmp_path / "bundled")]) == 0
    with mock.patch.object(_lapack, "_bundled", lambda: None):
        assert main([*argv, "--out", str(tmp_path / "fallback")]) == 0
    capsys.readouterr()
    solvers = {}
    for name in ("bundled", "fallback"):
        notes = stage_notes(tmp_path / name, "lsa")
        solvers[name] = [n for n in notes if n.startswith("tridiagonal solver")]
    assert solvers == {"bundled": ["tridiagonal solver lapack dstevd (scipy-openblas)"],
                       "fallback": ["tridiagonal solver scipy.linalg.eigh_tridiagonal"]}
    assert ((tmp_path / "bundled" / "ca_coords.csv").read_bytes()
            == (tmp_path / "fallback" / "ca_coords.csv").read_bytes())


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "corpus_scope.cli", "--help"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    for sub in ("ingest", "eda", "lsa", "lda", "bigrams", "run", "compare"):
        assert sub in proc.stdout
