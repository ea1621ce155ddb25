"""The CLI's run-once process policy, and what ``main`` does with any argv.

The policy is set when ``corpus_scope.cli`` is imported, and this test
process has numpy loaded already, so those tests run fresh interpreters.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_scope
from conftest import SRC, child_env, use_backend
from corpus_scope import _native
from corpus_scope.cli import _build_config, build_parser, main
from corpus_scope.errors import CorpusScopeError
from corpus_scope.pipeline import PipelineConfig

PERFBENCH = SRC.parent / "perfbench"
PINS = PERFBENCH / "pinned_hashes.json"
DEMO = SRC / "corpus_scope" / "data" / "mini_corpus.csv"


def run_python(code: str, *args: str, timeout_var: str | None = None) -> str:
    """Run ``code`` in a fresh interpreter with OPENBLAS_THREAD_TIMEOUT unset
    or set to ``timeout_var``, and return what it printed."""
    env = child_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if timeout_var is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout_var
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("preset,expected", [(None, "4"), ("28", "28")])
def test_cli_import_sets_the_blas_timeout_before_numpy_and_freezes_the_gc(preset, expected):
    script = (
        "import gc, json, os, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import corpus_scope.cli\n"
        "print(json.dumps([seen, os.environ.get('OPENBLAS_THREAD_TIMEOUT'),"
        " gc.get_freeze_count()]))\n"
    )
    seen, after, frozen = json.loads(run_python(script, timeout_var=preset))
    assert seen == [expected]
    assert after == expected
    assert frozen > 0


def test_package_import_loads_no_numpy():
    script = (
        "import sys\n"
        "import corpus_scope\n"
        "loaded = [m for m in ('numpy', 'scipy') if m in sys.modules]\n"
        "print(loaded, corpus_scope.Corpus.__module__)\n"
    )
    assert run_python(script).split() == ["[]", "corpus_scope.corpus_ingest"]


# loaded only by a build of the kernels, or by nothing in a demo run
BUILD_STDLIB = ("subprocess", "selectors", "signal")
LAZY_STDLIB = ("configparser", "fractions", "decimal", "resource")


def test_cli_import_and_a_demo_run_load_neither_scipy_sparse_nor_linalg(tmp_path):
    # the DTM is plain CSR arrays, gammaln and the F test's p-value are
    # computed in the package, and the demo's CA takes the dense path: no
    # SciPy module at all is loaded, nor the tridiagonal solver of the
    # Lanczos path (corpus_scope._lapack). Nor are numpy.ma (which a flagless
    # np.unique imports) and numpy.random (which nothing in the package uses),
    # nor the standard modules that only a kernel build, a config file or the
    # non-Linux peak-memory fallback needs. The kernels are built here first,
    # so that the run finds them cached; without a compiler it tries to build
    lazy = LAZY_STDLIB + (BUILD_STDLIB if _native.library() is not None else ())
    script = (
        "import sys\n"
        "from corpus_scope.cli import main\n"
        f"lazy = {lazy!r}\n"
        "def unwanted(): return [m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "                        or m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'random'])\n"
        "                        or m in lazy or m == 'corpus_scope._lapack']\n"
        "print('import', unwanted())\n"
        "code = main(['run', '--input', sys.argv[1], '--out', sys.argv[2]])\n"
        "print('run', code, unwanted())\n"
    )
    lines = run_python(script, str(DEMO), str(tmp_path)).splitlines()
    assert lines[0] == "import []"
    assert lines[-1] == "run 0 []"


def test_package_getattr_rejects_unknown_names():
    with pytest.raises(AttributeError, match="no_such_name"):
        corpus_scope.no_such_name  # noqa: B018


def test_demo_bytes_do_not_depend_on_the_blas_timeout(tmp_path):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))["demo"]["any"]["outputs"]
    entry = "import sys; from corpus_scope.cli import main; sys.exit(main())"
    for preset in (None, "28"):
        out = tmp_path / f"timeout-{preset}"
        run_python(entry, "run", "--input", str(DEMO), "--out", str(out), "--seed", "42",
                   timeout_var=preset)
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir() if p.name != "run_report.json"}
        assert written == pinned, preset


def test_demo_without_the_library_writes_the_pinned_files(tmp_path, capsys):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))["demo"]["any"]["outputs"]
    with use_backend("python"):
        assert main(["run", "--input", str(DEMO), "--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.name != "run_report.json"}
    assert written == pinned
    assert "tokenizer backend python" in capsys.readouterr().out


def test_the_environment_cannot_change_a_run(tmp_path, capsys, monkeypatch):
    # a stoplist named by a variable, not by --stoplist or the INI file, is
    # not read: the demo's data files stay the pinned ones
    stop = tmp_path / "stop.txt"
    stop.write_text("data\n", encoding="utf-8")
    monkeypatch.setenv("CORPUS_SCOPE_STOPLIST", str(stop))
    pinned = json.loads(PINS.read_text(encoding="utf-8"))["demo"]["any"]["outputs"]
    out = tmp_path / "out"
    assert main(["run", "--input", str(DEMO), "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name != "run_report.json"}
    assert written == pinned
    capsys.readouterr()


def test_a_process_without_a_compiler_runs_the_demo_on_the_python_twins(tmp_path):
    # no g++ on PATH and an empty kernel cache: the library cannot be built,
    # so every kernel runs its Python twin, which needs no numpy.random
    pinned = json.loads(PINS.read_text(encoding="utf-8"))["demo"]["any"]["outputs"]
    (tmp_path / "bin").mkdir()
    env = child_env()
    env["PATH"] = str(tmp_path / "bin")
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    script = (
        "import sys\n"
        "from corpus_scope.cli import main\n"
        "code = main(['run', '--input', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", script, str(DEMO), str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert "gibbs backend python" in proc.stdout
    assert proc.stderr.count("compiled kernels unavailable") == 1, proc.stderr
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name != "run_report.json"}
    assert written == pinned


@pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
def test_what_standard_output_cannot_encode_is_printed_escaped(tmp_path, encoding):
    # the byte 0xff of a file name reaches Python as the lone surrogate
    # U+DCFF, which no strict encoder takes: a finished run still exits 0
    stoplist = tmp_path / "stop\udcff.txt"
    stoplist.write_text("the\n", encoding="utf-8")
    env = child_env()
    env["PYTHONIOENCODING"] = encoding
    entry = "import sys; from corpus_scope.cli import main; sys.exit(main())"
    cases = [(["run", "--stoplist", stoplist, "--iters", "2", "--burn-in", "0"],
              tmp_path / "run", "[text] stoplist=file:stop\\udcff.txt", 12),
             (["ingest"], tmp_path / "out\udcff", "[ingest] parsed 60", 1)]
    for argv, out, note, files in cases:
        proc = subprocess.run([sys.executable, "-c", entry, *argv, "--input", DEMO,
                               "--out", out], env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert b"Traceback" not in proc.stderr
        printed = proc.stdout.decode(encoding).splitlines()
        assert any(line.startswith(note) for line in printed), printed
        escaped = str(out).encode(encoding, "backslashreplace").decode(encoding)
        assert printed[-1].startswith(f"wrote {files} file(s) to {escaped}: ")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no VmHWM here")
def test_stage_peak_rss_is_the_process_own_not_its_launcher():
    """ru_maxrss survives execve on Linux, so a child started by a parent
    that once held 200 MB would report at least that."""
    child = "from corpus_scope.pipeline import _peak_rss_mb; print(_peak_rss_mb())"
    parent = (
        "import subprocess, sys\n"
        "bloat = bytes(range(256)) * (200 << 12)  # 200 MB, every page touched\n"
        "del bloat\n"
        "print(subprocess.run([sys.executable, '-c', sys.argv[1]], check=True,\n"
        "                     capture_output=True, text=True).stdout)\n"
    )
    child_peak = float(run_python(parent, child))
    assert 0 < child_peak < 150


def test_stage_peak_rss_falls_back_to_ru_maxrss(monkeypatch, tmp_path):
    resource = pytest.importorskip("resource")
    from corpus_scope import pipeline

    monkeypatch.setattr(pipeline, "_PROC_STATUS", tmp_path / "no-such-status")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    assert pipeline._peak_rss_mb() == pytest.approx(peak / scale, abs=0.1)


def test_the_benchmark_trace_sees_each_layer_under_run_pipeline(tmp_path):
    # perfbench/trace_run.py wraps cli.run_pipeline and the layer functions
    # in pipeline's namespace; a run that bypassed either would lose spans
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "trace_run.py"), str(spans_path), "run",
         "--input", str(DEMO), "--out", str(tmp_path / "out"),
         "--iters", "5", "--burn-in", "1"],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["run_pipeline"]
    under_root = {s["name"] for s in spans if s["parent"] == roots[0]["id"]}
    assert {"parse_file", "build_sequences", "fit_ca", "fit_lda",
            "count_bigrams"} <= under_root


# ---------------------------------------------------------------- any argv

_SUBPARSERS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
_COMMANDS = sorted(_SUBPARSERS)
_FLAGS = sorted({opt for sub in _SUBPARSERS.values() for action in sub._actions
                 for opt in action.option_strings})
_VALUES = st.one_of(
    st.text(max_size=4),
    st.integers(-2, 3).map(str),
    st.sampled_from(["0.5", "csv", "jsonl", "lda", "out", "FR", str(DEMO)]),
)
# a readable input and short chains, which the flags drawn after them override
_RUNNABLE = ["--input", str(DEMO), "--out", "out", "--iters", "5", "--burn-in", "1"]
_ARGV = st.tuples(
    st.sampled_from(_COMMANDS).map(lambda c: [c]) | st.lists(st.sampled_from(_COMMANDS),
                                                             max_size=2),
    st.sampled_from([[], _RUNNABLE]),
    st.lists(st.tuples(st.sampled_from(_FLAGS), _VALUES), max_size=4),
    st.just([]) | st.lists(_VALUES, max_size=1),
).map(lambda parts: [*parts[0], *parts[1], *(x for pair in parts[2] for x in pair),
                     *parts[3]])


@settings(max_examples=80, deadline=None)
@given(_ARGV)
def test_main_returns_an_exit_code_or_exits_through_argparse(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2)
        else:
            assert code in (0, 1, 2, 3)
        finally:
            os.chdir(cwd)


# ---------------------------------------------------------------- flag and file

_FLAGGED = [f for f in fields(PipelineConfig) if f.metadata["flag"] is not None]
# what both sides read the same way: no line breaks, and no outer blanks, which
# configparser strips from a value
_SETTING_TEXT = st.one_of(
    st.sampled_from(["0", "1", "-3", "1_000", "2.5", "1e3", "nan", "inf", "CSV", "xml",
                     "jsonl", "data science", "Saudi Arabia", "out", str(DEMO)]),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=6),
).map(str.strip)


def _config_or_exit_code(argv):
    try:
        return _build_config(build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse refused the flag
        return exc.code
    except CorpusScopeError as exc:
        return exc.exit_code


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FLAGGED), _SETTING_TEXT)
def test_a_flag_and_its_ini_key_set_the_same_value(f, text):
    section, key = f.metadata["section"], f.metadata["key"] or f.name
    ini = {"corpus_ingest": {"input": str(DEMO)}, "report": {"out": "out"}}
    ini.setdefault(section, {})[key] = text
    with tempfile.TemporaryDirectory() as scratch:
        cfg_file = os.path.join(scratch, "run.ini")
        with open(cfg_file, "w", encoding="utf-8") as fh:
            for name, values in ini.items():
                fh.write(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        from_file = _config_or_exit_code(["run", "--config", cfg_file])
    from_flag = _config_or_exit_code(["run", "--input", str(DEMO), "--out", "out",
                                      f"{f.metadata['flag']}={text}"])
    assert from_flag == from_file
    assert isinstance(from_flag, PipelineConfig) or from_flag == 2
