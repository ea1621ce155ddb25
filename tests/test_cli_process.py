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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_scope
from conftest import SRC, child_env
from corpus_scope.cli import build_parser, main

PINS = SRC.parent / "perfbench" / "pinned_hashes.json"
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
