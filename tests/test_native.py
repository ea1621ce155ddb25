import shutil
import subprocess

import pytest

from corpus_scope import _native


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_native_source_compiles_without_warnings(tmp_path):
    result = subprocess.run(
        ["gcc", *_native.FLAGS, "-Wall", "-Wextra", "-Werror", str(_native.SOURCE),
         "-o", str(tmp_path / "native.so")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
