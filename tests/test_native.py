import fnmatch
import shutil
import subprocess
from pathlib import Path

import pytest

from corpus_scope import _native


@pytest.mark.skipif(shutil.which("g++") is None, reason="no C++ compiler")
def test_native_source_compiles_without_warnings(tmp_path):
    # the loader's own command, so a flag it adds is checked here too
    command = _native.compile_command(str(_native.SOURCE), str(tmp_path / "native.so"))
    result = subprocess.run([*command, "-Wall", "-Wextra", "-Werror"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_wheel_ships_the_native_source():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    patterns = config["tool"]["setuptools"]["package-data"]["corpus_scope"]
    assert any(fnmatch.fnmatch(_native.SOURCE.name, p) for p in patterns), patterns
