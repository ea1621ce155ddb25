"""The compiled kernels: one C++ source, one cached library, one loader.

``_native.cpp`` holds the kernels that ``lda``, ``text_pipeline`` and
``lsa`` call, and its header lists them. :func:`library` compiles it on
first use into the user cache and loads it with ctypes; when that fails it
warns once and returns None, and each caller runs its plain-Python twin
instead. ``eigenvalue_bracket`` has none: without it the Lanczos iteration
solves every step, the path it is checked against. Both backends write the
same bytes; each kernel's comment says how it matches its twin.

Each function of an ``extern "C"`` block is an entry point, declared to
ctypes from its definition by :func:`signatures`. The word table and the
counts use ``std::vector`` and the formatters ``std::to_chars`` from
``<charconv>``, so the build needs g++ 11 or newer. The library links
libstdc++, which numpy's core extension has already loaded into the
process. Importing the package compiles nothing: the first call that needs
a kernel does (in a run, the text stage's), and later calls reuse the
library. It is cached in ``$XDG_CACHE_HOME/corpus-scope/``
(``~/.cache/corpus-scope/`` by default) under a SHA-256 of the source, the
compiler command and the machine type. No flag, setting or environment
variable selects the backend.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
import re
from pathlib import Path

logger = logging.getLogger(__name__)

# compiled once per (source, command, machine) into the user cache. FMA
# contraction or -ffast-math would round the Gibbs sampling weights
# differently from Python and change the chain.
SOURCE = Path(__file__).with_name("_native.cpp")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def compile_command(source: str, output: str) -> list[str]:
    """The compiler call that builds ``source`` (``-`` for stdin) into ``output``."""
    return ["g++", "-std=c++17", *FLAGS, "-x", "c++", source, "-o", output]


# the C types an entry point may take or return; a pointer is a plain
# address, since each caller checks dtypes, layout and ranges itself
_CTYPES = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "char": ctypes.c_char,
           "void": None}


def _ctype(declaration: str, kernel: str):
    """The ctypes type of a C type, ``const`` dropped."""
    ctype = " ".join(word for word in declaration.split() if word != "const")
    if "*" not in ctype and ctype not in _CTYPES:
        raise ValueError(f"{SOURCE.name}: {kernel} takes or returns {ctype!r}, which has "
                         "no ctypes type here; use int64_t, double, char or a pointer")
    return ctypes.c_void_p if "*" in ctype else _CTYPES[ctype]


def signatures(source: str) -> dict[str, tuple[type | None, list[type]]]:
    """Each function that ``source`` defines in its ``extern "C"`` blocks,
    which are the library's entry points, with its ctypes ``restype`` and
    ``argtypes``; a ``static`` helper there is not one. A type other than
    ``int64_t``, ``double``, ``char`` or a pointer (a plain address) raises
    ValueError, which :func:`library` passes on instead of falling back."""
    blocks = re.findall(r'^extern "C" \{$(.*?)^\} /\* extern "C" \*/$', source, re.M | re.S)
    if len(blocks) != len(re.findall(r'^extern "C" \{$', source, re.M)):
        raise ValueError(f'{SOURCE.name}: an extern "C" block ends without its comment')
    declared = {}
    for block in blocks:
        block = re.sub(r"/\*.*?\*/|//[^\n]*", " ", block, flags=re.S)
        for result, name, params in re.findall(
                r"^(?!static\b)([A-Za-z][\w\s*]*?)\b(\w+)\(([^)]*)\)\s*\{", block, re.M):
            params = [] if params.strip() in ("", "void") else params.split(",")
            # a parameter's name, when it has one, is its last word
            argtypes = [_ctype(re.sub(r"\s+\w+$", "", p.strip()), name) for p in params]
            declared[name] = (_ctype(result, name), argtypes)
    return declared


def _build() -> ctypes.CDLL:
    """Compile ``_native.cpp`` if its library is not cached yet, then load it.

    The compiler writes to a temporary name that is renamed into place, so a
    concurrent run never loads a half-written library.
    """
    source = SOURCE.read_bytes()
    # parsed before the compiler runs, so a kernel ctypes cannot declare fails fast
    declared = signatures(source.decode("utf-8"))
    command = " ".join(compile_command("-", "")).encode()
    machine = platform.machine().encode()
    key = hashlib.sha256(b"\0".join([source, command, machine])).hexdigest()
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    cache = Path(base) / "corpus-scope"
    path = cache / f"native-{key[:24]}.so"
    if not path.is_file():
        # imported here: a run that finds the library cached never loads them
        import subprocess
        import tempfile

        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=cache)
        os.close(fd)
        try:
            subprocess.run(compile_command("-", tmp), input=source,
                           capture_output=True, check=True, timeout=120)
            os.replace(tmp, path)
        except subprocess.CalledProcessError as exc:
            detail = exc.stderr.decode(errors="replace").strip()
            raise OSError(f"g++ failed: {detail}") from exc
        except subprocess.SubprocessError as exc:  # the timeout
            raise OSError(f"g++ failed: {exc}") from exc
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in declared.items():
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    return lib


@functools.cache
def library() -> ctypes.CDLL | None:
    """The compiled kernels, or None (after one warning) when unavailable."""
    try:
        return _build()
    except (OSError, AttributeError) as exc:
        logger.warning(
            "compiled kernels unavailable, running the Python sweep, "
            "tokenizer, CSR products and number formatters: %s", exc
        )
        return None


def backend() -> str:
    """The kernels this process runs: ``native`` or ``python``."""
    return "python" if library() is None else "native"
