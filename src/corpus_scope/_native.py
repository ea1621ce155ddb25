"""The compiled kernels: one C++ source, one cached library, one loader.

``_native.cpp`` holds the kernels that ``lda``, ``text_pipeline`` and
``lsa`` call, and its header lists them. :func:`library` compiles it on
first use into the user cache and loads it with ctypes; when that fails it
warns once and returns None, and each caller runs its plain-Python twin
instead. ``eigenvalue_bracket`` has none: without it the Lanczos iteration
solves every step, the path it is checked against. Both backends write the
same bytes; each kernel's comment says how it matches its twin.

Each function of an ``extern "C"`` block is an entry point, declared to
ctypes from its definition by :func:`signatures`. A pointer parameter to
``int32_t``, ``int64_t``, ``uint32_t``, ``uint8_t``, ``char`` (uint8) or
``double`` takes a C-contiguous numpy array of that dtype, writable unless
the elements are ``const``; any other argument raises
``ctypes.ArgumentError`` before the kernel runs. The caller checks the
shapes and index ranges. A ``void *`` (the word table) and a returned
pointer are plain addresses.

The word table and the counts use ``std::vector`` and the formatters
``std::to_chars`` from ``<charconv>``, so the build needs g++ 11 or newer.
The library links libstdc++, which numpy's core extension has already
loaded into the process. Importing the package compiles nothing: the first
call that needs a kernel does (in a run, the text stage's), and later calls
reuse the library. It is cached in ``$XDG_CACHE_HOME/corpus-scope/``
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

import numpy as np

logger = logging.getLogger(__name__)

# compiled once per (source, command, machine) into the user cache. FMA
# contraction or -ffast-math would round the Gibbs sampling weights
# differently from Python and change the chain.
SOURCE = Path(__file__).with_name("_native.cpp")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def compile_command(source: str, output: str) -> list[str]:
    """The compiler call that builds ``source`` (``-`` for stdin) into ``output``."""
    return ["g++", "-std=c++17", *FLAGS, "-x", "c++", source, "-o", output]


# the C types an entry point may take or return by value, and the dtype of
# each element type a pointer parameter may point to
_CTYPES = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "char": ctypes.c_char,
           "void": None}
_DTYPES = {"int32_t": "int32", "int64_t": "int64", "uint32_t": "uint32", "uint8_t": "uint8",
           "char": "uint8", "double": "float64"}


class Array:
    """The ctypes argument type of a pointer to ``dtype`` elements, ``const``
    unless ``writable``: it passes an array's address as the module's
    docstring says, and refuses anything else with TypeError."""

    @classmethod
    def from_param(cls, array):
        if not (isinstance(array, np.ndarray) and array.dtype == cls.dtype
                and array.flags.c_contiguous and (array.flags.writeable or not cls.writable)):
            raise TypeError(f"takes a C-contiguous{' writable' * cls.writable} {cls.dtype} array")
        return ctypes.c_void_p(array.ctypes.data)


# one argument type per (dtype name, writable), which every kernel shares
ARRAYS = {(dtype, writable): type(f"{'' if writable else 'const_'}{dtype}_array", (Array,),
                                  {"dtype": np.dtype(dtype), "writable": writable})
          for dtype in set(_DTYPES.values()) for writable in (False, True)}


def _ctype(declaration: str, kernel: str, returned: bool = False):
    """The ctypes type of a C type: a value's, an :class:`Array` for a
    pointer to elements, or a plain address for ``void *`` and a result."""
    words = declaration.replace("*", " * ").split()
    ctype = " ".join(word for word in words if word != "const")
    if ctype in _CTYPES:
        return _CTYPES[ctype]
    element = ctype.removesuffix(" *")
    if element != ctype and (element == "void" or element in _DTYPES):
        if element == "void" or returned:
            return ctypes.c_void_p
        return ARRAYS[_DTYPES[element], "const" not in words[:words.index("*")]]
    raise ValueError(f"{SOURCE.name}: {kernel} takes or returns {ctype!r}, which has no "
                     "ctypes type here; use int64_t, double or char, or a pointer to "
                     "void, int32_t, int64_t, uint32_t, uint8_t, char or double")


def signatures(source: str) -> dict[str, tuple[type | None, list[type]]]:
    """Each function that ``source`` defines in its ``extern "C"`` blocks,
    which are the library's entry points, with its ctypes ``restype`` and
    ``argtypes``; a ``static`` helper there is not one. Any other type than
    those :func:`_ctype` maps raises ValueError, which :func:`library`
    passes on instead of falling back."""
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
            argtypes = [_ctype(re.sub(r"(\w[\s*]+)\w+\s*$", r"\1", p), name) for p in params]
            declared[name] = (_ctype(result, name, returned=True), argtypes)
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
