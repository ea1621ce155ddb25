"""The compiled kernels: one C++ source, one cached library, one loader.

``_native.cpp`` holds, for ``lda``, the Gibbs chain (``draw_topics`` and
``gibbs_chain``, on the Mersenne Twister state of a ``random.Random``, with
``lgam_each`` for its log Gamma table, and ``draw_uniforms`` and ``sum_at``
as its generator and pairwise sum alone, for the tests); for ``text_pipeline``
the word splitter and its corpus-wide word table, the token renumbering,
the document-term counts, and the integer and float table formatters; and
for ``lsa`` the CSR products ``csr_matvec`` (a row gather, P @ x) and
``csr_rmatvec`` (an ascending-row scatter, P.T @ y), and
``eigenvalue_bracket``, the Sturm bisection of the Lanczos stop test.
:func:`library` compiles it on first use into the user cache and loads it
with ctypes; when that fails it warns once and returns None, and each caller
runs its plain-Python twin instead. The bracket has none: without it the
Lanczos iteration solves every step, the path it is checked against.

Every entry point is ``extern "C"``, and :func:`_build` declares its
``argtypes`` and ``restype``, which ``tests/test_native.py`` checks against
the source. The word table and the counts use ``std::vector`` and the
formatters ``std::to_chars`` from ``<charconv>``, so the build needs g++ 11
or newer. The library links libstdc++, which numpy's core extension has
already loaded into the process. Importing the package compiles nothing:
the first call that needs a kernel does (in a run, the text stage's), and
later calls reuse the library. It is cached in
``$XDG_CACHE_HOME/corpus-scope/`` (``~/.cache/corpus-scope/`` by default)
under a SHA-256 of the source, the compiler command and the machine type.
No flag, setting or environment variable selects the backend.

Both backends write the same bytes. The two Gibbs chains evaluate the same
floating-point operations in the same order, with FMA contraction off, on
the same Mersenne Twister words: the native one with the generator's own
integer steps, the Python one through ``getrandbits`` and ``random()``.
The native log-likelihood adds in numpy's pairwise order and its ``lgam``
is ``lda.gammaln`` operation for operation on the same C library ``log``;
``tests/test_native.py`` checks the sum against ``np.sum``, should numpy
change its order. The tokenizers give the same token array, the counters
the same CSR arrays with the same dtypes, and the formatters the same text.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
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


def _build() -> ctypes.CDLL:
    """Compile ``_native.cpp`` if its library is not cached yet, then load it.

    The compiler writes to a temporary name that is renamed into place, so a
    concurrent run never loads a half-written library.
    """
    source = SOURCE.read_bytes()
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
    # plain addresses: each caller checks dtypes, layout and ranges itself
    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    lib.gibbs_chain.argtypes = [i64, ptr, ptr, ptr, i64, i64, ptr, ptr, ptr, ptr,
                                f64, f64, f64, ptr, ptr, i64, f64, i64, ptr]
    lib.gibbs_chain.restype = i64
    lib.draw_topics.argtypes = [ptr, i64, i64, ptr]
    lib.draw_topics.restype = None
    lib.draw_uniforms.argtypes = [ptr, i64, ptr]
    lib.draw_uniforms.restype = None
    lib.lgam_each.argtypes = [ptr, i64, ptr]
    lib.lgam_each.restype = None
    lib.sum_at.argtypes = [ptr, ptr, i64]
    lib.sum_at.restype = f64
    lib.word_table_new.argtypes = []
    lib.word_table_new.restype = ptr
    lib.word_table_free.argtypes = [ptr]
    lib.word_table_free.restype = None
    lib.intern_words.argtypes = [ptr, ptr, i64, ptr, ptr, ptr, i64, ptr, ptr]
    lib.intern_words.restype = i64
    lib.word_chars.argtypes = [ptr, i64, ctypes.POINTER(i64)]
    lib.word_chars.restype = ptr
    lib.remap_tokens.argtypes = [ptr, i64, ptr, i64, ptr, i64, ptr, ptr]
    lib.remap_tokens.restype = i64
    lib.count_dtm.argtypes = [ptr, i64, ptr, i64, ptr, i64, i64, ptr, ptr, ptr, ptr, ptr]
    lib.count_dtm.restype = i64
    for product in (lib.csr_matvec, lib.csr_rmatvec):
        product.argtypes = [i64, i64, ptr, ptr, ptr, ptr, ptr]
        product.restype = None
    lib.eigenvalue_bracket.argtypes = [ptr, ptr, i64, i64, ptr]
    lib.eigenvalue_bracket.restype = i64
    for formatter in (lib.format_ints, lib.format_doubles):
        formatter.argtypes = [ptr, i64, ptr, i64, ctypes.c_char, ptr]
        formatter.restype = i64
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
