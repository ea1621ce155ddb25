import ctypes
import fnmatch
import re
import shutil
import subprocess
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import needs_compiler
from corpus_scope import _native, lda


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


def test_each_kernel_is_declared_from_its_c_definition():
    declared = _native.signatures(_native.SOURCE.read_text(encoding="utf-8"))
    i64, f64, char, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_char, ctypes.c_void_p
    # an array the kernel reads (const elements), and one it writes
    r_i32, r_i64, r_f64 = (_native.ARRAYS[t, False] for t in ("int32", "int64", "float64"))
    w_i32, w_i64, w_u32, w_f64, w_u8 = (_native.ARRAYS[t, True]
                                        for t in ("int32", "int64", "uint32", "float64", "uint8"))
    assert declared["gibbs_chain"] == (i64, [i64, r_i64, r_i32, w_i32, i64, i64, w_i64, w_i64,
                                             w_i64, w_f64, f64, f64, f64, w_u32, r_f64, i64, f64,
                                             i64, w_f64])
    assert declared["word_table_new"] == (ptr, [])
    assert declared["word_table_free"] == (None, [ptr])
    # a const void * is an address too, and so is a returned pointer
    assert declared["word_chars"] == (ptr, [ptr, i64, w_i64])
    assert declared["sum_at"] == (f64, [r_f64, r_i64, i64])
    # an unnamed parameter, int64_t /* n_cols */
    assert declared["csr_matvec"] == (None, [i64, i64, r_i32, r_i32, r_f64, r_f64, w_f64])
    # a char * buffer is a uint8 array; a char by value is a c_char
    assert declared["format_ints"] == (i64, [r_i64, i64, r_i64, i64, char, w_u8])
    assert declared["format_doubles"] == (i64, [r_f64, i64, r_i64, i64, char, w_u8])
    assert "is_word" not in declared  # a static helper inside extern "C"


@pytest.mark.parametrize("ctype", ["int", "size_t", "float", "struct pair", "float *",
                                   "size_t *"])
def test_a_kernel_type_ctypes_cannot_declare_is_refused_not_run_in_python(ctype, tmp_path,
                                                                          monkeypatch):
    # without this, ctypes would pass an int as int64_t, or a float32 array
    # to a float *, without an error
    for definition in [f"int64_t scale({ctype} x)", f"{ctype} scale(int64_t n)"]:
        source = tmp_path / "_native.cpp"
        source.write_text(f'extern "C" {{\n\n{definition}\n{{\n}}\n\n}} /* extern "C" */\n')
        monkeypatch.setattr(_native, "SOURCE", source)
        with pytest.raises(ValueError, match=re.escape(f"scale takes or returns '{ctype}'")):
            _native.library.__wrapped__()


def test_an_extern_c_block_without_its_closing_comment_is_refused():
    with pytest.raises(ValueError, match="without its comment"):
        _native.signatures('extern "C" {\n\nvoid f(void)\n{\n}\n\n}\n')


@needs_compiler
def test_every_compiled_kernel_is_declared():
    # the library's unmangled functions (nm comes with g++'s binutils) are
    # its extern "C" ones; without argtypes, ctypes would pass an int64_t
    # argument as a C int and cut its sizes at 2**31 without an error
    lib = native_library()
    symbols = subprocess.run(["nm", "-D", "--defined-only", lib._name], capture_output=True,
                             text=True, check=True).stdout
    exported = {name for kind, name in re.findall(r"^\w+ ([A-Za-z]) (\w+)$", symbols, re.M)
                if kind == "T" and not name.startswith("_Z")}
    declared = _native.signatures(_native.SOURCE.read_text(encoding="utf-8"))
    assert set(declared) == exported
    for name, (restype, argtypes) in declared.items():
        assert (getattr(lib, name).restype, getattr(lib, name).argtypes) == (restype, argtypes)
        # one array type per (dtype, writable), which every kernel shares
        for argtype in argtypes:
            if issubclass(argtype, _native.Array):
                assert argtype is _native.ARRAYS[argtype.dtype.name, argtype.writable]


KERNELS = _native.signatures(_native.SOURCE.read_text(encoding="utf-8"))
# same element size, other kind: a raw address would be read without an error
OTHER_DTYPE = {"int32": "uint32", "uint32": "int32", "int64": "float64", "float64": "int64",
               "uint8": "int8"}


@needs_compiler
@pytest.mark.parametrize("name,index", [
    pytest.param(name, i, id=f"{name}-{i}") for name, (_, argtypes) in KERNELS.items()
    for i, argtype in enumerate(argtypes) if issubclass(argtype, _native.Array)
])
def test_a_kernel_refuses_an_array_it_cannot_read_before_it_runs(name, index):
    lib = native_library()
    kernel, argtypes = getattr(lib, name), KERNELS[name][1]
    table = lib.word_table_new()
    try:
        # every count and length 0, every array 1024 elements of its type:
        # arguments each kernel takes without reading or writing an element
        args = [np.full(1024, 3, argtype.dtype) if issubclass(argtype, _native.Array)
                else table if argtype is ctypes.c_void_p else b"," if argtype is ctypes.c_char
                else 0 for argtype in argtypes]
        kernel(*args)
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        before = [a.copy() for a in arrays]
        array = argtypes[index]
        read_only = np.full(1024, 3, array.dtype)
        read_only.flags.writeable = False
        spoiled = [np.full(1024, 3, OTHER_DTYPE[array.dtype.name]),
                   np.full(2048, 3, array.dtype)[::2]] + [read_only] * array.writable
        for bad in spoiled:
            with pytest.raises(ctypes.ArgumentError, match=f"^argument {index + 1}: "):
                kernel(*args[:index], bad, *args[index + 1:])
            assert all(map(np.array_equal, arrays, before)) and (bad == 3).all()
        if not array.writable:  # a const array may be read-only
            kernel(*args[:index], read_only, *args[index + 1:])
    finally:
        lib.word_table_free(table)


def test_every_compiled_kernel_has_a_caller():
    # a kernel that no code reads as lib.<name> would stay compiled, unused
    root = Path(__file__).resolve().parents[1]
    callers = [p for p in [*root.glob("src/corpus_scope/*.py"), *root.glob("tests/*.py")]
               if p.name != "_native.py"]
    text = "\n".join(p.read_text(encoding="utf-8") for p in callers)
    declared = _native.signatures(_native.SOURCE.read_text(encoding="utf-8"))
    assert [name for name in declared if not re.search(rf"\.{name}\b", text)] == []


# ------------------------------------------------------------ the chain's pieces
# Oracles for the pieces the native Gibbs chain is built from: each must give
# the bits of the Python function or the numpy call it replaces.


def native_library():
    lib = _native.library()
    assert lib is not None
    return lib


def lgam_each(values):
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = np.empty_like(values)
    native_library().lgam_each(values, values.size, out)
    return out


def python_gammaln(values):
    return np.array([lda.gammaln(v) for v in values.tolist()])


@needs_compiler
def test_lgam_matches_gammaln_bit_for_bit_on_every_branch():
    values = np.array([
        5e-324, 1e-300, 1e-8, 0.01, 0.5, 1.0, 1.5, 1.9999999999999998, 2.0, 2.5,
        3.0, 3.0000000000000004, 7.25, 12.999999999999998, 13.0, 13.5, 999.9999999999999,
        1000.0, 1234.5, 99999999.99999999, 1e8, 1.0000000000000002e8, 3.7e150,
        2.556348e305, 2.5563480000000004e305, 1e308, np.inf, np.nan,
    ])
    assert lgam_each(values).tobytes() == python_gammaln(values).tobytes()
    for beta in (0.01, 0.37, 1e-3, 0.5):
        values = np.arange(20000) + beta
        assert lgam_each(values).tobytes() == python_gammaln(values).tobytes()
    # lda.gammaln raises below and at 0; the native twin gives NaN
    assert np.isnan(lgam_each([0.0, -1.0, -np.inf])).all()


@needs_compiler
@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=5e-324, max_value=1e306), max_size=50))
def test_lgam_matches_gammaln_on_any_positive_double(values):
    values = np.array(values, dtype=np.float64)
    assert lgam_each(values).tobytes() == python_gammaln(values).tobytes()


def sum_at(table, index):
    table = np.ascontiguousarray(table, dtype=np.float64)
    index = np.ascontiguousarray(index, dtype=np.int64)
    return native_library().sum_at(table, index, index.size)


def spread_values(seed, n):
    """n doubles over twelve orders of magnitude, so the order of a sum shows."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)


@needs_compiler
@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(0, 2000), st.sampled_from([7, 8, 128, 129, 136, 8191, 8192, 8193])),
       st.integers(0, 2**32 - 1))
def test_sum_at_adds_in_numpys_order(n, seed):
    values = spread_values(seed, n)
    assert sum_at(values, np.arange(n)) == np.sum(values)


@needs_compiler
@pytest.mark.parametrize("shape", [(85, 6), (5000, 50), (12799, 6)])
def test_sum_at_over_a_count_table_matches_the_gathered_sum(shape):
    # the log-likelihood's sum of table[n_wk], read in place
    rng = np.random.default_rng(shape[0])
    table = spread_values(shape[1], 500)
    counts = rng.integers(0, table.size, size=shape)
    assert sum_at(table, counts) == table[counts].sum()


def mt_state(seed):
    return np.array(Random(seed).getstate()[1], dtype=np.uint32)


@needs_compiler
@pytest.mark.parametrize("k", [1, 2, 6, 50, 1000, 2**32 - 1])
def test_native_topics_uniforms_and_state_follow_the_mersenne_twister(k):
    lib = native_library()
    for seed, n, m in [(0, 0, 0), (42, 1, 1), (7, 311, 312), (7, 624, 313), (2024, 5000, 1000)]:
        state, rng = mt_state(seed), Random(seed)
        topics = np.empty(n, dtype=np.int32)
        lib.draw_topics(state, k, n, topics)
        assert topics.view(np.uint32).tolist() == [rng.randrange(k) for _ in range(n)]
        assert tuple(state.tolist()) == rng.getstate()[1]
        twin_state = mt_state(seed)
        assert np.array_equal(topics, lda._draw_topics_python(twin_state, k, n))
        assert np.array_equal(twin_state, state)
        uniforms = np.empty(m)
        lib.draw_uniforms(state, m, uniforms)
        assert uniforms.tolist() == [rng.random() for _ in range(m)]
        assert tuple(state.tolist()) == rng.getstate()[1]
