import contextlib
import ctypes
import json
import platform
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from shiftlab import rng
from shiftlab.rng import (BLOCK, block_rows, color_matrix, derive_seed, mix_counters,
                          pattern_counts, uniform_colors)

KS = [1, 2, 3, 5, 6, 256, 257]  # 6: even but no power of two; 257: int64 colors
KERNEL_KS = [k for k in KS if k <= 256]  # the colors the kernel writes, one byte each
U64_MAX = (1 << 64) - 1


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _reference(seed, a, b, k=None):
    """The stream written out apart from rng: the oracle for the C kernel and
    the numpy hash.  Colors are bytes for k <= 256, int64 above."""
    with np.errstate(over="ignore"):
        ax = np.asarray(a).astype(np.uint64)
        bx = np.asarray(b).astype(np.uint64)
        h = _mix64(np.uint64(seed & U64_MAX) ^ (np.uint64(0x9E3779B97F4A7C15) * ax))
        u = _mix64(h ^ (np.uint64(0xD1B54A32D192ED03) * bx))
    if k is None:
        return u
    return (u % np.uint64(k)).astype(np.uint8 if k <= 256 else np.int64)


# the dispatching hash (the C kernel where it loads) and the numpy one it
# falls back to; every oracle test below runs against both
IMPLS = {"dispatch": rng._hash, "numpy": rng._hash_numpy}


@contextlib.contextmanager
def hashing_with(impl):
    saved = rng._hash
    rng._hash = IMPLS[impl]
    try:
        yield
    except AssertionError as exc:
        raise AssertionError(f"with the {impl} hash: {exc}") from exc
    finally:
        rng._hash = saved


def _same(got, want):
    assert type(got) is type(want)
    assert got.dtype == want.dtype and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


def test_pinned_values():
    # literals of the stream every report is pinned to
    assert color_matrix(11, 3, 8, 2, row_offset=1000).tolist() == [
        [0, 0, 1, 1, 0, 1, 1, 1], [0, 1, 1, 1, 1, 1, 1, 1], [0, 0, 1, 0, 0, 0, 1, 1]]
    assert color_matrix(11, 3, 8, 3, row_offset=1000).tolist() == [
        [1, 1, 2, 2, 2, 0, 1, 2], [1, 1, 0, 1, 0, 1, 0, 2], [0, 0, 1, 0, 2, 0, 2, 1]]
    m = mix_counters(5, 3, 9)
    assert type(m) is np.uint64 and int(m) == 16684104982754468295
    assert derive_seed(7, 0xC0) == 506512954913649082
    assert derive_seed(0, 1, 2) == 3778275988816391637


# widths on both sides of the kernel's vector loops (8 values, 64 bytes when
# counting), the golden configs' 2001, and on both sides of BLOCK
COLS = [0, 1, 7, 63, 65, 127, 129, 1000, 2001, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


@st.composite
def matrices(draw):
    cols = draw(st.sampled_from(COLS))
    # rows of BLOCK values or more are costly, so keep their count small;
    # narrow ones reach past block_rows(cols), the rows of one consumer block
    rows = draw(st.integers(0, 3 if cols >= BLOCK - 1 else 3 * block_rows(cols) // 2 + 2))
    return (draw(st.integers(0, U64_MAX)), rows, cols, draw(st.sampled_from(KS)),
            draw(st.integers(0, 1 << 40)))


@given(matrices())
@example((0, 33, 1000, 3, 5))            # 33 rows: one more than block_rows(1000)
@example((9, 2, 2 * BLOCK + 3, 5, 0))    # rows wider than two BLOCKs
@example((1, 4, 0, 2, 0))                # no columns
@settings(max_examples=60, deadline=None)
def test_color_matrix_matches_one_shot_reference(case):
    seed, rows, cols, k, row_offset = case
    r = np.arange(row_offset, row_offset + rows, dtype=np.uint64)[:, None]
    c = np.arange(cols, dtype=np.uint64)[None, :]
    for impl in IMPLS:
        with hashing_with(impl):
            _same(color_matrix(seed, rows, cols, k, row_offset=row_offset),
                  _reference(seed, r, c, k))


@given(st.integers(0, U64_MAX), st.integers(-(1 << 63), U64_MAX),
       st.integers(-(1 << 63), U64_MAX), st.sampled_from(KS))
@settings(max_examples=100, deadline=None)
def test_scalars_match_reference(seed, a, b, k):
    a_u64 = np.array(a if a >= 0 else a + (1 << 64), dtype=np.uint64)
    for impl in IMPLS:
        with hashing_with(impl):
            _same(mix_counters(seed, a, b), _reference(seed, a, b))
            _same(uniform_colors(seed, a, b, k), _reference(seed, a, b, k))
            _same(uniform_colors(seed, a_u64, b, k), _reference(seed, a, b, k))


@given(st.integers(0, U64_MAX),
       st.lists(st.integers(-(1 << 63), U64_MAX) | st.integers(-3, 300), max_size=4))
@example(0, [])
@example(U64_MAX, [-1, -(1 << 63), 1 << 63, U64_MAX])
@settings(max_examples=300, deadline=None)
def test_derive_seed_matches_the_numpy_chain(seed, indices):
    # derive_seed hashes in Python ints; the numpy hash is its oracle
    want = seed
    for ix in indices:
        want = int(rng._hash_numpy(want, ix, 0x5EED, None))
    got = derive_seed(seed, *indices)
    assert type(got) is int and got == want


@given(st.integers(0, U64_MAX), st.integers(0, 3 * BLOCK + 5), st.sampled_from(KS))
@example(3, 3 * BLOCK + 5, 3)
@settings(max_examples=25, deadline=None)
def test_long_vectors_match_reference(seed, n, k):
    # both counters full length, as in tape rows: the first round runs on the
    # whole vector, not once per row
    points = np.arange(n, dtype=np.int64)
    ts = (points % 7).astype(np.uint64)  # uint64 input is hashed without a cast
    before = (points.copy(), ts.copy())
    for impl in IMPLS:
        with hashing_with(impl):
            _same(uniform_colors(seed, points, ts, k), _reference(seed, points, ts, k))
            _same(mix_counters(seed, 5, points), _reference(seed, 5, points))
    assert np.array_equal(points, before[0]) and np.array_equal(ts, before[1])


def test_other_shapes_match_reference():
    a = np.arange(5, dtype=np.uint64)[:, None, None]
    b = np.arange(6)[None, :, None] * np.arange(7)
    empty = np.array([], dtype=np.int64)
    wide = np.arange(40, dtype=np.int64).reshape(5, 8)
    packed = np.zeros(9, dtype=[("pad", np.uint8), ("v", np.uint64)])  # misaligned
    packed["v"] = np.arange(9) * 977
    pairs = [
        (a, b),
        (wide[::-1, ::3], wide[1:, 1::3].T[:, 0]),    # negative and wide strides
        (wide.T, np.arange(5)),                       # column-major rows
        (np.arange(-6, 6, dtype=np.int32)[:, None], np.array([True, False])),
        (packed["v"], packed["v"][::-1]),
        (np.uint64(U64_MAX), np.arange(3)),
    ]
    for impl in IMPLS:
        with hashing_with(impl):
            for x, y in pairs:
                for k in KS:
                    _same(uniform_colors(3, x, y, k), _reference(3, x, y, k))
                _same(mix_counters(3, x, y), _reference(3, x, y))
            _same(mix_counters(3, 4, empty), _reference(3, 4, empty))
            _same(uniform_colors(3, empty[:, None], np.arange(4), 3),
                  _reference(3, empty[:, None], np.arange(4), 3))


@pytest.mark.parametrize("k", [None, 2, 3, 11, 256, 257])
def test_column_counter_constant_along_the_row_matches_numpy(k):
    # b constant along each row, 0-d as in tape row 0 or a column: the kernel
    # multiplies B*b once per row; rows of 1003 values run its vector loop
    # and a ragged tail.  Raw words and k > 256 are numpy's alone.
    a = np.arange(1003, dtype=np.uint64) + np.uint64(1 << 40)
    column = np.arange(3, dtype=np.uint64)[:, None] * np.uint64(977)
    for x, y in ((a, np.uint64(0)), (a, U64_MAX), (a, column), (a[None, :], column)):
        want = rng._hash_numpy(5, x, y, k)
        _same(want, _reference(5, x, y, k))
        _same(rng._hash(5, x, y, k), want)  # the kernel where it loads and k <= 256


def test_row_counters_wrap_past_2_64():
    # 300 rows of 200 colors are two numpy blocks, the second starting past
    # 2^64 - 1; numpy wraps the row counter as the C kernel does
    case = (5, 300, 200, 2, [slice(0, 5)], (1,), (2, 5), U64_MAX - 10)
    assert 10 < block_rows(200) < 300
    _same(rng._count_numpy(*case), pattern_counts(*case))
    wrapped = color_matrix(3, 4, 9, 3, row_offset=U64_MAX - 1)
    _same(wrapped[:2], color_matrix(3, 2, 9, 3, row_offset=U64_MAX - 1))
    _same(wrapped[2:], color_matrix(3, 2, 9, 3))


# -- the compiled kernel's loader ------------------------------------------------


def _fresh_kernel(monkeypatch, cache, built=None):
    """Forget the loaded kernel and cache it under `cache` only.  Given
    `built`, a compiled kernel, `_build` copies that file where the compiler
    would write its output, instead of compiling."""
    monkeypatch.setattr(rng, "_kernel", None)
    monkeypatch.setattr(rng, "_kernel_info", {})
    monkeypatch.setattr(rng, "_planes", 0)
    monkeypatch.setattr(rng, "_cache_dirs", lambda: iter([cache]))
    if built is not None:
        def compile_by_copy(cmd, **kwargs):
            shutil.copyfile(built, cmd[cmd.index("-o") + 1])

        monkeypatch.setattr(subprocess, "run", compile_by_copy)


def _compiler_on_path() -> bool:
    cc = sysconfig.get_config_var("CC")
    return bool(cc) and shutil.which(shlex.split(cc)[0]) is not None


@pytest.fixture(scope="session")
def built_kernel():
    """The kernel library this test process resolved, compiled at most once
    per session (None where numpy serves).  The loader tests below build by
    copying it, and only test_unwritable_cache_directory_is_skipped compiles."""
    if not rng._resolve_kernel():
        return None
    name = f"_hash-{rng._kernel_key()}.so"
    return next(p for d in rng._cache_dirs() if (p := d / name).exists())


def test_failed_build_falls_back_to_numpy(monkeypatch, tmp_path):
    def fail(cmd, **kwargs):
        raise subprocess.CalledProcessError(1, cmd)

    _fresh_kernel(monkeypatch, tmp_path)
    monkeypatch.setattr(subprocess, "run", fail)
    r = np.arange(7, 12, dtype=np.uint64)[:, None]
    c = np.arange(300, dtype=np.uint64)[None, :]
    _same(color_matrix(4, 5, 300, 3, row_offset=7), _reference(4, r, c, 3))
    assert derive_seed(7, 0xC0) == 506512954913649082
    meta = rng._kernel_meta()
    assert meta["rng_kernel"] == "numpy" and meta["rng_kernel_built"] is False
    assert rng._kernel is False and list(tmp_path.iterdir()) == []


def test_unwritable_cache_directory_is_skipped(monkeypatch, tmp_path):
    (tmp_path / "file").write_text("")
    _fresh_kernel(monkeypatch, tmp_path)
    monkeypatch.setattr(rng, "_cache_dirs",
                        lambda: iter([tmp_path / "file" / "sub", tmp_path / "ok"]))
    uniform_colors(1, 2, np.arange(3), 2)
    meta = rng._kernel_meta()
    if not _compiler_on_path():
        pytest.skip("no C compiler on PATH")
    assert meta["rng_kernel"] == "c" and meta["rng_kernel_built"] is True
    assert [p.suffix for p in (tmp_path / "ok").iterdir()] == [".so"]


@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
def test_c_kernel_is_active_where_a_compiler_is_on_path():
    # a silent fallback to numpy would keep every other test green
    uniform_colors(1, 2, np.arange(3), 2)
    assert rng._kernel_meta()["rng_kernel"] == "c"


@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
def test_build_removes_stale_kernels(monkeypatch, tmp_path, built_kernel):
    (tmp_path / "_hash-stale.so").write_bytes(b"old build")
    (tmp_path / "other.so").write_bytes(b"not a kernel")
    _fresh_kernel(monkeypatch, tmp_path, built_kernel)
    uniform_colors(1, 2, np.arange(3), 2)
    assert rng._kernel_meta()["rng_kernel_built"] is True
    built = [p.name for p in tmp_path.glob("_hash-*.so")]
    assert len(built) == 1 and built[0] != "_hash-stale.so"
    assert (tmp_path / "other.so").exists()


def test_kernel_is_resolved_by_the_first_hash_of_several_values(monkeypatch, tmp_path,
                                                               built_kernel):
    _fresh_kernel(monkeypatch, tmp_path, built_kernel)
    assert rng._kernel_meta() == {"rng_kernel": "none"}
    # single values, raw words and k > 256 are hashed by numpy and load nothing
    assert derive_seed(7, 0xC0) == 506512954913649082
    _same(uniform_colors(3, [[4]], 5, 3), _reference(3, [[4]], 5, 3))
    _same(mix_counters(3, 4, [5, 6]), _reference(3, 4, [5, 6]))
    _same(uniform_colors(3, 4, [5, 6], 257), _reference(3, 4, [5, 6], 257))
    assert rng._kernel_meta() == {"rng_kernel": "none"}
    assert list(tmp_path.iterdir()) == []
    _same(uniform_colors(3, 4, [5, 6], 256), _reference(3, 4, [5, 6], 256))
    assert rng._kernel_meta()["rng_kernel"] in ("c", "numpy")


def _library_with(name, corrupt):
    """A ctypes.CDLL stand-in whose entry point `name` runs the real one and
    then passes its arguments to `corrupt`; the other entry points are real."""
    real_cdll = ctypes.CDLL

    class Library:
        def __init__(self, path):
            self.real = real_cdll(path)
            fn = getattr(self.real, name)

            def wrong(*args):
                fn.argtypes, fn.restype = wrong.argtypes, wrong.restype
                fn(*args)
                corrupt(args)

            setattr(self, name, wrong)

        def __getattr__(self, attr):
            return getattr(self.real, attr)

    return Library


@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
def test_kernel_wrong_where_a_varies_along_the_row_is_not_used(monkeypatch, tmp_path,
                                                               built_kernel):
    # the load check must cover both loops of the kernel, not only the one
    # that hashes a row counter's first round once
    def flip_first_value(args):
        if args[3]:  # a's column stride
            ctypes.c_uint8.from_address(args[-1]).value ^= 1

    _fresh_kernel(monkeypatch, tmp_path, built_kernel)
    monkeypatch.setattr(ctypes, "CDLL", _library_with("shiftlab_hash", flip_first_value))
    _same(uniform_colors(3, np.arange(8), 7, 5), _reference(3, np.arange(8), 7, 5))
    assert rng._kernel_meta()["rng_kernel"] == "numpy"


@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
def test_kernel_wrong_where_both_counters_vary_along_the_row_is_not_used(monkeypatch,
                                                                        tmp_path,
                                                                        built_kernel):
    # the plane of tape_consistency and of every resampling step: points and
    # their resample counts, both read along the row
    def flip_first_value(args):
        if args[3] and args[6]:  # a's and b's column strides
            ctypes.c_uint8.from_address(args[-1]).value ^= 1

    _fresh_kernel(monkeypatch, tmp_path, built_kernel)
    monkeypatch.setattr(ctypes, "CDLL", _library_with("shiftlab_hash", flip_first_value))
    points, ts = np.arange(8), np.arange(8) % 3
    _same(uniform_colors(3, points, ts, 5), _reference(3, points, ts, 5))
    assert rng._kernel_meta()["rng_kernel"] == "numpy"


def _counts_reference(seed, rows, cols, k, selectors, phi, ends, row_offset):
    """pattern_counts from one one-shot color matrix, an end at a time."""
    # row_offset + r wraps past 2^64 - 1 as the kernel's row counter does
    r = (np.arange(rows, dtype=np.uint64) + np.uint64(row_offset))[:, None]
    colors = _reference(seed, r, np.arange(cols, dtype=np.uint64)[None, :], k)
    match = np.logical_and.reduce([colors[:, sel] == c for sel, c in zip(selectors, phi)])
    return np.stack([match[:, :e].sum(axis=1) for e in ends], axis=1).astype(np.int64)


def _flip_first_count(args):
    ctypes.c_int64.from_address(args[-1]).value ^= 1


def _assert_falls_back_with_wrong_counts(monkeypatch, tmp_path, built, corrupt):
    _fresh_kernel(monkeypatch, tmp_path, built)
    monkeypatch.setattr(ctypes, "CDLL", _library_with("shiftlab_count", corrupt))
    case = (3, 50, 12, 3, [slice(4, 12), slice(0, 8)], (1, 2), (3, 8), 5)
    _same(pattern_counts(*case), _counts_reference(*case))
    assert rng._kernel_meta()["rng_kernel"] == "numpy" and rng._kernel is False


@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
def test_kernel_with_a_wrong_count_is_not_used(monkeypatch, tmp_path, built_kernel):
    # one kernel, one verdict: a wrong counting loop disables the hash too
    _assert_falls_back_with_wrong_counts(monkeypatch, tmp_path, built_kernel, _flip_first_count)


@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
def test_kernel_off_by_one_at_an_end_inside_a_block_is_not_used(monkeypatch, tmp_path,
                                                                built_kernel):
    # a prefix that also counts the position at its first end that lies
    # inside a 64-byte block and short of the last end: every count at the
    # last end, and so every call with one end, stays right
    def count_one_more_inside_a_block(args):
        rows, ends, ne = args[2], args[8], args[9]
        at = np.ctypeslib.as_array((ctypes.c_ssize_t * ne).from_address(ends))
        inside = np.flatnonzero(at[:-1] % 64)
        if inside.size:
            counts = (ctypes.c_int64 * (rows * ne)).from_address(args[-1])
            np.ctypeslib.as_array(counts).reshape(rows, ne)[:, inside[0]] += 1

    _assert_falls_back_with_wrong_counts(monkeypatch, tmp_path, built_kernel,
                                         count_one_more_inside_a_block)


@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
def test_kernel_wrong_only_past_column_64_is_not_used(monkeypatch, tmp_path, built_kernel):
    # a wide copy whose 64-byte vector loop is wrong and whose tail is right
    # gets only the counts over more than 64 columns wrong
    def flip_first_wide_count(args):
        ends, ne = args[8], args[9]
        if ctypes.c_ssize_t.from_address(ends + 8 * (ne - 1)).value > 64:  # d, the last end
            _flip_first_count(args)

    _assert_falls_back_with_wrong_counts(monkeypatch, tmp_path, built_kernel,
                                         flip_first_wide_count)


# a later process that must not compile or load the kernel cached in argv[1]
LATER_PROCESS = """
import ctypes, json, sys
from pathlib import Path
import numpy as np
from shiftlab import rng

def refuse(*args, **kwargs):
    raise AssertionError("a rejected kernel was compiled or loaded")

rng._cache_dirs = lambda: iter([Path(sys.argv[1])])
rng._build = ctypes.CDLL = refuse
rng.uniform_colors(1, 2, np.arange(3), 2)
print(json.dumps(rng._kernel_meta()))
"""


@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
def test_rejected_kernel_is_deleted_and_not_tried_again(monkeypatch, tmp_path, built_kernel):
    isa = rng._kernel_info.get("rng_kernel_isa")
    if isa != rng._cpu_copy():
        pytest.skip("the compiler builds no copy of the kernel for this CPU's AVX-512")
    _assert_falls_back_with_wrong_counts(monkeypatch, tmp_path, built_kernel, _flip_first_count)
    assert rng._kernel_meta()["rng_kernel_built"] is True  # compiled, then rejected
    assert [p.name for p in tmp_path.iterdir()] == [f"_hash-{rng._kernel_key()}-{isa}.rejected"]
    monkeypatch.undo()
    later = subprocess.run([sys.executable, "-c", LATER_PROCESS, str(tmp_path)],
                           capture_output=True, text=True, timeout=120)
    assert later.returncode == 0, later.stderr
    meta = json.loads(later.stdout)
    assert meta["rng_kernel"] == "numpy" and meta["rng_kernel_built"] is False


@st.composite
def count_cases(draw):
    k = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 256, 257]))  # 257: the numpy path
    ns, d = draw(st.integers(1, 3)), draw(st.integers(1, 200))
    starts = draw(st.lists(st.integers(0, 40), min_size=ns, max_size=ns))  # any order
    cols = max(starts) + d + draw(st.integers(0, 3))
    if draw(st.booleans()):
        selectors = [slice(s, s + d) for s in starts]
    else:  # index arrays are gathered by numpy
        selectors = [np.arange(s, s + d) for s in starts]
    phi = tuple(draw(st.lists(st.integers(0, k - 1), min_size=ns, max_size=ns)))
    ends = sorted(set(draw(st.lists(st.integers(1, d), min_size=1, max_size=4))))
    # any row offset: row_offset + r wraps past 2^64 - 1 to 0
    return (draw(st.integers(0, U64_MAX)), draw(st.integers(1, 40)), cols, k, selectors,
            phi, ends, draw(st.integers(0, U64_MAX)))


@given(count_cases())
@example((5, 3, 70, 2, [slice(6, 70), slice(0, 64)], (1, 1), (64,), (1 << 40) - 1))
@example((5, 3, 70, 3, [slice(6, 70), slice(0, 64)], (1, 2), (1, 63, 64), U64_MAX - 1))
@seed(13_013)
@settings(max_examples=150, deadline=None)
def test_pattern_counts_match_numpy(case):
    # the C loop where it loads (all slices, k <= 256) against the numpy one
    _same(pattern_counts(*case), rng._count_numpy(*case))
    _same(pattern_counts(*case), _counts_reference(*case))


@st.composite
def ends_cases(draw):
    """pattern_counts cases for the kernel: one or two slice sites, and one,
    two or many ends at, just before and just after 64-byte edges or
    anywhere in 1..d, on rows whose counters wrap past 2^64 - 1."""
    k = draw(st.sampled_from([1, 2, 3, 5, 256]))
    ns, d = draw(st.integers(1, 2)), draw(st.integers(1, 260))
    starts = draw(st.lists(st.integers(0, 70), min_size=ns, max_size=ns))
    phi = tuple(draw(st.lists(st.integers(0, k - 1), min_size=ns, max_size=ns)))
    edges = sorted({e for m in range(64, d + 2, 64) for e in (m - 1, m, m + 1) if e <= d})
    end = st.sampled_from(edges) | st.integers(1, d) if edges else st.integers(1, d)
    many = draw(st.sampled_from([1, 2, 40]))
    ends = sorted(set(draw(st.lists(end, min_size=1, max_size=many))))
    return (draw(st.integers(0, U64_MAX)), draw(st.integers(1, 12)),
            max(starts) + d + draw(st.integers(0, 3)), k, [slice(s, s + d) for s in starts],
            phi, ends, draw(st.integers(U64_MAX - 12, U64_MAX)))


@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
@given(ends_cases())
@example((7, 3, 200, 3, [slice(3, 195), slice(0, 192)], (2, 0), list(range(1, 193)),
          U64_MAX - 1))  # every end, from 1 to 3 blocks of 64
@example((7, 2, 130, 2, [slice(1, 129)], (1,), [63, 64, 65, 127, 128], U64_MAX))
@example((7, 2, 66, 5, [slice(0, 65)], (4,), [1, 65], U64_MAX - 2))
@seed(32_032)
@settings(max_examples=150, deadline=None)
def test_kernel_counts_at_window_ends_match_numpy(case):
    # every case takes the kernel's path: all slices, k <= 256
    assert rng._resolve_kernel()
    _same(pattern_counts(*case), rng._count_numpy(*case))


def test_pattern_counts_rejects_bad_patterns():
    for k, selectors, phi in ((0, [slice(0, 2)], (0,)), (2, [], ()),
                              (2, [slice(0, 2)], (0, 1)), (3, [slice(0, 2)], (3,))):
        with pytest.raises(ValueError):
            pattern_counts(1, 4, 5, k, selectors, phi, (2,))


def test_pattern_counts_rejects_bad_ends():
    # ends must ascend strictly within 1..d, d = 3 selected columns
    for ends in ((), (0,), (4,), (2, 2), (3, 1), ((1, 2),)):
        for selectors in ([slice(1, 4)], [np.arange(1, 4)]):
            with pytest.raises(ValueError, match="window ends"):
                pattern_counts(1, 4, 5, 2, selectors, (0,), ends)


def test_first_calls_from_two_threads_build_once(monkeypatch, tmp_path, built_kernel):
    builds = []
    real_build = rng._build

    def counted(cc, lib):
        builds.append(lib)
        time.sleep(0.05)  # hold the build open while the other thread arrives
        return real_build(cc, lib)

    _fresh_kernel(monkeypatch, tmp_path, built_kernel)
    monkeypatch.setattr(rng, "_build", counted)
    points = np.arange(5000)
    barrier = threading.Barrier(2)
    results = [None, None]

    def first_call(i):
        barrier.wait()
        results[i] = uniform_colors(3, points, 7, 5)

    threads = [threading.Thread(target=first_call, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert len(builds) == 1
    _same(results[0], _reference(3, points, 7, 5))
    _same(results[1], results[0])


def test_block_rows():
    assert block_rows(1) == BLOCK
    assert block_rows(1000) == BLOCK // 1000
    assert block_rows(BLOCK) == block_rows(BLOCK + 1) == block_rows(10 * BLOCK) == 1
    assert block_rows(0) == BLOCK


def test_alphabet_must_be_positive():
    with pytest.raises(ValueError):
        uniform_colors(1, 0, 0, 0)


# -- each copy of the kernel on its own ------------------------------------------

def _stripped_source(v4: bool) -> str:
    """_hash.c without its run-time dispatch: only the x86-64-v4 copy of the
    entry points runs, or only the baseline, compiled for the -march given."""
    body, n = re.subn(r"^#if defined\(__x86_64__\).*?^#endif\n", "",
                      rng._SOURCE.read_text(), flags=re.M | re.S)
    assert n == 1 and "__builtin_cpu_supports(" not in body
    return f"#define V4\n#define HAS_V4() {int(v4)}\n{body}"


@pytest.fixture(scope="module", params=["x86-64", "x86-64-v4"])
def variant(request, tmp_path_factory):
    """A dispatch-stripped build at -march=<param>, loaded and declared."""
    march = request.param
    if platform.machine() != "x86_64" or not _compiler_on_path():
        pytest.skip("needs an x86-64 host and a C compiler on PATH")
    if march == "x86-64-v4" and rng._cpu_copy() != march:
        pytest.skip("this CPU lacks AVX-512")
    src = tmp_path_factory.mktemp(march) / "hash.c"
    src.write_text(_stripped_source(march == "x86-64-v4"))
    so = src.with_suffix(".so")
    subprocess.run([*shlex.split(sysconfig.get_config_var("CC")), *rng._CFLAGS,
                    f"-march={march}", "-o", str(so), str(src)],
                   check=True, capture_output=True, timeout=120)
    lib = ctypes.CDLL(str(so))
    rng._declare(lib)
    assert lib.shiftlab_isa().decode() == ("baseline" if march == "x86-64" else march)
    return lib


# every remainder mod 8 and mod 64, below and above one 64-byte vector loop
WIDTHS = range(1, 131)


def test_each_kernel_copy_hashes_the_reference_stream(variant):
    a = np.arange(3, dtype=np.uint64)[:, None] + np.uint64(1 << 40)
    for cols in WIDTHS:
        b = np.arange(cols, dtype=np.uint64)
        # a constant along the rows, then varying, then both counters varying
        for x, y in ((a, b), (b, a), (b + np.uint64(1 << 40), b % np.uint64(7))):
            for k in KERNEL_KS:
                _same(rng._hash_c(variant.shiftlab_hash, 11, x, y, k), _reference(11, x, y, k))


def test_each_kernel_copy_counts_the_reference_counts(variant):
    row0 = 1 << 40
    for d in WIDTHS:
        cols = d + 3
        # the last position alone, a middle end with it, and every end
        for ends in ((d,), sorted({(d + 1) // 2, d}), range(1, d + 1)):
            for k in KERNEL_KS:
                for starts, phi in (((2,), (k - 1,)), ((3, 0), (0, k // 2))):  # one site, two
                    got = rng._count_c(variant.shiftlab_count, 7, 5, cols, k, starts, phi,
                                       ends, row0)
                    selectors = [slice(s, s + d) for s in starts]
                    _same(got, _counts_reference(7, 5, cols, k, selectors, phi, ends, row0))


def _v4_assembly(tmp_path) -> str:
    """The assembly of the dispatch-stripped x86-64-v4 copy, from gcc."""
    if platform.machine() != "x86_64" or shutil.which("gcc") is None:
        pytest.skip("needs an x86-64 host and gcc on PATH")
    src = tmp_path / "hash.c"
    src.write_text(_stripped_source(True))
    asm = tmp_path / "hash.s"
    subprocess.run(["gcc", *rng._CFLAGS, "-march=x86-64-v4", "-masm=att", "-S",
                    "-o", str(asm), str(src)], check=True, capture_output=True, timeout=120)
    return asm.read_text()


def test_no_counter_is_multiplied_from_memory_in_the_v4_copy(tmp_path):
    # GCC 12 folded the loads of a[c] and b[c] into `vpmullq (mem), zmm, zmm`,
    # which ran the hash loop about 4x slower than with the loaded vector in
    # a register
    text = _v4_assembly(tmp_path)
    assert re.search(r"^\s*vpmullq\s", text, re.M), "the v4 copy has no vector multiply"
    folded = re.findall(r"^\s*vpmullq\s+[^,\s]*\(.*$", text, re.M)
    assert folded == []


def test_the_v4_copy_of_count_sums_bytes_and_multiplies_at_32_bits(tmp_path):
    # the k = 3 byte-sum fold (vpsadbw) and the 32-bit multiplies (vpmuludq)
    # of count_v4_k; without them a row costs the 64-bit multiplies it saves
    functions = re.findall(r"^([\w.]+):\n(.*?)^\s*\.size\s+\1,", _v4_assembly(tmp_path),
                           re.M | re.S)
    count = "".join(body for name, body in functions if "count" in name)
    assert count, "no count function in the assembly"
    for op in ("vpsadbw", "vpmuludq"):
        assert re.search(rf"^\s*{op}\s", count, re.M), f"the v4 copy of count has no {op}"


def _fold3(z: int) -> int:
    """z % 3 as the x86-64-v4 copy of _hash.c computes it, in uint64 arithmetic."""
    s = (z >> 48) + (z >> 32 & 0xFFFF) + (z >> 16 & 0xFFFF) + (z & 0xFFFF)
    assert s < 1 << 18
    return s - 3 * ((s * 0xAAAAAAAB & U64_MAX) >> 33)


@given(st.integers(0, U64_MAX))
@example(0)
@example((1 << 16) - 1)
@example(1 << 32)
@example(U64_MAX)
@settings(max_examples=300, deadline=None)
def test_mod3_fold_is_exact(z):
    assert _fold3(z) == z % 3


def test_mod3_fold_is_exact_near_powers_of_two():
    for p in range(1, 65):
        m = (1 << p) // 3 * 3  # the largest multiple of 3 at most 2^p
        for z in (m - 3, m - 1, m, m + 1, m + 3, (1 << p) - 1):
            if 0 <= z <= U64_MAX:
                assert _fold3(z) == z % 3, z
    # every folded sum: the multiply step alone is exact below 2^18
    s = np.arange(1 << 18, dtype=np.uint64)
    assert np.array_equal(s - np.uint64(3) * (s * np.uint64(0xAAAAAAAB) >> np.uint64(33)),
                          s % np.uint64(3))


def _fold3_bytes(z: int) -> int:
    """z % 3 as the x86-64-v4 copy of count() computes it: vpsadbw sums the
    eight bytes of z, which 2^8 == 1 (mod 3) keeps congruent, and vpmuludq
    multiplies the low 32 bits of its operands into 64."""
    s = sum(z.to_bytes(8, "little"))
    assert s <= 2040
    q = (s & 0xFFFFFFFF) * 0xAAAB >> 17
    return s - (q & 0xFFFFFFFF) * 3 & U64_MAX


@given(st.integers(0, U64_MAX))
@example(0)
@example(U64_MAX)  # the largest byte sum, 2040
@example(0xFEFEFEFEFEFEFEFE)
@settings(max_examples=300, deadline=None)
def test_byte_sum_fold_is_exact(z):
    assert _fold3_bytes(z) == z % 3


def test_byte_sum_divide_is_exact_for_every_sum():
    s = np.arange(2041, dtype=np.uint64)  # every sum of eight bytes
    q = s * np.uint64(0xAAAB) >> np.uint64(17)
    assert np.array_equal(q, s // np.uint64(3))
    assert int(s.max() * np.uint64(0xAAAB)) < 1 << 32  # no product leaves vpmuludq's 32 bits


def _color2(x: int) -> int:
    """The k = 2 color of the finalizer input x as the x86-64-v4 copy of
    count() computes it: the last product at 32 bits, by the low word of M2."""
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 & U64_MAX
    x ^= x >> 27
    p = (x & 0xFFFFFFFF) * (0x94D049BB133111EB & 0xFFFFFFFF)
    return (p ^ p >> 31) & 1


@given(st.integers(0, U64_MAX))
@example(0)
@example(U64_MAX)
@settings(max_examples=300, deadline=None)
def test_low_word_product_gives_the_k2_color(x):
    assert _color2(x) == rng._fin_int(x) & 1
