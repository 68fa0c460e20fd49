import contextlib
import ctypes
import shlex
import shutil
import subprocess
import sysconfig
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import rng
from shiftlab.rng import (BLOCK, block_rows, color_matrix, derive_seed, mix_counters,
                          uniform_colors)

KS = [1, 2, 3, 5, 6, 256]  # 6: even but no power of two
U64_MAX = (1 << 64) - 1


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _reference(seed, a, b, k=None):
    """The stream in one shot over full-size arrays: the oracle for the blocked kernel."""
    with np.errstate(over="ignore"):
        ax = np.asarray(a).astype(np.uint64)
        bx = np.asarray(b).astype(np.uint64)
        h = _mix64(np.uint64(seed & U64_MAX) ^ (np.uint64(0x9E3779B97F4A7C15) * ax))
        u = _mix64(h ^ (np.uint64(0xD1B54A32D192ED03) * bx))
    return u if k is None else (u % np.uint64(k)).astype(np.int64)


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


COLS = [0, 1, 7, 1000, 2001, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


@st.composite
def matrices(draw):
    cols = draw(st.sampled_from(COLS))
    # wide rows cost a block each, so keep their count small; narrow ones
    # reach past one block of rows and end in a partial block
    rows = draw(st.integers(0, 3 if cols >= BLOCK - 1 else 3 * block_rows(cols) // 2 + 2))
    return (draw(st.integers(0, U64_MAX)), rows, cols, draw(st.sampled_from(KS)),
            draw(st.integers(0, 1 << 40)))


@given(matrices())
@example((0, 33, 1000, 3, 5))            # 33 rows: one block of 32 and one of 1
@example((9, 2, 2 * BLOCK + 3, 5, 0))    # three column blocks per row
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


@given(st.integers(0, U64_MAX), st.integers(0, 3 * BLOCK + 5), st.sampled_from(KS))
@example(3, 3 * BLOCK + 5, 3)
@settings(max_examples=25, deadline=None)
def test_long_vectors_match_reference(seed, n, k):
    # both counters full length, as in tape rows: the first round is blocked too
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


# -- the compiled kernel's loader ------------------------------------------------


def _fresh_kernel(monkeypatch, cache):
    """Forget the loaded kernel and cache it under `cache` only."""
    monkeypatch.setattr(rng, "_kernel", None)
    monkeypatch.setattr(rng, "_kernel_info", {})
    monkeypatch.setattr(rng, "_planes", 0)
    monkeypatch.setattr(rng, "_cache_dirs", lambda: iter([cache]))


def _compiler_on_path() -> bool:
    cc = sysconfig.get_config_var("CC")
    return bool(cc) and shutil.which(shlex.split(cc)[0]) is not None


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
    mix_counters(1, 2, np.arange(3))
    meta = rng._kernel_meta()
    if not _compiler_on_path():
        pytest.skip("no C compiler on PATH")
    assert meta["rng_kernel"] == "c" and meta["rng_kernel_built"] is True
    assert [p.suffix for p in (tmp_path / "ok").iterdir()] == [".so"]


@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
def test_c_kernel_is_active_where_a_compiler_is_on_path():
    # a silent fallback to numpy would keep every other test green
    mix_counters(1, 2, np.arange(3))
    assert rng._kernel_meta()["rng_kernel"] == "c"


@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
def test_build_removes_stale_kernels(monkeypatch, tmp_path):
    (tmp_path / "_hash-stale.so").write_bytes(b"old build")
    (tmp_path / "other.so").write_bytes(b"not a kernel")
    _fresh_kernel(monkeypatch, tmp_path)
    mix_counters(1, 2, np.arange(3))
    assert rng._kernel_meta()["rng_kernel_built"] is True
    built = [p.name for p in tmp_path.glob("_hash-*.so")]
    assert len(built) == 1 and built[0] != "_hash-stale.so"
    assert (tmp_path / "other.so").exists()


def test_kernel_is_resolved_by_the_first_hash_of_several_values(monkeypatch, tmp_path):
    _fresh_kernel(monkeypatch, tmp_path)
    assert rng._kernel_meta() == {"rng_kernel": "none"}
    # single values are hashed by numpy and load nothing
    assert derive_seed(7, 0xC0) == 506512954913649082
    _same(uniform_colors(3, [[4]], 5, 3), _reference(3, [[4]], 5, 3))
    assert rng._kernel_meta() == {"rng_kernel": "none"}
    assert list(tmp_path.iterdir()) == []
    _same(mix_counters(3, 4, [5, 6]), _reference(3, 4, [5, 6]))
    assert rng._kernel_meta()["rng_kernel"] in ("c", "numpy")


@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
def test_kernel_wrong_where_a_varies_along_the_row_is_not_used(monkeypatch, tmp_path):
    # the load check must cover both loops of the kernel, not only the one
    # that hashes a row counter's first round once
    real_cdll = ctypes.CDLL

    class Library:
        def __init__(self, path):
            real = real_cdll(path).shiftlab_hash

            def wrong(seed, ap, ars, acs, *rest):
                real.argtypes, real.restype = wrong.argtypes, wrong.restype
                real(seed, ap, ars, acs, *rest)
                if acs:
                    ctypes.c_uint64.from_address(rest[-1]).value ^= 1

            self.shiftlab_hash = wrong

    _fresh_kernel(monkeypatch, tmp_path)
    monkeypatch.setattr(ctypes, "CDLL", Library)
    _same(uniform_colors(3, np.arange(8), 7, 5), _reference(3, np.arange(8), 7, 5))
    assert rng._kernel_meta()["rng_kernel"] == "numpy"


def test_first_calls_from_two_threads_build_once(monkeypatch, tmp_path):
    builds = []
    real_build = rng._build

    def counted(cc, lib):
        builds.append(lib)
        time.sleep(0.05)  # hold the build open while the other thread arrives
        return real_build(cc, lib)

    _fresh_kernel(monkeypatch, tmp_path)
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
