import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    got = color_matrix(seed, rows, cols, k, row_offset=row_offset)
    r = np.arange(row_offset, row_offset + rows, dtype=np.uint64)[:, None]
    c = np.arange(cols, dtype=np.uint64)[None, :]
    _same(got, _reference(seed, r, c, k))


@given(st.integers(0, U64_MAX), st.integers(-(1 << 63), U64_MAX),
       st.integers(-(1 << 63), U64_MAX), st.sampled_from(KS))
@settings(max_examples=100, deadline=None)
def test_scalars_match_reference(seed, a, b, k):
    _same(mix_counters(seed, a, b), _reference(seed, a, b))
    _same(uniform_colors(seed, a, b, k), _reference(seed, a, b, k))
    _same(uniform_colors(seed, np.array(a if a >= 0 else a + (1 << 64), dtype=np.uint64),
                         b, k), _reference(seed, a, b, k))


@given(st.integers(0, U64_MAX), st.integers(0, 3 * BLOCK + 5), st.sampled_from(KS))
@example(3, 3 * BLOCK + 5, 3)
@settings(max_examples=25, deadline=None)
def test_long_vectors_match_reference(seed, n, k):
    # both counters full length, as in tape rows: the first round is blocked too
    points = np.arange(n, dtype=np.int64)
    ts = (points % 7).astype(np.uint64)  # uint64 input is hashed without a cast
    before = (points.copy(), ts.copy())
    _same(uniform_colors(seed, points, ts, k), _reference(seed, points, ts, k))
    _same(mix_counters(seed, 5, points), _reference(seed, 5, points))
    assert np.array_equal(points, before[0]) and np.array_equal(ts, before[1])


def test_other_shapes_match_reference():
    a = np.arange(5, dtype=np.uint64)[:, None, None]
    b = np.arange(6)[None, :, None] * np.arange(7)
    for k in KS:
        _same(uniform_colors(3, a, b, k), _reference(3, a, b, k))
    _same(mix_counters(3, a, b), _reference(3, a, b))
    empty = np.array([], dtype=np.int64)
    _same(mix_counters(3, 4, empty), _reference(3, 4, empty))
    _same(uniform_colors(3, empty[:, None], np.arange(4), 3),
          _reference(3, empty[:, None], np.arange(4), 3))


def test_block_rows():
    assert block_rows(1) == BLOCK
    assert block_rows(1000) == BLOCK // 1000
    assert block_rows(BLOCK) == block_rows(BLOCK + 1) == block_rows(10 * BLOCK) == 1
    assert block_rows(0) == BLOCK


def test_alphabet_must_be_positive():
    with pytest.raises(ValueError):
        uniform_colors(1, 0, 0, 0)
