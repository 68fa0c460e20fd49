import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab.windows import (_ones_between, circular_window_reduce, circular_window_sums,
                              interval_window_outside, offset_runs)

FOLDS = {"and": (np.bitwise_and, all), "or": (np.bitwise_or, any)}


def pack(mask: np.ndarray) -> np.ndarray:
    """A bool mask as packed little-endian uint64 words, bits past its end clear."""
    padded = np.zeros(-(-mask.size // 64) * 64, dtype=bool)
    padded[:mask.size] = mask
    return np.packbits(padded, bitorder="little").view("<u8")


def unpack(words: np.ndarray, m: int) -> np.ndarray:
    """The first m bits of packed words, after checking that no later bit is set."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little").view(bool)
    assert bits.size == -(-m // 64) * 64 and not bits[m:].any()
    return bits[:m]


@st.composite
def values_and_offsets(draw):
    m = draw(st.integers(1, 40))
    values = np.array(draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m)),
                      dtype=np.int8)
    offsets = draw(st.lists(st.integers(-3 * m, 3 * m), min_size=1, max_size=12))
    return m, values, offsets


@given(values_and_offsets())
@example((5, np.array([1, -2, 3, 0, 4], dtype=np.int8), [3, 3, -1, 7, 0, 12, 4]))
@example((1, np.array([-3], dtype=np.int8), [0, 0, 5, -2]))
@settings(max_examples=200, deadline=None)
def test_window_sums_match_direct_summation(case):
    m, values, offsets = case
    expected = [sum(int(values[(x + d) % m]) for d in offsets) for x in range(m)]
    got = circular_window_sums(values, offsets, m)
    assert got.dtype == np.int64
    assert got.tolist() == expected


@st.composite
def screen_cases(draw):
    # m up to 700 spans several blocks of 64 anchors.  The mask is two runs,
    # mostly of different densities, so counts drift from one density times
    # the length to the other, and a band drawn around their mean clears
    # some blocks, leaves others to be counted and puts anchors outside it
    m = draw(st.integers(1, 700) | st.integers(400, 700))
    length = draw(st.integers(1, m) | st.integers(max(1, m // 2), m))
    start = draw(st.integers(-3 * m, 3 * m))
    densities = draw(st.sampled_from([(0.0, 1.0), (0.95, 0.05), (0.0, 0.5), (0.5, 0.5),
                                      (1.0, 1.0)]))
    cut = draw(st.integers(m // 4, 3 * m // 4))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(m)
    mask = noise < np.where(np.arange(m) < cut, *densities)
    mid = round(np.mean(densities) * length)
    # edges up to 5 counts on the far side of mid give lo > hi, and edges
    # past 0 and length a band that holds every count
    lo = mid - draw(st.integers(-5, length // 2 + 70))
    hi = mid + draw(st.integers(-5, length // 2 + 70))
    return mask, start, length, lo, hi


def _ramp(m, ones):
    mask = np.zeros(m, dtype=bool)
    mask[:ones] = True
    return mask


ALTERNATE_128 = np.arange(128) % 2 == 0


@given(screen_cases())
@example((ALTERNATE_128[:63], 5, 63, 20, 40))     # m = 63: one partial block, length m
@example((ALTERNATE_128[:64], 0, 64, -31, 95))    # m = 64: one full block, length m
@example((_ramp(65, 30), -7, 65, 0, 64))          # m = 65: a second block of one anchor
@example((ALTERNATE_128, 0, 100, -13, 113))       # band 127 wide: count 50 clears both blocks
@example((ALTERNATE_128, 9, 128, 1, 0))           # lo > hi: every anchor is outside
@example((ALTERNATE_128, 3, 128, 0, 128))         # the full band: no anchor is outside
@example((_ramp(640, 300), 0, 300, 237, 363))     # block 0 runs 300..237: just cleared
@example((_ramp(640, 300), 0, 300, 238, 363))     # one count lower: anchor 63 is outside
@example((~_ramp(640, 300), 0, 300, -63, 63))     # block 0 runs 0..63: just cleared
@example((~_ramp(640, 300), 0, 300, -63, 62))     # one count higher: anchor 63 is outside
@settings(max_examples=300, deadline=None)
def test_interval_screen_matches_window_sums(case):
    mask, start, length, lo, hi = case
    m = mask.size
    before = mask.copy()
    counts = circular_window_sums(mask.view(np.int8), range(start, start + length), m)
    got = interval_window_outside(mask, start, length, lo, hi)
    assert got.dtype == np.int64
    assert got.tolist() == np.flatnonzero((counts < lo) | (counts > hi)).tolist()
    assert (mask == before).all()


@st.composite
def bit_rows(draw):
    n = draw(st.integers(1, 300) | st.sampled_from([63, 64, 65, 127, 128, 129, 192]))
    rows = draw(st.integers(1, 3))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((rows, n)) < density


@given(bit_rows())
@example(np.ones((1, 64), dtype=bool))           # the last position starts a new word
@example(np.arange(130)[None, :] % 3 == 0)       # 64j - 1, 64j and 64j + 1 for j = 1, 2
@example(np.zeros((2, 1), dtype=bool))
@settings(max_examples=200, deadline=None)
def test_ones_between_matches_cumsum(mask):
    # the bits past n, which no position may count, are ones
    rows, n = mask.shape
    padded = np.ones((rows, 64 * (n // 64 + 1)), dtype=bool)
    padded[:, :n] = mask
    words = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    before = np.zeros((rows, n + 1), dtype=np.int64)
    np.cumsum(mask, axis=1, out=before[:, 1:])
    # from 0 to every position 0..n
    pos = np.arange(n + 1, dtype=np.uint64)
    assert _ones_between(words, np.zeros_like(pos), pos).tolist() == before.tolist()
    # between shuffled positions, of each row and of one row on its own
    a, b = np.random.default_rng(n).permuted(np.stack((pos, pos)), axis=1)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    assert _ones_between(words, lo, hi).tolist() == (before[:, hi] - before[:, lo]).tolist()
    assert _ones_between(words[-1], lo, hi).tolist() == (before[-1, hi] - before[-1, lo]).tolist()
    # ranges of step 64, read as word slices, from each offset into a word
    for start in {0, 1, 63, 64, 65} & set(range(n + 1)):
        for length in {0, 1, 63, 64, 70} & set(range(n + 1 - start)):
            lo = range(start, n + 1 - length, 64)
            hi = range(start + length, start + length + 64 * len(lo), 64)
            want = before[:, list(hi)] - before[:, list(lo)]
            assert _ones_between(words, lo, hi).tolist() == want.tolist()


def test_interval_screen_rejects_empty_window():
    with pytest.raises(ValueError, match="window length"):
        interval_window_outside(np.ones(5, dtype=bool), 0, 0, 0, 5)


def _runs_by_loop(offsets, modulus):
    """Run detection one residue at a time: the reference for offset_runs."""
    res = sorted(int(o) % modulus for o in offsets)
    runs = []
    for r in res:
        if runs and runs[-1][1] + 1 == r:
            runs[-1] = (runs[-1][0], r)
        else:
            runs.append((r, r))
    return runs


@given(values_and_offsets())
@example((6, None, [5, 0, 1, 1, 2, -1, 11, 3]))  # repeats extend only the last run
@example((1, None, [0, 4, -7]))                   # everything folds onto residue 0
@settings(max_examples=300, deadline=None)
def test_offset_runs_match_loop(case):
    m, _values, offsets = case
    for given_as in (offsets, tuple(offsets), np.array(offsets, dtype=np.int64)):
        got = offset_runs(given_as, m)
        assert got == _runs_by_loop(offsets, m)
        assert all(type(v) is int for run in got for v in run)


def test_window_sums_reject_empty_offsets():
    with pytest.raises(ValueError, match="at least one offset"):
        offset_runs([], 5)
    with pytest.raises(ValueError, match="at least one offset"):
        circular_window_sums(np.ones(5, dtype=np.int8), (), 5)


@st.composite
def reduce_cases(draw):
    # sizes on both sides of one and two 64-bit words
    m = draw(st.integers(1, 40) | st.integers(60, 200))
    mask = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    return (mask, draw(st.integers(1, 50)), draw(st.integers(1, 50)),
            draw(st.sampled_from(sorted(FOLDS))))


def _only(m, *true_at):
    mask = np.zeros(m, dtype=bool)
    mask[list(true_at)] = True
    return mask


@given(reduce_cases())
@example((~_only(13, 4), 5, 3, "and"))         # count not a power of two, step > 1
@example((~_only(10, 9), 7, 4, "and"))         # count*step > M, M not a multiple of step
@example((_only(11, 2, 7), 12, 5, "or"))       # wraps the circle several times
@example((~_only(8, 0), 3, 8, "and"))          # step a multiple of M
@example((_only(9, 3), 1, 2, "or"))            # count 1 is a copy
@example((~_only(64, 63), 5, 13, "and"))       # M one word exactly
@example((_only(100, 0, 99), 9, 37, "or"))     # M not a multiple of 64
@example((~_only(130, 64, 129), 40, 129, "and"))  # step M - 1 across three words
@settings(max_examples=300, deadline=None)
def test_window_reduce_matches_brute_force(case):
    mask, count, step, name = case
    m = mask.size
    ufunc, fold = FOLDS[name]
    words = pack(mask)
    before = words.copy()
    got = circular_window_reduce(words, count, step, m, ufunc)
    expected = [fold(bool(mask[(x + n * step) % m]) for n in range(count))
                for x in range(m)]
    assert got.dtype == np.uint64
    assert unpack(got, m).tolist() == expected
    assert not np.shares_memory(got, words)
    assert (words == before).all()


def test_window_reduce_rejects_empty_window():
    with pytest.raises(ValueError):
        circular_window_reduce(pack(np.ones(4, dtype=bool)), 0, 1, 4, np.bitwise_and)
