import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab.windows import circular_window_reduce, circular_window_sums

FOLDS = {"and": (np.logical_and, all), "or": (np.logical_or, any)}


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
def reduce_cases(draw):
    m = draw(st.integers(1, 40))
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
@settings(max_examples=300, deadline=None)
def test_window_reduce_matches_brute_force(case):
    mask, count, step, name = case
    m = mask.size
    ufunc, fold = FOLDS[name]
    before = mask.copy()
    got = circular_window_reduce(mask, count, step, m, ufunc)
    expected = [fold(bool(mask[(x + n * step) % m]) for n in range(count))
                for x in range(m)]
    assert got.dtype == bool
    assert got.tolist() == expected
    assert not np.shares_memory(got, mask)
    assert (mask == before).all()


def test_window_reduce_rejects_empty_window():
    with pytest.raises(ValueError):
        circular_window_reduce(np.ones(4, dtype=bool), 0, 1, 4, np.logical_and)
