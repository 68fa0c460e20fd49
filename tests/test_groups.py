import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shiftlab
from shiftlab import shift
from shiftlab.groups import (CyclicTranslation, GroupError, GroupSet, difference_set_size,
                             integer_interval, set_product)


def translates_oracle(M, elems, x):
    """The per-element translate loop: e.x = (x + e) mod M for each e."""
    return [(x + e) % M for e in elems]


def free_for_pairwise(M, S):
    """Whether no two elements of S move any point of Z/M to the same point,
    by comparing the images of every pair of elements at every point."""
    images = [[(p + e) % M for p in range(M)] for e in S]
    return not any(a == b for u, v in itertools.combinations(images, 2) for a, b in zip(u, v))


def test_basic_examples():
    act = CyclicTranslation(12)
    assert act.modulus == 12
    assert act.translates([3, -5, 24], 7).tolist() == [10, 2, 7]
    assert act.translates(range(-1, 2), 11).tolist() == [10, 11, 0]
    assert act.image(5, np.array([0, 7, 11])).tolist() == [5, 0, 4]
    assert act.image(-1).tolist() == [11] + list(range(11))


def test_groupset_refuses_non_integers():
    for bad in [(0, 1), 1.0, "1"]:
        with pytest.raises(GroupError, match="integer element expected"):
            GroupSet([0, bad])
    # numpy integers are integers, and are held as Python ints
    X = GroupSet([np.int64(5), np.int32(-2)])
    assert X.elements == (-2, 5) and all(type(e) is int for e in X)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(-50, 50), st.integers(-50, 50),
       st.lists(st.integers(0, 29), max_size=8))
def test_action_laws(M, g, h, pts):
    # the identity fixes every point, and acting by h then g is acting by g + h
    act = CyclicTranslation(M)
    points = np.array([p % M for p in pts], dtype=np.int64)
    assert np.array_equal(act.image(0, points), points)
    assert np.array_equal(act.image(g + h, points), act.image(g, act.image(h, points)))
    assert np.array_equal(act.image(-g, act.image(g)), np.arange(M))


def test_set_product_examples():
    assert set_product(GroupSet([0, 1]), GroupSet([0, 10])).elements == (0, 1, 10, 11)
    D = GroupSet([3, 7, 9])
    assert set_product(GroupSet([0]), D).elements == D.elements
    # 1 + 1 and 0 + 2 are one element of the product
    assert set_product(GroupSet([0, 1]), GroupSet([1, 2, 5])).elements == (1, 2, 3, 5, 6)


@given(st.sets(st.integers(-30, 30), min_size=1, max_size=8),
       st.sets(st.integers(-30, 30), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_set_product_size_bound(s_items, d_items):
    S, D = GroupSet(s_items), GroupSet(d_items)
    sd = set_product(S, D)
    assert len(sd) <= len(S) * len(D)
    # brute-force oracle
    assert set(sd.elements) == {s + d for s in s_items for d in d_items}


def test_set_product_over_several_chunks_matches_python_sets():
    # 2,101 x 2,001 sums exceed one chunk of 4,000,000, and the chunks share
    # many sums, so the deduplication across chunks is exercised too
    s_items, d_items = range(0, 4201, 2), range(0, 6001, 3)
    got = set_product(GroupSet(s_items), GroupSet(d_items))
    assert len(s_items) * len(d_items) > 4_000_000
    assert got.elements == tuple(sorted({s + d for s in s_items for d in d_items}))


def test_set_product_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on numpy 2.x, about 1 MB of resident memory
    code = ("import sys\nfrom shiftlab.groups import GroupSet, set_product\n"
            "print(set_product(GroupSet((0, 2, 5)), GroupSet((0, 3))).elements)\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(shiftlab.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.splitlines()
    assert out == ["(0, 2, 3, 5, 8)", "False"]


def test_deterministic_sorted_order():
    s1 = GroupSet([5, -2, 7, -2])
    assert s1.elements == (-2, 5, 7)


def test_is_sd_free_cyclic():
    assert CyclicTranslation(100).free_for(GroupSet(range(10))) is True
    assert CyclicTranslation(10).free_for(GroupSet([0, 10])) is False
    # any subset of distinct residues is free
    assert CyclicTranslation(37).free_for(GroupSet([0, 5, 11, 36])) is True


def test_difference_set_interval_law():
    # |SD - SD| = 2|SD| - 1 for integer intervals
    for s_sz, d_sz in [(1, 10), (2, 25), (3, 40)]:
        S, D = integer_interval(s_sz), integer_interval(d_sz)
        sd = set_product(S, D)
        assert difference_set_size(S, D) == 2 * len(sd) - 1


def test_set_product_generic_equality():
    # sparse sets with pairwise-distinct sums reach the |S||D| upper bound
    S = GroupSet([1, 2, 4])
    D = GroupSet([0, 8, 64])
    assert len(set_product(S, D)) == len(S) * len(D)


@given(st.integers(2, 40), st.sets(st.integers(-100, 100), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_sd_free_iff_distinct_residues(modulus, items):
    D = GroupSet(items)
    distinct = len({d % modulus for d in items}) == len(D)
    assert CyclicTranslation(modulus).free_for(D) is distinct


# integer sets of every shape: runs with negative starts, single points,
# sparse sets, and inputs that repeat elements before deduplication
INT_SETS = st.one_of(
    st.tuples(st.integers(-40, 40), st.integers(1, 12)).map(
        lambda t: list(range(t[0], t[0] + t[1])) * 2),
    st.lists(st.integers(-40, 40), min_size=1, max_size=10),
)


@given(INT_SETS, INT_SETS)
@settings(max_examples=200, deadline=None)
def test_interval_products_match_naive_sets(s_items, d_items):
    S, D = GroupSet(s_items), GroupSet(d_items)
    for X, items in ((S, s_items), (D, d_items)):
        u = sorted(set(items))
        runs = u == list(range(u[0], u[0] + len(u)))
        assert X.interval == ((u[0], len(u)) if runs else None)
    sd = {s + d for s in s_items for d in d_items}
    got = set_product(S, D)
    assert tuple(got.elements) == tuple(sorted(sd))
    assert got == GroupSet(sd)
    assert difference_set_size(S, D) == len({b - a for a in sd for b in sd})


def test_interval_only_for_integers():
    assert GroupSet([0, 2]).interval is None
    assert GroupSet(()).interval is None
    assert tuple(integer_interval(3, -2).elements) == (-2, -1, 0)
    assert integer_interval(3, -2).interval == (-2, 3)


# what a constructor may be handed: the sets above, the empty set, and ranges
# that are empty, stepped or reversed
ANY_INT_SETS = st.one_of(
    INT_SETS,
    st.lists(st.integers(-40, 40), max_size=10),
    st.builds(range, st.integers(-40, 40), st.integers(-40, 40),
              st.sampled_from([1, 2, 3, -1])),
)


def _is_run(u):
    return bool(u) and u[-1] - u[0] + 1 == len(u)


@given(ANY_INT_SETS, ANY_INT_SETS)
@example([5], [-3, -1])
@example(range(0), range(4, -4, -2))
@settings(max_examples=200, deadline=None)
def test_every_constructor_gives_one_canonical_form(items, other):
    u, v = sorted(set(items)), sorted(set(other))
    X = GroupSet(items)
    same = [GroupSet(tuple(u)), GroupSet(iter(items)), GroupSet(np.array(u, dtype=np.int64))]
    if _is_run(u):
        same += [integer_interval(len(u), u[0]), GroupSet(range(u[0], u[-1] + 1))]
    for Y in same:
        assert Y == X and hash(Y) == hash(X)
    # set_product takes its closed form when both are intervals, numpy otherwise
    built = [(X, u), (set_product(X, GroupSet(other)), {a + b for a in u for b in v}),
             (set_product(X, X), {a + b for a in u for b in u})]
    for Y, want in built:
        want = sorted(want)
        assert Y == GroupSet(want) and hash(Y) == hash(GroupSet(want))
        assert isinstance(Y.elements, range) is _is_run(want)
        assert tuple(Y.elements) == tuple(want)
        assert Y.interval == ((want[0], len(want)) if _is_run(want) else None)
        probe = range(min(want, default=0) - 2, max(want, default=0) + 3)
        assert [x in Y for x in probe] == [x in want for x in probe]


def _free_by_residues(M, elems):
    return len({e % M for e in elems}) == len(elems)


def test_cyclic_free_for_intervals_matches_residue_formula():
    # lengths below, at and above the modulus, from negative starts as well
    for M in range(1, 8):
        act = CyclicTranslation(M)
        for start in range(-9, 10):
            for n in range(1, M + 3):
                S = integer_interval(n, start)
                assert act.free_for(S) == _free_by_residues(M, S.elements) == (n <= M)


@settings(max_examples=200, deadline=None)
@given(M=st.integers(1, 30), elems=st.sets(st.integers(-60, 60), min_size=1, max_size=12))
def test_cyclic_free_for_matches_residue_formula(M, elems):
    S = GroupSet(elems)
    assert CyclicTranslation(M).free_for(S) == _free_by_residues(M, S.elements)


def test_boundary_error_is_a_group_error():
    assert issubclass(shift.BoundaryError, GroupError)
    assert shiftlab.BoundaryError is shift.BoundaryError


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.data())
def test_translates_and_image_match_act(M, data):
    action = CyclicTranslation(M)
    elems = data.draw(st.lists(st.integers(-8, 8), max_size=6))
    if data.draw(st.booleans()):  # a run, as a GroupSet holds one
        lo = data.draw(st.integers(-8, 8))
        elems = range(lo, lo + len(elems))
    x = data.draw(st.integers(0, M - 1))
    got = action.translates(elems, x)
    assert got.dtype == np.int64 and got.tolist() == translates_oracle(M, elems, x)

    gamma = data.draw(st.integers(-8, 8))
    pts = data.draw(st.lists(st.integers(0, M - 1), max_size=8))
    assert action.image(gamma, np.array(pts, dtype=np.int64)).tolist() == \
        [(p + gamma) % M for p in pts]
    assert action.image(gamma).tolist() == [(p + gamma) % M for p in range(M)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fast_freeness_matches_pairwise_and_pointwise_oracles(data):
    M = data.draw(st.integers(1, 12))
    action = CyclicTranslation(M)
    start = data.draw(st.integers(-20, 20))
    # intervals on both sides of the shortcut len(S) <= M, and sparse sets
    # whose elements often collide mod M
    items = data.draw(st.one_of(
        st.integers(1, M + 3).map(lambda n: range(start, start + n)),
        st.sets(st.integers(-30, 30), min_size=1, max_size=M + 3)))
    S = GroupSet(items)
    pointwise = all(len(set(translates_oracle(M, S, x))) == len(S) for x in range(M))
    assert action.free_for(S) is free_for_pairwise(M, S) is pointwise
