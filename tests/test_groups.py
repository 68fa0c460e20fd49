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
from shiftlab.groups import (CyclicTranslation, FiniteAction, GroupCtx, GroupError,
                             GroupSet, TorusTranslation, difference_set_size,
                             integer_interval, is_sd_free, set_inverse, set_product)

gset = GroupSet.from_iterable

Z = GroupCtx("integers")
L2 = GroupCtx("lattice", 2)

CTX_ELEMS = {
    Z: st.integers(-50, 50),
    L2: st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
}


def test_basic_examples():
    assert Z.op(3, -5) == -2
    assert L2.op((1, 2), (3, -2)) == (4, 0)
    assert L2.inv((3, -1)) == (-3, 1)
    assert Z.identity() == 0 and L2.identity() == (0, 0)


@pytest.mark.parametrize("ctx", [Z, L2])
def test_group_laws(ctx):
    @settings(max_examples=60, deadline=None)
    @given(CTX_ELEMS[ctx], CTX_ELEMS[ctx], CTX_ELEMS[ctx])
    def laws(a, b, c):
        a, b, c = ctx.normalize(a), ctx.normalize(b), ctx.normalize(c)
        assert ctx.op(ctx.op(a, b), c) == ctx.op(a, ctx.op(b, c))
        assert ctx.op(a, ctx.inv(a)) == ctx.identity()
        assert ctx.op(ctx.identity(), a) == a
        assert ctx.normalize(a) == a  # idempotent normal form

    laws()


def test_ctx_validation():
    with pytest.raises(GroupError):
        GroupCtx("lattice", 4)
    with pytest.raises(GroupError):
        GroupCtx("lattice", 1)
    with pytest.raises(GroupError):
        GroupCtx("cyclic", 7)  # not a supported kind
    # the integers take param 0 only, a lattice an int 2 or 3
    for kind, param in [("integers", 5), ("integers", False), ("lattice", 2.5),
                        ("lattice", (2,)), ("lattice", True), ("lattice", 3.0)]:
        with pytest.raises(GroupError):
            GroupCtx(kind, param)
    assert GroupCtx("integers", 0) == Z and GroupCtx("lattice", 3).identity() == (0, 0, 0)
    with pytest.raises(GroupError):
        L2.normalize((1, 2, 3))  # wrong dimension
    with pytest.raises(GroupError):
        Z.normalize((1,))  # a tuple is not an integer


def test_set_product_examples():
    assert set_product(gset(Z, [0, 1]), gset(Z, [0, 10])).elements == (0, 1, 10, 11)
    D = gset(Z, [3, 7, 9])
    assert set_product(gset(Z, [0]), D).elements == D.elements
    # lattice sets take the generic path; (1, 0) + (0, 1) arises twice
    got = set_product(gset(L2, [(0, 0), (1, 0), (0, 1)]), gset(L2, [(0, 1), (1, 0)]))
    assert got.elements == ((0, 1), (0, 2), (1, 0), (1, 1), (2, 0))


@given(st.sets(st.integers(-30, 30), min_size=1, max_size=8),
       st.sets(st.integers(-30, 30), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_set_product_size_bound(s_items, d_items):
    S, D = gset(Z, s_items), gset(Z, d_items)
    sd = set_product(S, D)
    assert len(sd) <= len(S) * len(D)
    # brute-force oracle
    assert set(sd.elements) == {s + d for s in s_items for d in d_items}


def test_set_product_over_several_chunks_matches_python_sets():
    # 2,101 x 2,001 sums exceed one chunk of 4,000,000, and the chunks share
    # many sums, so the deduplication across chunks is exercised too
    s_items, d_items = range(0, 4201, 2), range(0, 6001, 3)
    got = set_product(gset(Z, s_items), gset(Z, d_items))
    assert len(s_items) * len(d_items) > 4_000_000
    assert got.elements == tuple(sorted({s + d for s in s_items for d in d_items}))


def test_set_product_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on numpy 2.x, about 1 MB of resident memory
    code = ("import sys\nfrom shiftlab.groups import GroupCtx, GroupSet, set_product\n"
            "Z = GroupCtx('integers')\n"
            "print(set_product(GroupSet(Z, (0, 2, 5)), GroupSet(Z, (0, 3))).elements)\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(shiftlab.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.splitlines()
    assert out == ["(0, 2, 3, 5, 8)", "False"]


def test_set_product_ctx_mismatch():
    with pytest.raises(GroupError):
        set_product(gset(Z, [0]), gset(L2, [(0, 0)]))


def test_deterministic_sorted_order():
    s1 = gset(Z, [5, -2, 7, -2])
    assert s1.elements == (-2, 5, 7)


def test_is_sd_free_cyclic():
    assert is_sd_free(CyclicTranslation(100), [gset(Z, range(10))]) is True
    assert is_sd_free(CyclicTranslation(10), [gset(Z, [0, 10])]) is False
    # any subset of distinct residues is free
    assert is_sd_free(CyclicTranslation(37), [gset(Z, [0, 5, 11, 36])]) is True


def test_torus_freeness():
    t = TorusTranslation(4, 6)
    assert is_sd_free(t, [gset(L2, [(0, 0), (1, 1)])]) is True
    assert is_sd_free(t, [gset(L2, [(0, 0), (4, 6)])]) is False


def test_action_axioms_cyclic_torus():
    act = CyclicTranslation(12)
    for g, h, x in [(3, 4, 7), (-5, 2, 0), (11, 11, 11)]:
        assert act.act(Z.op(g, h), x) == act.act(g, act.act(h, x))
    t = TorusTranslation(3, 5)
    for g, h, x in [((1, 2), (2, 4), 7), ((-1, 0), (0, -1), 14)]:
        assert t.act(L2.op(g, h), x) == t.act(g, t.act(h, x))


def test_difference_set_interval_law():
    # |(SD)^-1 SD| = 2|SD| - 1 for integer intervals
    for s_sz, d_sz in [(1, 10), (2, 25), (3, 40)]:
        S, D = integer_interval(s_sz), integer_interval(d_sz)
        sd = set_product(S, D)
        assert difference_set_size(S, D) == 2 * len(sd) - 1


def test_set_product_generic_equality():
    # sparse sets with pairwise-distinct sums reach the |S||D| upper bound
    S = gset(Z, [1, 2, 4])
    D = gset(Z, [0, 8, 64])
    assert len(set_product(S, D)) == len(S) * len(D)


@given(st.integers(2, 40), st.sets(st.integers(-100, 100), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_sd_free_iff_distinct_residues(modulus, items):
    D = gset(Z, items)
    distinct = len({d % modulus for d in items}) == len(D)
    assert is_sd_free(CyclicTranslation(modulus), [D]) is distinct


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
    S, D = gset(Z, s_items), gset(Z, d_items)
    for X, items in ((S, s_items), (D, d_items)):
        u = sorted(set(items))
        runs = u == list(range(u[0], u[0] + len(u)))
        assert X.interval == ((u[0], len(u)) if runs else None)
    sd = {s + d for s in s_items for d in d_items}
    got = set_product(S, D)
    assert tuple(got.elements) == tuple(sorted(sd))
    assert got == gset(Z, sd)
    assert difference_set_size(S, D) == len({b - a for a in sd for b in sd})


def test_interval_only_for_integers():
    assert gset(L2, [(0, 0), (0, 1)]).interval is None
    assert GroupSet(Z, ()).interval is None
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
    X = gset(Z, items)
    same = [GroupSet(Z, items), GroupSet(Z, tuple(u)), GroupSet.from_iterable(Z, items),
            set_inverse(set_inverse(X))]
    if _is_run(u):
        same += [integer_interval(len(u), u[0]), GroupSet(Z, range(u[0], u[-1] + 1))]
    for Y in same:
        assert Y == X and hash(Y) == hash(X)
    # set_product takes its closed form when both are intervals, numpy otherwise
    built = [(X, u), (set_product(X, gset(Z, other)), {a + b for a in u for b in v}),
             (set_product(X, X), {a + b for a in u for b in u}),
             (set_inverse(X), {-a for a in u})]
    for Y, want in built:
        want = sorted(want)
        assert Y == gset(Z, want) and hash(Y) == hash(gset(Z, want))
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
    S = gset(Z, elems)
    assert CyclicTranslation(M).free_for(S) == _free_by_residues(M, S.elements)


def test_boundary_error_is_a_group_error():
    assert issubclass(shift.BoundaryError, GroupError)
    assert shiftlab.BoundaryError is shift.BoundaryError


# the two action flavors, small enough that many translates wrap around
ACTIONS = st.one_of(
    st.integers(1, 30).map(CyclicTranslation),
    st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda t: TorusTranslation(*t)),
)
NEAR_ELEMS = {
    Z: st.integers(-8, 8),
    L2: st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
}


@settings(max_examples=300, deadline=None)
@given(ACTIONS, st.data())
def test_translates_and_image_match_act(action, data):
    ctx = action.ctx
    elems = [ctx.normalize(e) for e in data.draw(st.lists(NEAR_ELEMS[ctx], max_size=6))]
    if ctx == Z and data.draw(st.booleans()):  # a run, as a GroupSet holds one
        lo = data.draw(NEAR_ELEMS[Z])
        elems = range(lo, lo + len(elems))
    x = data.draw(st.integers(0, action.n_points - 1))
    got = action.translates(elems, x)
    assert got.dtype == np.int64 and got.tolist() == [action.act(e, x) for e in elems]

    gamma = ctx.normalize(data.draw(NEAR_ELEMS[ctx]))
    pts = np.array(data.draw(st.lists(st.integers(0, action.n_points - 1), max_size=8)),
                   dtype=np.int64)
    for points in (pts, None):
        ref = action.act_array(gamma, action.points() if points is None else points)
        assert np.array_equal(action.image(gamma, points), ref)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fast_freeness_matches_pairwise_and_pointwise_oracles(data):
    if data.draw(st.booleans()):
        M = data.draw(st.integers(1, 12))
        action = CyclicTranslation(M)
        start = data.draw(st.integers(-20, 20))
        # intervals on both sides of the shortcut len(S) <= M, and sparse sets
        # whose elements often collide mod M
        items = data.draw(st.one_of(
            st.integers(1, M + 3).map(lambda n: range(start, start + n)),
            st.sets(st.integers(-30, 30), min_size=1, max_size=M + 3)))
    else:
        action = TorusTranslation(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
        items = data.draw(st.sets(NEAR_ELEMS[L2], min_size=1, max_size=8))
    S = gset(action.ctx, items)
    pointwise = all(len({action.act(e, x) for e in S}) == len(S)
                    for x in range(action.n_points))
    assert action.free_for(S) is FiniteAction.free_for(action, S) is pointwise
