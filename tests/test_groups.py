import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab.groups import (CyclicTranslation, FiniteAction, GroupCtx,
                             GroupError, GroupSet, TorusTranslation, ball,
                             difference_set_size,
                             free_group_window, group_inv, group_op,
                             growth_profile, gset, integer_interval, is_sd_free,
                             lattice_window, set_inverse, set_product)

Z = GroupCtx("integers")
F2 = GroupCtx("free", 2)
L2 = GroupCtx("lattice", 2)

CTX_ELEMS = {
    Z: st.integers(-50, 50),
    L2: st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
    F2: st.lists(st.sampled_from([1, 2, -1, -2]), max_size=6).map(tuple),
}


def test_basic_examples():
    assert group_op(Z, 3, -5) == -2
    assert group_op(F2, (1, 2), (-2,)) == (1,)
    assert group_inv(L2, (3, -1)) == (-3, 1)
    assert Z.identity() == 0 and F2.identity() == () and L2.identity() == (0, 0)


@pytest.mark.parametrize("ctx", [Z, L2, F2])
def test_group_laws(ctx):
    @settings(max_examples=60, deadline=None)
    @given(CTX_ELEMS[ctx], CTX_ELEMS[ctx], CTX_ELEMS[ctx])
    def laws(a, b, c):
        a, b, c = ctx.normalize(a), ctx.normalize(b), ctx.normalize(c)
        assert group_op(ctx, group_op(ctx, a, b), c) == group_op(ctx, a, group_op(ctx, b, c))
        assert group_op(ctx, a, group_inv(ctx, a)) == ctx.identity()
        assert group_op(ctx, ctx.identity(), a) == a
        assert ctx.normalize(a) == a  # idempotent normal form

    laws()


def test_ctx_validation():
    with pytest.raises(GroupError):
        GroupCtx("lattice", 4)
    with pytest.raises(GroupError):
        GroupCtx("free", 0)
    with pytest.raises(GroupError):
        GroupCtx("cyclic", 7)  # not a supported kind
    with pytest.raises(GroupError):
        group_op(F2, (3,), (1,))  # letter outside rank


def test_ctx_parse_roundtrip():
    for spec in ["Z", "Z^2", "F2"]:
        ctx = GroupCtx.parse(spec)
        assert GroupCtx.parse(ctx.to_json()) == ctx
    with pytest.raises(GroupError):
        GroupCtx.parse({"cyclic": 5})


def test_set_product_examples():
    assert set_product(gset(Z, [0, 1]), gset(Z, [0, 10])).elements == (0, 1, 10, 11)
    D = gset(Z, [3, 7, 9])
    assert set_product(gset(Z, [0]), D).elements == D.elements
    # two free-group products, reduced by hand: a*a = aa, a^-1*a = identity
    got = set_product(gset(F2, [(1,), (-1,)]), gset(F2, [(1,)]))
    assert set(got.elements) == {(1, 1), ()}


@given(st.sets(st.integers(-30, 30), min_size=1, max_size=8),
       st.sets(st.integers(-30, 30), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_set_product_size_bound(s_items, d_items):
    S, D = gset(Z, s_items), gset(Z, d_items)
    sd = set_product(S, D)
    assert len(sd) <= len(S) * len(D)
    # brute-force oracle
    assert set(sd.elements) == {s + d for s in s_items for d in d_items}


def test_set_product_ctx_mismatch():
    with pytest.raises(GroupError):
        set_product(gset(Z, [0]), gset(L2, [(0, 0)]))


def test_ball_examples():
    assert ball(gset(Z, [-1, 1]), 2).elements == (-2, 0, 2)
    S = gset(F2, [(1,), (2,), (-1,), (-2,)])
    # oracle: all 16 two-letter products with explicit reduction
    prods = set()
    for a, b in itertools.product([(1,), (2,), (-1,), (-2,)], repeat=2):
        prods.add(F2.normalize(a + b))
    got = ball(S, 2)
    assert set(got.elements) == prods
    assert len(got) == 13
    assert ball(S, 1).elements == S.elements


def test_deterministic_sorted_order():
    s1 = gset(Z, [5, -2, 7, -2])
    assert s1.elements == (-2, 5, 7)
    s2 = GroupSet.from_json(Z, s1.to_json())
    assert s2 == s1


def test_is_sd_free_cyclic():
    assert is_sd_free(CyclicTranslation(100), [gset(Z, range(10))]) is True
    assert is_sd_free(CyclicTranslation(10), [gset(Z, [0, 10])]) is False
    # any subset of distinct residues is free
    assert is_sd_free(CyclicTranslation(37), [gset(Z, [0, 5, 11, 36])]) is True


def test_is_sd_free_window_indeterminate():
    w = lattice_window([10])
    assert is_sd_free(w, [gset(Z, [0])]) is True  # singleton: nothing to collide
    assert is_sd_free(w, [gset(Z, [0, 3])]) is None  # boundary prevents a verdict


def test_torus_freeness():
    t = TorusTranslation(4, 6)
    assert is_sd_free(t, [gset(L2, [(0, 0), (1, 1)])]) is True
    assert is_sd_free(t, [gset(L2, [(0, 0), (4, 6)])]) is False


def test_action_axioms_cyclic_torus():
    act = CyclicTranslation(12)
    for g, h, x in [(3, 4, 7), (-5, 2, 0), (11, 11, 11)]:
        assert act.act(group_op(Z, g, h), x) == act.act(g, act.act(h, x))
    t = TorusTranslation(3, 5)
    for g, h, x in [((1, 2), (2, 4), 7), ((-1, 0), (0, -1), 14)]:
        assert t.act(group_op(L2, g, h), x) == t.act(g, t.act(h, x))


def test_window_action_partiality():
    w = lattice_window([5])
    assert w.act(2, 1) == 3
    assert w.act(5, 1) is None
    arr = w.act_array(3, np.arange(5))
    assert arr.tolist() == [3, 4, -1, -1, -1]


def test_free_group_window_left_multiplication():
    w = free_group_window(2, 2)
    idx_id = w.index_of(())
    assert w.element_of(w.act((1,), idx_id)) == (1,)
    # composition where defined
    p = w.act((2,), w.act((1,), idx_id))
    assert p is not None and w.element_of(p) == F2.normalize((2, 1))


def test_growth_profile_cyclic_formula():
    prof = growth_profile(CyclicTranslation(1000), gset(Z, [-1, 0, 1]), 30)
    assert prof == [min(2 * n + 1, 1000) for n in range(1, 31)]


def test_growth_profile_identity_only():
    prof = growth_profile(CyclicTranslation(50), gset(Z, [0]), 5)
    assert prof == [1] * 5


def test_growth_profile_torus_plus_shape():
    plus = gset(L2, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    prof = growth_profile(TorusTranslation(50, 50), plus, 6)
    assert prof == [2 * n * n + 2 * n + 1 for n in range(1, 7)]  # diamond sizes


def test_growth_profile_monotone_bounded():
    prof = growth_profile(CyclicTranslation(64), gset(Z, [0, 1, 5]), 40)
    assert all(a <= b for a, b in zip(prof, prof[1:]))
    assert all(v <= 64 for v in prof)


def test_growth_profile_generic_matches_translation_path():
    # the generic reachability path must agree with the fast path
    S = gset(Z, [-1, 1])
    act = CyclicTranslation(30)
    fast = growth_profile(act, S, 6)

    class NoFast(CyclicTranslation):
        pass

    generic = []
    n = act.n_points
    reach = np.eye(n, dtype=bool)
    maps = [act.act_array(e, np.arange(n)) for e in S.elements]
    for _ in range(6):
        nxt = np.zeros_like(reach)
        for m in maps:
            nxt[:, m] |= reach
        reach = nxt
        generic.append(int(reach.sum(axis=1).max()))
    assert fast == generic


def test_growth_profile_rejects_other_actions():
    class Reversal(FiniteAction):
        # a total action that is not a translation: x -> g - x on Z/5
        ctx, n_points, total = Z, 5, True

        def act(self, gamma, point):
            return (gamma - point) % 5

    with pytest.raises(GroupError):
        growth_profile(Reversal(), gset(Z, [0, 1]), 3)
    with pytest.raises(GroupError):
        growth_profile(lattice_window([5]), gset(Z, [0, 1]), 3)


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


def test_window_action_composition_where_defined():
    w = free_group_window(2, 3)
    g, h = (1,), (2, 1)
    gh = group_op(F2, g, h)
    for p in range(w.n_points):
        via_h = w.act(h, p)
        lhs = w.act(gh, p)
        if via_h is not None:
            rhs = w.act(g, via_h)
            if rhs is not None and lhs is not None:
                assert lhs == rhs


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
            GroupSet.from_json(Z, list(items)), GroupSet.from_json(Z, X.to_json()),
            ball(X, 1), set_inverse(set_inverse(X))]
    if _is_run(u):
        same += [integer_interval(len(u), u[0]), GroupSet(Z, range(u[0], u[-1] + 1))]
    for Y in same:
        assert Y == X and hash(Y) == hash(X)
    # set_product takes its closed form when both are intervals, numpy otherwise
    built = [(X, u), (set_product(X, gset(Z, other)), {a + b for a in u for b in v}),
             (ball(X, 2), {a + b for a in u for b in u}), (set_inverse(X), {-a for a in u})]
    for Y, want in built:
        want = sorted(want)
        assert Y == gset(Z, want) and hash(Y) == hash(gset(Z, want))
        assert isinstance(Y.elements, range) is _is_run(want)
        assert tuple(Y.elements) == tuple(want) and Y.to_json() == want
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
