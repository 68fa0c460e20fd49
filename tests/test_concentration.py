import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import concentration
from shiftlab.concentration import (ConcentrationBoundInput, McEstimate,
                                    concentration_bound, deviation_sweep,
                                    familywise_z, mc_deviation_prob, scb_bound,
                                    wilson_interval, wilson_zero_floor)
from shiftlab.groups import CyclicTranslation, GroupError, integer_interval
from shiftlab.shift import all_patterns


def test_scb_examples():
    assert scb_bound(1, 1.0, 0.0) == 2.0  # vacuous limit
    assert scb_bound(2000, 2.0, 0.2 * 2000) == pytest.approx(2 * math.exp(-10), rel=1e-12)


def test_scb_monotonicity():
    base = scb_bound(100, 1.0, 10.0)
    assert scb_bound(100, 1.0, 20.0) < base      # decreasing in t
    assert scb_bound(100, 2.0, 10.0) > base      # increasing in b
    assert scb_bound(200, 1.0, 10.0) > base      # increasing in s


def test_concentration_examples():
    inp = ConcentrationBoundInput(2, integer_interval(2), Fraction(1, 5),
                                  integer_interval(2000))
    assert concentration_bound(inp) == pytest.approx(2 * math.exp(-5), rel=1e-9)
    inp1 = ConcentrationBoundInput(2, integer_interval(1), Fraction(1, 10),
                                   integer_interval(1000))
    assert concentration_bound(inp1) == pytest.approx(2 * math.exp(-5), rel=1e-9)
    huge = ConcentrationBoundInput(2, integer_interval(1), Fraction(100),
                                   integer_interval(1000))
    assert concentration_bound(huge) < 1e-300  # eps -> infinity limit


@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 400),
       st.fractions(min_value="1/100", max_value="9/10"))
@settings(max_examples=60, deadline=None)
def test_bound_is_scb_substitution(k, s_sz, d_sz, eps):
    inp = ConcentrationBoundInput(k, integer_interval(s_sz), eps,
                                  integer_interval(d_sz))
    direct = concentration_bound(inp)
    via_scb = scb_bound(s_sz * d_sz, s_sz, float(eps) * d_sz)
    assert direct == pytest.approx(via_scb, rel=1e-9)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 10_000)
    assert lo == 0.0 and 0 < hi < 5e-4
    lo, hi = wilson_interval(5000, 10_000)
    assert lo < 0.5 < hi
    assert wilson_zero_floor(10_000) == hi if False else wilson_zero_floor(10_000) > 0


def test_mc_impossible_deviation_eps_ge_1():
    # frequency lives in [0,1] and the target is <= 1/2: deviation 1 never happens
    inp = ConcentrationBoundInput(2, integer_interval(1), Fraction(1),
                                  integer_interval(50))
    phi = all_patterns(integer_interval(1), 2)[0]
    est = mc_deviation_prob(inp, CyclicTranslation(1000), 0, phi, 500, seed=4)
    assert est.hits == 0


def test_mc_singleton_always_deviates():
    # |D| = 1: frequency is 0 or 1, both at distance 1/2 >= 0.4 from the target
    inp = ConcentrationBoundInput(2, integer_interval(1), Fraction(2, 5),
                                  integer_interval(1))
    phi = all_patterns(integer_interval(1), 2)[0]
    est = mc_deviation_prob(inp, CyclicTranslation(100), 0, phi, 400, seed=4)
    assert est.estimate == 1.0
    assert concentration_bound(inp) > 1.0  # vacuous, consistent


def test_mc_expectation_identity():
    inp = ConcentrationBoundInput(2, integer_interval(2), Fraction(1, 10),
                                  integer_interval(400))
    phi = all_patterns(integer_interval(2), 2)[0]
    est = mc_deviation_prob(inp, CyclicTranslation(5000), 0, phi, 3000, seed=8)
    assert est.expected_occurrences == 100.0
    assert est.expectation_within_3sigma


@pytest.mark.parametrize("seed, mean, z", [(4, 20.0, -math.inf), (3, 33.0, math.inf),
                                           (0, 25.0, 0.0)])
def test_mc_zero_variance_zscore_has_the_sign_of_the_miss(seed, mean, z):
    # one trial has zero variance: the z-score is infinite with the sign of
    # mean - expected, or 0 when the mean is exact
    inp = ConcentrationBoundInput(2, integer_interval(1), Fraction(1, 10),
                                  integer_interval(50))
    phi = all_patterns(integer_interval(1), 2)[0]
    est = mc_deviation_prob(inp, CyclicTranslation(1000), 0, phi, trials=1, seed=seed)
    assert (est.mean_occurrences, est.expected_occurrences) == (mean, 25.0)
    assert est.expectation_zscore == z


def test_mc_requires_freeness():
    inp = ConcentrationBoundInput(2, integer_interval(1), Fraction(1, 10),
                                  integer_interval(20))
    phi = all_patterns(integer_interval(1), 2)[0]
    bad = ConcentrationBoundInput(2, integer_interval(1), Fraction(1, 10),
                                  integer_interval(20, start=0))
    # D = {0..19} on a 10-point cycle collides
    with pytest.raises(GroupError):
        mc_deviation_prob(bad, CyclicTranslation(10), 0, phi, 10, seed=0)


def test_sweep_bounds_hold_small():
    # reduced version of the randomized sweep invariant
    grid = [(k, integer_interval(s), Fraction(1, 5), integer_interval(d))
            for k in (2, 3) for s in (1, 2, 3) for d in (500, 1500)]
    rows = deviation_sweep(grid, lambda k, S, e, D: CyclicTranslation(20_000),
                           trials=2000, seed=13)
    floor = wilson_zero_floor(2000)
    for r in rows:
        assert r.verdict != "fail"
        if r.verdict == "pass" and r.bound >= floor:
            assert r.wilson_upper <= r.bound
        assert abs(r.expectation_zscore) <= 3.0


def test_familywise_z_limits():
    assert familywise_z(1) == pytest.approx(3.0)
    assert familywise_z(14) == pytest.approx(3.73, abs=0.01)
    assert familywise_z(2) < familywise_z(14) < familywise_z(100)
    with pytest.raises(ValueError):
        familywise_z(0)


def _sweep_with_zscores(monkeypatch, zscores):
    # one non-vacuous point per z-score; the estimate itself sits below the bound
    def fake_mc(inp, action, x, phi, trials, seed):
        z = next(it)
        return McEstimate(trials, 0, 0.0, 1e-3, 0.0, 100.0 + z, 100.0, z)

    it = iter(zscores)
    monkeypatch.setattr(concentration, "mc_deviation_prob", fake_mc)
    grid = [(2, integer_interval(1), Fraction(1, 5), integer_interval(2000))] * len(zscores)
    return deviation_sweep(grid, lambda k, S, e, D: CyclicTranslation(10_000),
                           trials=100, seed=0)


def test_sweep_verdict_uses_familywise_limit(monkeypatch):
    z_star = familywise_z(14)
    inside = _sweep_with_zscores(monkeypatch, [-3.5] + [0.0] * 13)
    assert 3.0 < 3.5 < z_star
    assert [r.verdict for r in inside] == ["pass"] * 14
    assert inside[0].expectation_zscore == -3.5
    outside = _sweep_with_zscores(monkeypatch, [0.0] * 13 + [z_star + 0.05])
    assert [r.verdict for r in outside] == ["pass"] * 13 + ["fail"]
    # a single tested point keeps the plain 3-sigma rule
    assert _sweep_with_zscores(monkeypatch, [3.5])[0].verdict == "fail"


def test_mc_on_torus_action():
    from shiftlab.groups import GroupCtx, TorusTranslation, gset
    L2 = GroupCtx("lattice", 2)
    S = gset(L2, [(0, 0)])
    D = gset(L2, [(i, j) for i in range(10) for j in range(10)])
    inp = ConcentrationBoundInput(2, S, Fraction(1, 4), D)
    phi = all_patterns(S, 2)[0]
    est = mc_deviation_prob(inp, TorusTranslation(30, 30), 5, phi, 800, seed=12)
    assert est.expected_occurrences == 50.0
    assert est.expectation_within_3sigma
    assert est.wilson_95_upper <= 1.0


def _mc_oracle(inp, action, x, phi, trials, seed):
    """mc_deviation_prob one trial at a time: each trial colors the sites of
    SD.x from its own color_matrix row and counts occurrences site by site."""
    from shiftlab.groups import set_product
    from shiftlab.rng import color_matrix, derive_seed
    S, D, k = inp.S, inp.D, inp.k
    sites = []
    for e in set_product(S, D).elements:
        y = action.act(e, x)
        if y not in sites:
            sites.append(y)
    target = Fraction(1, k ** len(S))
    run_seed = derive_seed(seed, 0xC0)
    counts = []
    for r in range(trials):
        row = color_matrix(run_seed, 1, len(sites), k, row_offset=r)[0]
        color = dict(zip(sites, row.tolist()))
        counts.append(sum(
            all(color[action.act(S.ctx.op(s, d), x)] == c for s, c in phi.items())
            for d in D.elements))
    hits = sum(abs(Fraction(c, len(D)) - target) >= inp.eps for c in counts)
    return hits, Fraction(sum(counts), trials)


_MC_SETS = {  # name -> elements in the integers; intervals and gapped sets
    "0": [0], "01": [0, 1], "-1,2": [-1, 2], "012": [0, 1, 2],
    "0..5": list(range(6)), "0,2,5": [0, 2, 5], "-3,-2,4": [-3, -2, 4],
}


@settings(max_examples=60, deadline=None)
@given(s_name=st.sampled_from(["0", "01", "-1,2", "012"]),
       d_name=st.sampled_from(["0", "0..5", "0,2,5", "-3,-2,4"]),
       k=st.sampled_from([2, 3]), colors=st.lists(st.integers(0, 2), min_size=3, max_size=3),
       eps=st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]),
       modulus=st.integers(12, 20), x=st.integers(0, 19),
       trials=st.integers(1, 25), chunk=st.sampled_from([None, 1, 2, 7, 40]),
       seed=st.integers(0, 2 ** 32))
def test_mc_matches_per_trial_oracle(s_name, d_name, k, colors, eps, modulus, x,
                                     trials, chunk, seed):
    # interval S and D read their columns as slices, gapped sets gather them;
    # x and the modulus move the sites around the cycle
    from shiftlab.groups import GroupCtx, gset
    from shiftlab.shift import Pattern
    Z = GroupCtx("integers")
    S, D = gset(Z, _MC_SETS[s_name]), gset(Z, _MC_SETS[d_name])
    phi = Pattern(S, tuple(c % k for c in colors[:len(S)]), k)
    inp = ConcentrationBoundInput(k, S, eps, D)
    action = CyclicTranslation(modulus)
    est = mc_deviation_prob(inp, action, x % modulus, phi, trials, seed, chunk=chunk)
    hits, mean = _mc_oracle(inp, action, x % modulus, phi, trials, seed)
    assert (est.trials, est.hits) == (trials, hits)
    assert est.estimate == hits / trials
    assert est.mean_occurrences == float(mean)


def test_mc_matches_per_trial_oracle_on_torus():
    from shiftlab.groups import GroupCtx, TorusTranslation, gset
    from shiftlab.shift import Pattern
    L2 = GroupCtx("lattice", 2)
    S = gset(L2, [(0, 0), (0, 1)])
    D = gset(L2, [(0, 0), (1, 0), (1, 1), (2, 3)])
    inp = ConcentrationBoundInput(2, S, Fraction(1, 4), D)
    phi = Pattern(S, (1, 0), 2)
    action = TorusTranslation(5, 6)
    for chunk in (None, 1, 3):
        est = mc_deviation_prob(inp, action, 7, phi, 30, seed=9, chunk=chunk)
        hits, mean = _mc_oracle(inp, action, 7, phi, 30, seed=9)
        assert est.hits == hits and est.mean_occurrences == float(mean)


def test_mc_rejects_zero_trials():
    inp = ConcentrationBoundInput(2, integer_interval(1), Fraction(1, 10),
                                  integer_interval(5))
    phi = all_patterns(integer_interval(1), 2)[0]
    with pytest.raises(ValueError, match="trials"):
        mc_deviation_prob(inp, CyclicTranslation(100), 0, phi, 0, seed=0)
