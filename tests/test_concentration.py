import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import concentration, rng
from shiftlab.concentration import (WILSON_Z95, McEstimate, concentration_bound, deviates,
                                    deviation_sweep, deviation_thresholds, familywise_z,
                                    mc_deviation_prob, wilson_interval)
from shiftlab.groups import CyclicTranslation, GroupError, GroupSet, integer_interval
from shiftlab.shift import all_patterns

from oracles import scb_bound


def _deviates_exact(c, d, k, s, eps):
    return abs(Fraction(c, d) - Fraction(1, k ** s)) >= eps


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.one_of(st.integers(1, 4), st.integers(30, 70)),
       st.integers(1, 60),
       st.fractions(min_value=Fraction(1, 1000), max_value=1, max_denominator=1000),
       st.data())
def test_deviates_is_the_exact_rational_test(k, s, d, eps, data):
    # |S| from 30 on puts k^|S| past int64 for k >= 3, and from 63 on for k = 2
    counts = data.draw(st.lists(st.integers(0, d), min_size=1, max_size=8))
    for c in counts:
        assert deviates(c, d, k, s, eps) == _deviates_exact(c, d, k, s, eps)
    # an array of counts against one |D|, for several sizes
    for m in (d, d + 1, 2 * d):
        assert deviates(np.array(counts), m, k, s, eps).tolist() == \
            [_deviates_exact(c, m, k, s, eps) for c in counts]


@pytest.mark.parametrize("eps", [Fraction(1, 10 ** 30), Fraction(10 ** 30 + 7, 3 * 10 ** 30)])
def test_deviates_takes_a_denominator_past_int64(eps):
    # the threshold is taken in Python ints: no int64 count meets the denominator
    counts = np.arange(81)
    for m in (40, 41, 80):
        assert deviates(counts, m, 2, 1, eps).tolist() == \
            [_deviates_exact(int(c), m, 2, 1, eps) for c in counts]


@pytest.mark.parametrize("eps", ["1e-30", Fraction(1, 2 ** 70), "0.3"],
                         ids=["1e-30", "2^-70", "0.3"])
def test_deviation_thresholds_are_the_least_deviating_gaps(eps):
    # the thresholds of several sizes at once are each size's own, and each is
    # the least gap |c k^|S| - |D|| at which deviates holds
    sizes = np.array([1, 40, 41, 80])
    least = deviation_thresholds(sizes, 3, 2, eps)
    assert least.shape == sizes.shape
    for d, t in zip(sizes.tolist(), least.tolist()):
        assert t == deviation_thresholds(d, 3, 2, eps)
        counts = np.arange(d + 1)
        assert deviates(counts, d, 3, 2, eps).tolist() == (np.abs(counts * 9 - d) >= t).tolist()
        assert Fraction(t, 9 * d) >= Fraction(eps) > Fraction(t - 1, 9 * d)


def test_scb_examples():
    assert scb_bound(1, 1.0, 0.0) == 2.0  # vacuous limit
    assert scb_bound(2000, 2.0, 0.2 * 2000) == pytest.approx(2 * math.exp(-10), rel=1e-12)


def test_scb_monotonicity():
    base = scb_bound(100, 1.0, 10.0)
    assert scb_bound(100, 1.0, 20.0) < base      # decreasing in t
    assert scb_bound(100, 2.0, 10.0) > base      # increasing in b
    assert scb_bound(200, 1.0, 10.0) > base      # increasing in s


def test_concentration_examples():
    assert concentration_bound(Fraction(1, 5), 2, 2000) == pytest.approx(2 * math.exp(-5),
                                                                         rel=1e-9)
    assert concentration_bound(Fraction(1, 10), 1, 1000) == pytest.approx(2 * math.exp(-5),
                                                                          rel=1e-9)
    assert concentration_bound(Fraction(100), 1, 1000) < 1e-300  # eps -> infinity limit


@pytest.mark.parametrize("eps, s_size, d_size, match", [
    (Fraction(0), 1, 10, "tolerance"), ("-0.1", 1, 10, "tolerance"),
    (Fraction(1, 10), 0, 10, "nonempty"), (Fraction(1, 10), 1, 0, "nonempty")])
def test_concentration_bound_rejects_degenerate_inputs(eps, s_size, d_size, match):
    with pytest.raises(ValueError, match=match):
        concentration_bound(eps, s_size, d_size)


@given(st.integers(1, 4), st.integers(1, 400),
       st.fractions(min_value="1/100", max_value="9/10"))
@settings(max_examples=60, deadline=None)
def test_bound_is_scb_substitution(s_sz, d_sz, eps):
    direct = concentration_bound(eps, s_sz, d_sz)
    via_scb = scb_bound(s_sz * d_sz, s_sz, float(eps) * d_sz)
    assert direct == pytest.approx(via_scb, rel=1e-9)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 10_000)
    assert lo == 0.0 and 0 < hi < 5e-4
    # zero hits: the upper limit is z^2 / (n + z^2)
    assert hi == pytest.approx(WILSON_Z95 ** 2 / (10_000 + WILSON_Z95 ** 2))
    lo, hi = wilson_interval(5000, 10_000)
    assert lo < 0.5 < hi


def test_mc_impossible_deviation_eps_ge_1():
    # frequency lives in [0,1] and the target is <= 1/2: deviation 1 never happens
    phi = all_patterns(integer_interval(1), 2)[0]
    est = mc_deviation_prob(phi, Fraction(1), integer_interval(50), CyclicTranslation(1000),
                            500, seed=4)
    assert est.hits == 0


def test_mc_singleton_always_deviates():
    # |D| = 1: frequency is 0 or 1, both at distance 1/2 >= 0.4 from the target
    phi = all_patterns(integer_interval(1), 2)[0]
    est = mc_deviation_prob(phi, Fraction(2, 5), integer_interval(1), CyclicTranslation(100),
                            400, seed=4)
    assert est.estimate == 1.0
    assert concentration_bound(Fraction(2, 5), 1, 1) > 1.0  # vacuous, consistent


def test_mc_expectation_identity():
    phi = all_patterns(integer_interval(2), 2)[0]
    est = mc_deviation_prob(phi, Fraction(1, 10), integer_interval(400),
                            CyclicTranslation(5000), 3000, seed=8)
    # the z-score measures the mean count against |D| / k^{|S|} = 400 / 4; the
    # count of 00 over 400 sites has variance 400 (3/16) + 2 * 399 (1/8 - 1/16)
    sigma = math.sqrt((400 * 3 / 16 + 2 * 399 / 16) / 3000)
    assert abs(est.expectation_zscore) <= 3.0
    assert est.expectation_zscore == pytest.approx((est.mean_occurrences - 100) / sigma,
                                                   rel=0.1)


@pytest.mark.parametrize("seed, mean, z", [(4, 20.0, -math.inf), (3, 33.0, math.inf),
                                           (0, 25.0, 0.0)])
def test_mc_zero_variance_zscore_has_the_sign_of_the_miss(seed, mean, z):
    # one trial has zero variance: the z-score is infinite with the sign of
    # mean - expected, or 0 when the mean is exact
    phi = all_patterns(integer_interval(1), 2)[0]
    est = mc_deviation_prob(phi, Fraction(1, 10), integer_interval(50),
                            CyclicTranslation(1000), trials=1, seed=seed)
    expected = 50 / 2  # |D| / k^{|S|}
    assert est.mean_occurrences == mean
    assert est.expectation_zscore == z == (
        0.0 if mean == expected else math.copysign(math.inf, mean - expected))


def test_mc_requires_freeness():
    phi = all_patterns(integer_interval(1), 2)[0]
    # D = {0..19} on a 10-point cycle collides
    with pytest.raises(GroupError):
        mc_deviation_prob(phi, Fraction(1, 10), integer_interval(20), CyclicTranslation(10),
                          10, seed=0)
    # S = {0, 10} collides on the same cycle, wherever it is anchored
    phi = all_patterns(GroupSet([0, 10]), 2)[0]
    with pytest.raises(GroupError):
        mc_deviation_prob(phi, Fraction(1, 10), integer_interval(3), CyclicTranslation(10),
                          10, seed=0)


def test_sweep_bounds_hold_small():
    # reduced version of the randomized sweep invariant
    grid = [(k, integer_interval(s), Fraction(1, 5), integer_interval(d))
            for k in (2, 3) for s in (1, 2, 3) for d in (500, 1500)]
    rows = deviation_sweep(grid, CyclicTranslation(20_000), trials=2000, seed=13)
    floor = wilson_interval(0, 2000)[1]
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
    def fake_mc(phi, eps, D, action, trials, seed):
        z = next(it)
        return McEstimate(0, 0.0, 1e-3, 0.0, 100.0 + z, z)

    it = iter(zscores)
    monkeypatch.setattr(concentration, "mc_deviation_prob", fake_mc)
    grid = [(2, integer_interval(1), Fraction(1, 5), integer_interval(2000))] * len(zscores)
    return deviation_sweep(grid, CyclicTranslation(10_000), trials=100, seed=0)


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


def _mc_oracle(phi, eps, D, action, x, trials, seed):
    """mc_deviation_prob one trial at a time, from the anchor x: each trial
    colors the sites of SD.x from its own color_matrix row and counts
    occurrences site by site, translating each site s + d to
    (x + s + d) mod M.  On an (S, D)-free action every anchor gives the
    estimate that mc_deviation_prob samples from point 0."""
    from shiftlab.groups import set_product
    from shiftlab.rng import color_matrix, derive_seed
    S, k, M = phi.domain, phi.k, action.modulus
    sites = []
    for e in set_product(S, D).elements:
        y = (x + e) % M
        if y not in sites:
            sites.append(y)
    target = Fraction(1, k ** len(S))
    run_seed = derive_seed(seed, 0xC0)
    counts = []
    for r in range(trials):
        row = color_matrix(run_seed, 1, len(sites), k, row_offset=r)[0]
        color = dict(zip(sites, row.tolist()))
        counts.append(sum(
            all(color[(x + s + d) % M] == c for s, c in phi.items())
            for d in D.elements))
    hits = sum(abs(Fraction(c, len(D)) - target) >= eps for c in counts)
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
    # the oracle's anchor x and the modulus move the sites around the cycle,
    # where they may wrap onto each other
    from shiftlab.shift import Pattern
    S, D = GroupSet(_MC_SETS[s_name]), GroupSet(_MC_SETS[d_name])
    phi = Pattern(S, tuple(c % k for c in colors[:len(S)]), k)
    action = CyclicTranslation(modulus)
    est = mc_deviation_prob(phi, eps, D, action, trials, seed, chunk=chunk)
    hits, mean = _mc_oracle(phi, eps, D, action, x % modulus, trials, seed)
    assert est.hits == hits
    assert est.estimate == hits / trials
    assert est.mean_occurrences == float(mean)


def test_mc_matches_per_trial_oracle_on_the_numpy_path(monkeypatch):
    # the same property where rng.pattern_counts counts with numpy, as it
    # does wherever the C kernel does not load
    monkeypatch.setattr(rng, "_kernel", False)
    test_mc_matches_per_trial_oracle()


def test_mc_rejects_zero_trials():
    phi = all_patterns(integer_interval(1), 2)[0]
    with pytest.raises(ValueError, match="trials"):
        mc_deviation_prob(phi, Fraction(1, 10), integer_interval(5), CyclicTranslation(100),
                          0, seed=0)


@pytest.mark.parametrize("eps, D, match", [
    (Fraction(0), integer_interval(5), "tolerance"),
    (Fraction(1, 10), GroupSet(()), "nonempty")])
def test_mc_rejects_degenerate_eps_and_empty_d(eps, D, match):
    phi = all_patterns(integer_interval(1), 2)[0]
    with pytest.raises(ValueError, match=match):
        mc_deviation_prob(phi, eps, D, CyclicTranslation(100), 10, seed=0)
