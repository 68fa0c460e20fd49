import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.concentration import deviation_exponent
from shiftlab.groups import GroupSet, integer_interval, set_product
from shiftlab.lll import (SEARCH_CAP, CertificationError, FrequencyDeviationEvent,
                          GLLLWitnessSpec, InstanceStats, _neighbor_count, check_glll_witness,
                          find_log_growth_constant, find_slll_threshold, p_bound_freq,
                          slll_stats)
from shiftlab.shift import all_patterns

from oracles import difference_set_size, event_holds, event_probability_exact


# -- events -----------------------------------------------------------------


def test_frequency_event_balanced_window_avoids():
    # ten sites, five of each color: frequency exactly 1/2 for both patterns
    ev = FrequencyDeviationEvent(2, integer_interval(1), Fraction(1, 10),
                                 integer_interval(10))
    assert not event_holds(ev, dict(enumerate([0, 1] * 5)))
    assert event_holds(ev, dict(enumerate([1] * 10)))  # frequency 1 for one pattern


def test_frequency_event_agrees_with_expansion():
    # a color seen c times over |D| = 4 misses 1/2 by eps = 2/5 or more only
    # at c = 0 and c = 4, so the event, expanded by hand, is the two
    # constant colorings
    ev = FrequencyDeviationEvent(2, integer_interval(1), Fraction(2, 5),
                                 integer_interval(4))
    for pat in all_patterns(ev.domain, 2):
        c = dict(zip(ev.domain.elements, pat.colors))
        assert event_holds(ev, c) == (len(set(pat.colors)) == 1)
    with pytest.raises(KeyError):
        event_holds(ev, {0: 1, 1: 1, 2: 1})  # not total on F


def test_event_probability_exact_is_count_ratio():
    ev = FrequencyDeviationEvent(2, integer_interval(1), Fraction(2, 5),
                                 integer_interval(4))
    assert event_probability_exact(ev) == Fraction(2, 16)


# -- symmetric certification ---------------------------------------------------


def test_slll_stats_interval_example():
    S, D = integer_interval(1), integer_interval(4000)
    st = slll_stats(2, S, Fraction(1, 10), D)
    assert st.p_bound == pytest.approx(4 * math.exp(-20), rel=1e-12)
    sd = set_product(S, D)
    assert st.d_bound == 2 * len(sd) - 2    # exact difference-set law
    assert st.slll_margin == pytest.approx(math.e * 4 * math.exp(-20) * 7999, rel=1e-12)
    assert st.certified


def test_slll_margin_vacuous_at_eps_zeroish():
    st = slll_stats(2, integer_interval(1), Fraction(1, 10 ** 6), integer_interval(100))
    assert st.slll_margin > 1  # margin -> e * 2k (d+1) as eps -> 0


def test_generic_cap_dominates_exact():
    # a set that is not an interval takes the generic cap, which bounds the
    # exact count |SD - SD| - 1 of the other events sharing a point
    S, D = integer_interval(2), GroupSet([0, 3, 11, 20, 45])
    st = slll_stats(2, S, "0.2", D)
    cap = _neighbor_count(len(S), len(D), len(D), intervals=False) - 1
    assert st.d_bound == cap == len(S) ** 2 * len(D) ** 2 - 1
    assert difference_set_size(S, D) - 1 <= cap


@pytest.mark.parametrize("d_size", [10_001, 15_946])
def test_auto_degree_of_a_large_interval_is_the_closed_form(d_size):
    # intervals take the closed form 2|SD| - 2 at every size, not the generic cap
    S, D = integer_interval(1), integer_interval(d_size)
    st = slll_stats(2, S, "0.04", D)
    assert st.d_bound == 2 * len(set_product(S, D)) - 2 == 2 * d_size - 2
    assert st.d_bound == _neighbor_count(1, d_size, d_size, intervals=True) - 1
    # at the threshold the margin certifies, as find_slll_threshold says
    thr = find_slll_threshold(2, S, "0.04", shape="interval")
    assert st.certified == (d_size >= thr.threshold) and thr.threshold == 15_946


def test_auto_degree_of_a_large_gapped_set_is_the_generic_cap():
    # |SD| = 10001 even integers: not an interval
    S, D = integer_interval(1), GroupSet(range(0, 20_002, 2))
    assert D.interval is None
    st = slll_stats(2, S, "0.04", D)
    assert st.d_bound == len(D) ** 2 - 1
    assert st.d_bound == _neighbor_count(1, len(D), len(D), intervals=False) - 1


def oracle_threshold(k, s_sz, eps, cap):
    """Independent margin scan, generic degree cap."""
    last_bad = 0
    for m in range(1, cap + 1):
        margin = math.e * 2 * k ** s_sz * math.exp(-eps * eps * m / (2 * s_sz ** 3)) \
            * (s_sz * m) ** 2
        if margin >= 1:
            last_bad = m
    return last_bad + 1


def shape_margin(k, S, eps, m, shape):
    """The margin at an interval D of size m with the degree bound of `shape`:
    slll_stats' own for "interval", the generic cap for "generic"."""
    st = slll_stats(k, S, eps, integer_interval(m))
    if shape == "generic":
        st = InstanceStats(st.p_bound, _neighbor_count(len(S), m, m, intervals=False) - 1)
    return st.slll_margin


def test_threshold_bracketing_example():
    res = find_slll_threshold(2, integer_interval(1), "0.1", shape="generic")
    assert res.threshold is not None and 3000 < res.threshold <= 4000
    assert res.threshold == oracle_threshold(2, 1, 0.1, 5000) == 3772
    assert res.stationary_point == 400


def test_threshold_monotone_in_eps():
    t1 = find_slll_threshold(2, integer_interval(1), "0.1", shape="generic").threshold
    t2 = find_slll_threshold(2, integer_interval(1), "0.5", shape="generic").threshold
    assert t2 < t1
    assert t2 < 200
    assert t2 == oracle_threshold(2, 1, 0.5, 1000)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4),
       st.fractions(min_value=0, max_value=1, max_denominator=200).filter(lambda e: 0 < e < 1),
       st.sampled_from(["interval", "generic"]))
def test_threshold_crosses_beyond_the_stationary_point(k, s, eps, shape):
    S = integer_interval(s)
    res = find_slll_threshold(k, S, eps, shape=shape)
    if res.threshold is not None:
        assert res.stationary_point < res.threshold <= SEARCH_CAP
        assert shape_margin(k, S, eps, res.threshold, shape) < 1
        assert shape_margin(k, S, eps, res.threshold - 1, shape) >= 1
    else:
        assert shape_margin(k, S, eps, SEARCH_CAP, shape) >= 1


def test_threshold_not_found_within_cap():
    # eps = 0.01 with the generic cap still ends above SEARCH_CAP = 100,000
    res = find_slll_threshold(2, integer_interval(1), "0.01", shape="generic")
    assert res.threshold is None
    assert shape_margin(2, integer_interval(1), "0.01", SEARCH_CAP, "generic") >= 1


# -- witnessed certification ----------------------------------------------------


def test_glll_toy_budget_sum():
    S = integer_interval(1)
    d_seq = [integer_interval(100), integer_interval(200)]
    spec = GLLLWitnessSpec(a=0.05)
    rep = check_glll_witness(2, S, "0.4", d_seq, spec, eps_sum="0.7")
    w0, w1 = math.exp(-5), math.exp(-10)
    oracle = 100 * w0 / (1 - w0) + 200 * w1 / (1 - w1)
    assert rep.budget_sum == pytest.approx(oracle, rel=1e-12)
    assert rep.budget_sum == pytest.approx(0.687446, abs=1e-6)
    assert rep.budget_ok


def test_glll_empty_sequence_vacuous():
    rep = check_glll_witness(2, integer_interval(1), "0.4", [],
                             GLLLWitnessSpec(a=0.05), eps_sum="0.1")
    assert rep.ok and rep.budget_sum == 0.0


def test_glll_rejects_a_out_of_range():
    # eps = 0.1, |S| = 1: the admissible interval is (0, eps^2/2) = (0, 0.005)
    with pytest.raises(CertificationError):
        check_glll_witness(2, integer_interval(1), "0.1", [integer_interval(10)],
                           GLLLWitnessSpec(a=0.006), eps_sum="0.1")
    with pytest.raises(CertificationError):
        GLLLWitnessSpec(a=-0.1)


def test_glll_single_event_interval_degrees():
    # the single 4000-interval instance passes with exact interval degrees
    S = integer_interval(1)
    spec = GLLLWitnessSpec(a=0.0025)
    rep = check_glll_witness(2, S, "0.1", [integer_interval(4000)], spec)
    assert rep.witness_ok
    # and fails on the 4000 even integers, which take the generic cap (the
    # cap is too lossy here)
    evens = GroupSet(range(0, 8000, 2))
    assert evens.interval is None
    rep2 = check_glll_witness(2, S, "0.1", [evens], spec)
    assert not rep2.witness_ok
    # the two differ only in the neighbor count
    (row,), (row2,) = [[r for r in x.records if r.inequality_id == "witness-product"]
                       for x in (rep, rep2)]
    assert row.lhs == row2.lhs
    # a failing row as a glll verdict failure reports it
    assert rep2.failing()[-1].to_json()["slack"] == row2.rhs - row2.lhs
    assert row2.rhs - row.rhs == pytest.approx(
        (_neighbor_count(1, 4000, 4000, False) - _neighbor_count(1, 4000, 4000, True))
        * math.log1p(-math.exp(-10)), rel=1e-9)


def test_glll_witness_reads_log_omega_where_omega_underflows():
    # omega = exp(-a |D|) is 0.0 in floating point here; its log is -a |D|
    a = 0.9 ** 2 / 4
    rep = check_glll_witness(2, integer_interval(1), "0.9", [integer_interval(4000)],
                             GLLLWitnessSpec(a=a))
    (row,) = [r for r in rep.records if r.inequality_id == "witness-product"]
    assert math.exp(-a * 4000) == 0.0 and row.rhs == -a * 4000
    assert rep.ok


def test_slll_implies_glll_standard_witness():
    # e p (d+1) < 1 admits the uniform witness 1/(d+1): p <= w (1-w)^d
    st = slll_stats(2, integer_interval(1), "0.1", integer_interval(4000))
    assert st.certified
    w = 1.0 / (st.d_bound + 1)
    assert st.p_bound <= w * (1 - w) ** st.d_bound


def test_find_log_growth_constant_properties():
    S = integer_interval(1)
    C = find_log_growth_constant(2, S, "0.3", a=0.02, eps_sum="0.1")
    assert C * 0.02 > 1.0  # series convergence necessity
    C_relaxed = find_log_growth_constant(2, S, "0.3", a=0.02, eps_sum="0.5")
    assert C_relaxed <= C + 1e-6
    # the checker accepts D_n = the first ceil(C log(n+2)) even integers,
    # gapped sets that take the generic neighbor cap
    d_seq = [GroupSet(range(0, 2 * math.ceil(C * math.log(n + 2)), 2)) for n in range(50)]
    rep = check_glll_witness(2, S, "0.3", d_seq, GLLLWitnessSpec(a=0.02, C=C),
                             eps_sum="0.1")
    assert rep.ok


def test_probability_bound_past_the_float_range_of_k_to_the_s():
    # 2 * 256^200 is past the float range: the bound is read from its logarithm
    log_patterns = math.log(2) + 200 * math.log(256)
    assert p_bound_freq(256, 200, 0.1, 1000) == math.inf
    p = p_bound_freq(256, 200, 0.1, 2 * 10 ** 12)
    assert 0 < p < 1e-60
    assert math.isclose(p, math.exp(log_patterns - deviation_exponent(0.1, 200, 2 * 10 ** 12)))
    # inside the range, the same float as the direct product
    assert p_bound_freq(2, 3, 0.1, 100) == 2.0 * 8 * math.exp(-deviation_exponent(0.1, 3, 100))
    # and the witness check reads log(2 k^|S|) from the int
    rep = check_glll_witness(256, integer_interval(200), "0.1", [integer_interval(10)],
                             GLLLWitnessSpec(a=1e-10))
    assert not rep.ok and rep.records[-1].lhs == pytest.approx(log_patterns)


def test_find_log_growth_constant_validates_a():
    with pytest.raises(CertificationError):
        find_log_growth_constant(2, integer_interval(1), "0.1", a=0.01, eps_sum="0.1")


def test_frequency_event_domain_is_built_once():
    S, D = GroupSet([-1, 2]), integer_interval(40, start=3)
    ev = FrequencyDeviationEvent(2, S, Fraction(1, 10), D)
    assert ev.domain is ev.domain
    assert ev.domain == set_product(S, D)
    assert ev == FrequencyDeviationEvent(2, S, Fraction(1, 10), D)
