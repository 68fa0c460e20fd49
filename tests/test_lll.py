import math
from fractions import Fraction

import pytest

from shiftlab.groups import (CyclicTranslation, GroupCtx, gset, integer_interval,
                             set_product)
from shiftlab.lll import (CertificationError, ExplicitEvent,
                          FrequencyDeviationEvent, GLLLWitnessSpec,
                          check_glll_witness, event_holds,
                          event_probability_exact, explicit_expansion,
                          find_log_growth_constant, find_slll_threshold,
                          induced_event, slll_stats,
                          standard_witness_from_slll)
from shiftlab.shift import Config, Pattern, all_patterns

Z = GroupCtx("integers")


# -- events -----------------------------------------------------------------


def test_explicit_event_holds():
    phi = Pattern.from_map(Z, {0: 1, 1: 0}, 2)
    ev = ExplicitEvent((phi,), 2)
    assert event_holds(ev, Config.from_array(integer_interval(2), [1, 0]))
    assert not event_holds(ev, Config.from_array(integer_interval(2), [1, 1]))
    with pytest.raises(ValueError):
        event_holds(ev, Config.from_array(gset(Z, [5]), [1]))  # not total on F


def test_frequency_event_balanced_window_avoids():
    # ten sites, five of each color: frequency exactly 1/2 for both patterns
    ev = FrequencyDeviationEvent(2, integer_interval(1), Fraction(1, 10),
                                 integer_interval(10))
    balanced = Config.from_array(integer_interval(10), [0, 1] * 5)
    assert not event_holds(ev, balanced)
    constant = Config.from_array(integer_interval(10), [1] * 10)
    assert event_holds(ev, constant)  # frequency 1 for one pattern


def test_frequency_event_agrees_with_expansion():
    # tiny domains: the predicate equals the explicit pattern list
    ev = FrequencyDeviationEvent(2, integer_interval(1), Fraction(2, 5),
                                 integer_interval(4))
    exp = explicit_expansion(ev)
    for pat in all_patterns(ev.domain, 2):
        c = Config.from_array(ev.domain, pat.colors)
        assert event_holds(ev, c) == event_holds(exp, c)
    assert event_probability_exact(ev) == Fraction(len(exp.patterns), 16)


def test_event_probability_exact_is_count_ratio():
    phi1 = Pattern.from_map(Z, {0: 0, 1: 0}, 2)
    phi2 = Pattern.from_map(Z, {0: 1, 1: 1}, 2)
    ev = ExplicitEvent((phi1, phi2), 2)
    assert event_probability_exact(ev) == Fraction(2, 4)


# -- induced copies -----------------------------------------------------------


def test_induced_event_translation():
    ev = FrequencyDeviationEvent(2, integer_interval(1), Fraction(1, 4),
                                 integer_interval(2))
    ind = induced_event(ev, CyclicTranslation(30), 5)
    assert ind.domain_points == (5, 6)
    assert not ind.collapsed


def test_induced_event_collapse():
    # F = {0, 10} on a 10-cycle collapses to a single point
    phi_mixed = Pattern.from_map(Z, {0: 0, 10: 1}, 2)
    phi_const = Pattern.from_map(Z, {0: 0, 10: 0}, 2)
    act = CyclicTranslation(10)
    ind_mixed = induced_event(ExplicitEvent((phi_mixed,), 2), act, 3)
    ind_const = induced_event(ExplicitEvent((phi_const,), 2), act, 3)
    assert ind_mixed.domain_points == (3,) and ind_mixed.collapsed
    coloring = [0] * 10
    assert not ind_mixed.holds_on(coloring)   # incompatible after collapse
    assert ind_const.holds_on(coloring)
    coloring[3] = 1
    assert not ind_const.holds_on(coloring)


# -- symmetric certification ---------------------------------------------------


def test_slll_stats_interval_example():
    S, D = integer_interval(1), integer_interval(4000)
    st = slll_stats(2, S, Fraction(1, 10), D, degree_mode="auto")
    assert st.p_bound == pytest.approx(4 * math.exp(-20), rel=1e-12)
    sd = set_product(S, D)
    assert st.d_bound == 2 * len(sd) - 2    # exact difference-set law
    assert st.slll_margin == pytest.approx(math.e * 4 * math.exp(-20) * 7999, rel=1e-12)
    assert st.certified


def test_slll_margin_vacuous_at_eps_zeroish():
    st = slll_stats(2, integer_interval(1), Fraction(1, 10 ** 6), integer_interval(100))
    assert st.slll_margin > 1  # margin -> e * 2k (d+1) as eps -> 0


def test_generic_cap_dominates_exact():
    S, D = integer_interval(2), gset(Z, [0, 3, 11, 20, 45])
    st_auto = slll_stats(2, S, "0.2", D, degree_mode="auto")
    st_cap = slll_stats(2, S, "0.2", D, degree_mode="generic")
    assert st_auto.d_bound <= st_cap.d_bound == len(S) ** 2 * len(D) ** 2 - 1


def oracle_threshold(k, s_sz, eps, cap):
    """Independent margin scan, generic degree cap."""
    last_bad = 0
    for m in range(1, cap + 1):
        margin = math.e * 2 * k ** s_sz * math.exp(-eps * eps * m / (2 * s_sz ** 3)) \
            * (s_sz * m) ** 2
        if margin >= 1:
            last_bad = m
    return last_bad + 1


def test_threshold_bracketing_example():
    res = find_slll_threshold(2, integer_interval(1), "0.1", shape="generic",
                              search_cap=10_000)
    assert res.found and 3000 < res.threshold <= 4000
    assert res.threshold == oracle_threshold(2, 1, 0.1, 5000) == 3772
    assert res.case == "crossing"
    assert res.stationary_point == 400


def test_threshold_monotone_in_eps():
    t1 = find_slll_threshold(2, integer_interval(1), "0.1", shape="generic").threshold
    t2 = find_slll_threshold(2, integer_interval(1), "0.5", shape="generic").threshold
    assert t2 < t1
    assert t2 < 200
    assert t2 == oracle_threshold(2, 1, 0.5, 1000)


def test_threshold_not_found_within_cap():
    res = find_slll_threshold(2, integer_interval(1), "0.01", shape="generic",
                              search_cap=1000)
    assert not res.found and res.threshold is None


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
    d_seq = [integer_interval(4000)]
    spec = GLLLWitnessSpec(a=0.0025)
    rep = check_glll_witness(2, S, "0.1", d_seq, spec, degree_mode="interval")
    assert rep.witness_ok
    # and fails with the generic cap (the cap is too lossy here)
    rep2 = check_glll_witness(2, S, "0.1", d_seq, spec, degree_mode="generic")
    assert not rep2.witness_ok


def test_slll_implies_glll_standard_witness():
    # e p (d+1) < 1 admits the uniform witness 1/(d+1): p <= w (1-w)^d
    st = slll_stats(2, integer_interval(1), "0.1", integer_interval(4000))
    w = standard_witness_from_slll(st)
    assert st.p_bound <= w * (1 - w) ** st.d_bound


def test_find_log_growth_constant_properties():
    S = integer_interval(1)
    C = find_log_growth_constant(2, S, "0.3", a=0.02, eps_sum="0.1")
    assert C * 0.02 > 1.0  # series convergence necessity
    C_relaxed = find_log_growth_constant(2, S, "0.3", a=0.02, eps_sum="0.5")
    assert C_relaxed <= C + 1e-6
    # the checker accepts the sequence D_n = {0..ceil(C log(n+2))-1}
    d_seq = [integer_interval(math.ceil(C * math.log(n + 2))) for n in range(50)]
    rep = check_glll_witness(2, S, "0.3", d_seq, GLLLWitnessSpec(a=0.02, C=C),
                             eps_sum="0.1", degree_mode="generic")
    assert rep.ok


def test_find_log_growth_constant_validates_a():
    with pytest.raises(CertificationError):
        find_log_growth_constant(2, integer_interval(1), "0.1", a=0.01, eps_sum="0.1")


def test_frequency_event_domain_is_built_once():
    S, D = gset(Z, [-1, 2]), integer_interval(40, start=3)
    ev = FrequencyDeviationEvent(2, S, Fraction(1, 10), D)
    assert ev.domain is ev.domain
    assert ev.domain == set_product(S, D)
    assert ev == FrequencyDeviationEvent(2, S, Fraction(1, 10), D)
