from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.groups import CyclicTranslation, GroupCtx, GroupSet, integer_interval
from shiftlab.shift import (AtomCylinders, BoundaryError, Config, EmpiricalMeasure,
                            Pattern, UniformCylinders, all_patterns, as_fraction,
                            cylinder_distance, discrepancy, empirical_freq,
                            empirical_measure, occurrences, pointwise_average,
                            sample_uniform_config)

gset = GroupSet.from_iterable
Z = GroupCtx("integers")


def brute_occurrences(phi: Pattern, c: Config):
    """Oracle: scan every conceivable placement directly."""
    window = [int(e) for e in c.domain.elements]
    lo, hi = min(window), max(window)
    out = set()
    for g in range(lo - 10, hi + 11):
        ok = True
        for s, col in phi.items():
            v = c.get(int(s) + g)
            if v != col:
                ok = False
                break
        if ok:
            out.add(g)
    return out


def test_occurrences_example():
    c = Config.from_array(integer_interval(5), [0, 1, 0, 1, 0])
    phi = Pattern.from_map(Z, {0: 0, 1: 1}, 2)
    assert set(occurrences(phi, c).elements) == {0, 2}
    assert set(occurrences(phi, c).elements) == brute_occurrences(phi, c)


def test_occurrences_constant():
    c = Config.from_array(integer_interval(10), [0] * 10)
    phi = Pattern.from_map(Z, {0: 0, 1: 0}, 2)
    assert set(occurrences(phi, c).elements) == set(range(9))


def test_empty_domain_pattern_rejected():
    with pytest.raises(ValueError):
        Pattern(gset(Z, []), (), 2)


@given(st.integers(0, 2 ** 12 - 1), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_occurrences_match_oracle(code, width):
    colors = [(code >> i) & 1 for i in range(12)]
    c = Config.from_array(integer_interval(12), colors)
    phi = Pattern.from_map(Z, {i: (code >> (i + width)) & 1 for i in range(width + 1)}, 2)
    assert set(occurrences(phi, c).elements) == brute_occurrences(phi, c)


def test_empirical_freq_examples():
    c = Config.from_array(integer_interval(5), [0, 1, 0, 1, 0])
    phi = Pattern.from_map(Z, {0: 0, 1: 1}, 2)
    assert empirical_freq(phi, c, integer_interval(4)) == Fraction(2, 4)
    const = Config.from_array(integer_interval(6), [1] * 6)
    assert empirical_freq(Pattern.from_map(Z, {0: 1, 1: 1}, 2), const,
                          integer_interval(5)) == 1
    assert empirical_freq(Pattern.from_map(Z, {0: 0, 1: 1}, 2), const,
                          integer_interval(5)) == 0


def test_empirical_freq_boundary_error_names_translate():
    c = Config.from_array(integer_interval(5), [0, 1, 0, 1, 0])
    phi = Pattern.from_map(Z, {0: 0, 1: 1}, 2)
    with pytest.raises(BoundaryError, match="5"):
        empirical_freq(phi, c, integer_interval(5))


def test_freq_count_consistency():
    c = Config.from_array(integer_interval(9), [0, 1, 1, 0, 1, 0, 0, 1, 1])
    phi = Pattern.from_map(Z, {0: 1, 1: 0}, 2)
    D = integer_interval(8)
    f = empirical_freq(phi, c, D)
    occ = set(occurrences(phi, c).elements)
    assert f * len(D) == len(occ & set(D.elements))


@pytest.mark.parametrize("s_size", [1, 2, 3])
def test_partition_identity_exhaustive(s_size):
    # every position realizes exactly one pattern, so frequencies sum to 1
    S = integer_interval(s_size)
    rng = np.random.default_rng(11 + s_size)
    colors = rng.integers(0, 2, size=12).tolist()
    c = Config.from_array(integer_interval(12), colors)
    D = integer_interval(12 - s_size)
    total = sum(empirical_freq(p, c, D) for p in all_patterns(S, 2))
    assert total == 1


def test_equivariance():
    rng = np.random.default_rng(3)
    c = Config.from_array(integer_interval(14), rng.integers(0, 2, 14).tolist())
    phi = Pattern.from_map(Z, {0: 1, 2: 0}, 2)
    for g in [-3, -1, 1, 4]:
        shifted = c.shifted(g)
        lhs = set(occurrences(phi, shifted).elements)
        rhs = {o - g for o in occurrences(phi, c).elements}
        assert lhs == rhs


def test_pointwise_average():
    act = CyclicTranslation(4)
    D = integer_interval(4)
    assert pointwise_average(lambda p: 1.0, 0, D, act) == 1.0
    ind = lambda p: 1.0 if p == 0 else 0.0
    assert pointwise_average(ind, 0, D, act) == 0.25


def test_empirical_measure_multiplicity():
    act = CyclicTranslation(5)
    m = empirical_measure(0, gset(Z, [0, 5, 1]), act)
    assert dict(m.atoms) == {0: Fraction(2, 3), 1: Fraction(1, 3)}
    point = empirical_measure(2, gset(Z, [7]), act)
    assert point.atoms == ((4, Fraction(1)),)


def test_empirical_measure_free_case_uniform():
    act = CyclicTranslation(100)
    D = gset(Z, [0, 3, 17, 42])
    m = empirical_measure(5, D, act)
    assert all(w == Fraction(1, 4) for _a, w in m.atoms)


def test_measure_mass_equals_indicator_average():
    act = CyclicTranslation(30)
    D = gset(Z, [0, 2, 5, 9, 14])
    A = {1, 4, 7, 11, 16, 19}
    for x in [0, 3, 28]:
        m = empirical_measure(x, D, act)
        avg = pointwise_average(lambda p: 1.0 if p in A else 0.0, x, D, act)
        assert m.mass(A) == as_fraction(avg)


def test_measure_weights_validated():
    with pytest.raises(ValueError):
        EmpiricalMeasure(((0, Fraction(1, 2)),))


def test_discrepancy_constant_and_full_orbit():
    act = CyclicTranslation(24)
    assert discrepancy(lambda p: 3.0, 3.0, integer_interval(7), act) == 0.0
    rng = np.random.default_rng(0)
    vals = rng.random(24)
    full = integer_interval(24)
    assert discrepancy(vals, float(vals.mean()), full, act) < 1e-12


def test_discrepancy_single_site_half_coloring():
    # half the points colored 1, f = -1 + 2*color, singleton averaging set
    act = CyclicTranslation(10)
    colors = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0])
    f = -1.0 + 2.0 * colors
    assert discrepancy(f, 0.0, gset(Z, [0]), act) == 1.0


def test_sample_uniform_config_reproducible_and_uniform():
    W = integer_interval(10_000)
    c1 = sample_uniform_config(W, 2, seed=9)
    c2 = sample_uniform_config(W, 2, seed=9)
    assert c1.values == c2.values
    ones = sum(c1.values.values())
    # 4 sigma binomial window
    assert abs(ones - 5000) < 4 * (10_000 * 0.25) ** 0.5


def test_cylinder_distance():
    u2 = UniformCylinders(2)
    phi = Pattern.from_map(Z, {0: 0}, 2)
    assert cylinder_distance(u2, u2, [phi]) == 0
    const0 = Config.from_array(integer_interval(3), [0, 0, 0])
    point_mass = AtomCylinders([(const0, 1)])
    assert cylinder_distance(point_mass, u2, [phi]) == Fraction(1, 2)
    outside = Pattern.from_map(Z, {7: 0}, 2)
    with pytest.raises(BoundaryError):
        cylinder_distance(point_mass, u2, [outside])
