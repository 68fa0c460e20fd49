from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.groups import GroupSet, integer_interval
from shiftlab.shift import Pattern, all_patterns

from oracles import empirical_freq, occurrences


def brute_occurrences(phi: Pattern, c: dict):
    """Every placement within 10 sites of the window, tested site by site."""
    return {g for g in range(min(c) - 10, max(c) + 11)
            if all(c.get(s + g) == col for s, col in phi.items())}


def test_occurrences_example():
    c = dict(enumerate([0, 1, 0, 1, 0]))
    phi = Pattern.from_map({0: 0, 1: 1}, 2)
    assert occurrences(phi, c) == {0, 2}
    assert occurrences(phi, c) == brute_occurrences(phi, c)


def test_occurrences_constant():
    c = dict(enumerate([0] * 10))
    phi = Pattern.from_map({0: 0, 1: 0}, 2)
    assert occurrences(phi, c) == set(range(9))


def test_empty_domain_pattern_rejected():
    with pytest.raises(ValueError):
        Pattern(GroupSet([]), (), 2)


@given(st.integers(0, 2 ** 12 - 1), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_occurrences_match_oracle(code, width):
    colors = [(code >> i) & 1 for i in range(12)]
    c = dict(enumerate(colors))
    phi = Pattern.from_map({i: (code >> (i + width)) & 1 for i in range(width + 1)}, 2)
    assert occurrences(phi, c) == brute_occurrences(phi, c)


def test_empirical_freq_examples():
    c = dict(enumerate([0, 1, 0, 1, 0]))
    phi = Pattern.from_map({0: 0, 1: 1}, 2)
    assert empirical_freq(phi, c, integer_interval(4)) == Fraction(2, 4)
    const = dict(enumerate([1] * 6))
    assert empirical_freq(Pattern.from_map({0: 1, 1: 1}, 2), const,
                          integer_interval(5)) == 1
    assert empirical_freq(Pattern.from_map({0: 0, 1: 1}, 2), const,
                          integer_interval(5)) == 0


def test_empirical_freq_boundary_error_names_translate():
    c = dict(enumerate([0, 1, 0, 1, 0]))
    phi = Pattern.from_map({0: 0, 1: 1}, 2)
    with pytest.raises(KeyError, match="5"):
        empirical_freq(phi, c, integer_interval(5))


def test_freq_count_consistency():
    c = dict(enumerate([0, 1, 1, 0, 1, 0, 0, 1, 1]))
    phi = Pattern.from_map({0: 1, 1: 0}, 2)
    D = integer_interval(8)
    f = empirical_freq(phi, c, D)
    occ = occurrences(phi, c)
    assert f * len(D) == len(occ & set(D.elements))


@pytest.mark.parametrize("s_size", [1, 2, 3])
def test_partition_identity_exhaustive(s_size):
    # every position realizes exactly one pattern, so frequencies sum to 1
    S = integer_interval(s_size)
    rng = np.random.default_rng(11 + s_size)
    colors = rng.integers(0, 2, size=12).tolist()
    c = dict(enumerate(colors))
    D = integer_interval(12 - s_size)
    total = sum(empirical_freq(p, c, D) for p in all_patterns(S, 2))
    assert total == 1


def test_equivariance():
    rng = np.random.default_rng(3)
    c = dict(enumerate(rng.integers(0, 2, 14).tolist()))
    phi = Pattern.from_map({0: 1, 2: 0}, 2)
    for g in [-3, -1, 1, 4]:
        shifted = {d - g: col for d, col in c.items()}
        lhs = occurrences(phi, shifted)
        rhs = {o - g for o in occurrences(phi, c)}
        assert lhs == rhs
