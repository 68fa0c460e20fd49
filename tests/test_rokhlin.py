import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab.rokhlin import (TowerError, TowerSystem, bad_sequence_experiment,
                              build_tower, plan_intervals, verify_capture)


def oracle_minimal_n(eps: Fraction) -> int:
    n = 1
    while not (Fraction(2, n + 1) < eps and (1 - eps / 2) * Fraction(n, n + 1) > 1 - eps):
        n += 1
    return n


def test_plan_eps_01():
    plan = plan_intervals(lambda n: 50, "0.1")
    assert plan.N == 20 and plan.ell == 50
    assert oracle_minimal_n(Fraction(1, 10)) == 20
    # N = 19 fails the first inequality: 2/20 = 0.1 is not < 0.1
    assert not Fraction(2, 20) < Fraction(1, 10)


def test_plan_unit_lengths():
    plan = plan_intervals(lambda n: 1, "0.1")
    assert plan.ell == 1
    assert list(plan.interval(3)) == [3]
    assert all(len(plan.interval(n)) >= 1 for n in range(plan.N))


def test_plan_interval_lengths_cover_h():
    h = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2]
    plan = plan_intervals(h, "0.1")
    assert plan.ell == max(h[:plan.N])
    for n in range(plan.N):
        assert len(plan.interval(n)) == plan.ell >= h[n]


def test_plan_minimal_n_across_eps():
    for eps in ["0.5", "0.25", "0.125", "0.3"]:
        plan = plan_intervals(lambda n: 2, eps)
        assert plan.N == oracle_minimal_n(Fraction(eps))


def test_build_tower_exact_measures():
    plan = plan_intervals(lambda n: 50, "0.1")
    build = build_tower(plan, 420_000)
    assert build.mu_a == Fraction(2, 21)
    assert build.mu_a <= Fraction(2, plan.N + 1) < Fraction(1, 10)
    assert build.mu_b == Fraction(20, 21)
    assert build.mu_b >= (1 - Fraction(1, 20)) * Fraction(plan.N, plan.N + 1)
    assert build.tower.check_disjoint_levels()
    assert build.tower.residual == 0


def test_build_tower_with_residual():
    plan = plan_intervals(lambda n: 3, "0.25")
    M = plan.height * 8 + 5  # deliberately not a multiple of the height
    build = build_tower(plan, M)
    assert build.tower.residual == 5
    assert Fraction(build.tower.residual, M) <= Fraction(plan.eps, 2)
    assert build.mu_a < plan.eps and build.mu_b > 1 - plan.eps


def test_build_tower_rejects_small_modulus():
    plan = plan_intervals(lambda n: 50, "0.1")
    with pytest.raises(TowerError):
        build_tower(plan, plan.height * 5)


def test_capture_bulk_and_fraction():
    plan = plan_intervals(lambda n: 50, "0.1")
    build = build_tower(plan, 420_000)
    cap = verify_capture(build)
    assert cap.fraction >= 1 - plan.eps
    assert cap.all_b_captured
    # re-verify each witness by direct containment
    a_set = np.flatnonzero(build.a_mask)
    a_lookup = np.zeros(420_000, dtype=bool)
    a_lookup[a_set] = True
    rng = np.random.default_rng(0)
    for x in rng.integers(0, 420_000, size=200):
        n = cap.witnesses[x]
        if n >= 0:
            pts = (np.asarray(plan.interval(int(n))) + int(x)) % 420_000
            assert a_lookup[pts].all()
        else:
            assert not build.b_mask[x]  # uncaptured points sit outside the bulk


def test_capture_with_offset():
    plan = plan_intervals(lambda n: 5, "0.2")
    M = plan.height * 40
    build = build_tower(plan, M, offset=1234)
    cap = verify_capture(build)
    assert cap.fraction >= 1 - plan.eps
    assert cap.all_b_captured
    # witnesses are the least interval index, by per-point enumeration
    a = build.a_mask
    least = [next((n for n in range(plan.N)
                   if all(a[(x + j) % M] for j in plan.interval(n))), -1)
             for x in range(M)]
    assert cap.witnesses.tolist() == least


def test_bad_sequence_small():
    rep = bad_sequence_experiment(lambda n: 1, 3, seed=5)
    # exact tail measures
    for q, mu in rep.mu_tail.items():
        assert mu <= Fraction(1, 2 ** q)
    assert rep.mu_tail[3] == 0
    # stage bookkeeping: disjoint global index ranges
    starts = [s.n_start for s in rep.stages]
    for a, b in zip(rep.stages, rep.stages[1:]):
        assert b.n_start == a.n_start + a.plan.N
    # per-stage capture slabs are small
    for s in rep.stages:
        assert s.mu_a < s.eps
    # unit intervals capture everything, in every band, for every tail index
    for q, frac in rep.all_bands_frac.items():
        assert frac == 1
    for b in rep.band_rows:
        assert b.frac_full == b.frac_null == 1


def test_bad_sequence_respects_h():
    rep = bad_sequence_experiment(lambda n: 2 + (n % 3), 2, seed=1)
    for s in rep.stages:
        local_h = [2 + ((s.n_start + j) % 3) for j in range(s.plan.N)]
        assert s.plan.ell == max(local_h)


def test_bad_sequence_infeasible_schedule():
    with pytest.raises(TowerError):
        bad_sequence_experiment(lambda n: 997 + n, 6, seed=0, m_cap=10_000)


def test_tower_level_rows():
    from shiftlab.rokhlin import tower_level_rows
    plan = plan_intervals(lambda n: 2, "0.25")
    build = build_tower(plan, plan.height * 10)
    rows = list(tower_level_rows(build))
    assert len(rows) == plan.height
    assert sum(r[1] for r in rows) == 2 * plan.ell      # capture slab width
    assert sum(r[2] for r in rows) == plan.N * plan.ell  # bulk width


@st.composite
def towers_and_bands(draw):
    height = draw(st.integers(1, 12))
    modulus = height * draw(st.integers(1, 8)) + draw(st.integers(0, height - 1))
    start = draw(st.integers(0, height))
    return (modulus, height, draw(st.integers(-100, 100)),
            range(start, draw(st.integers(start, height))))


@given(towers_and_bands())
@example((19, 5, 40, range(1, 4)))   # residual 4, offset past M
@example((23, 4, -7, range(0, 4)))   # residual 3, the whole tower
@settings(max_examples=150, deadline=None)
def test_band_mask_matches_level_oracle(case):
    modulus, height, offset, band = case
    tower = TowerSystem.build(modulus, height, offset)
    lev = tower.level_array()
    expected = (lev >= band.start) & (lev < band.stop)
    assert tower.band_mask(band).tolist() == expected.tolist()
    assert tower.check_disjoint_levels()


def test_check_disjoint_levels_rejects_miscounted_tower():
    tower = TowerSystem.build(10, 3, offset=4)
    assert tower.check_disjoint_levels()
    assert not dataclasses.replace(tower, residual=2).check_disjoint_levels()
    assert not dataclasses.replace(tower, columns=4, residual=0).check_disjoint_levels()
    assert not dataclasses.replace(tower, height=2).check_disjoint_levels()


def brute_force_bands(rep):
    """band_rows and all_bands_frac by per-point enumeration of the interval
    translates against union sets read off the level oracle."""
    M = rep.modulus
    a_sets = []
    for s in rep.stages:
        lev = TowerSystem.build(M, s.plan.height, s.offset).level_array()
        a_sets.append({x for x in range(M) if lev[x] in s.plan.a_band})
        assert s.mu_a == Fraction(len(a_sets[-1]), M)
    rows, everywhere = [], {}
    for q in sorted(rep.mu_tail):
        union = set().union(*a_sets[q:])
        assert rep.mu_tail[q] == Fraction(len(union), M)
        in_every_band = set(range(M))
        for i in range(q, len(rep.stages)):
            plan = rep.stages[i].plan
            caught = {x for x in range(M)
                      if any(all((x + j) % M in union for j in plan.interval(n))
                             for n in range(plan.N))}
            rows.append((q, i, Fraction(len(caught), M)))
            in_every_band &= caught
        if q < len(rep.stages):
            everywhere[q] = Fraction(len(in_every_band), M)
    return rows, everywhere


@pytest.mark.parametrize("seed", [0, 11])
def test_bad_sequence_matches_enumeration(seed):
    rep = bad_sequence_experiment(lambda n: 2 + (n % 3), 3, seed=seed)
    assert all(s.plan.ell > 1 for s in rep.stages)
    rows, everywhere = brute_force_bands(rep)
    assert [(b.q, b.band, b.frac_full) for b in rep.band_rows] == rows
    assert all(b.frac_null == b.frac_full for b in rep.band_rows)
    assert rep.all_bands_frac == everywhere
