import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import rokhlin
from shiftlab.rokhlin import (TowerError, TowerSystem, bad_sequence_experiment,
                              build_tower, plan_intervals, verify_capture)

from test_windows import unpack


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


@given(st.fractions(min_value=0, max_value=1, max_denominator=400))
@example(Fraction(1, 2))
@example(Fraction(1, 10))    # 2/eps an integer: N = 20, as 2/20 < eps fails
@example(Fraction(1, 49))
@example(Fraction(3, 10))
@example(Fraction(119, 120))
@settings(max_examples=200, deadline=None)
def test_plan_minimal_n_across_eps(eps):
    if not 0 < eps < 1:
        with pytest.raises(TowerError):
            plan_intervals(lambda n: 2, eps)
        return
    plan = plan_intervals(lambda n: 2, eps)
    assert plan.N == oracle_minimal_n(eps)


def test_build_tower_exact_measures():
    plan = plan_intervals(lambda n: 50, "0.1")
    build = build_tower(plan, 420_000)
    assert build.mu_a == Fraction(2, 21)
    assert build.mu_a <= Fraction(2, plan.N + 1) < Fraction(1, 10)
    assert build.mu_b == Fraction(20, 21)
    assert build.mu_b >= (1 - Fraction(1, 20)) * Fraction(plan.N, plan.N + 1)
    assert build.tower.columns * build.tower.height == 420_000  # no residual


def test_build_tower_with_residual():
    plan = plan_intervals(lambda n: 3, "0.25")
    M = plan.height * 8 + 5  # deliberately not a multiple of the height
    build = build_tower(plan, M)
    residual = int((build.tower.level_array() < 0).sum())
    assert residual == M - build.tower.columns * plan.height == 5
    assert Fraction(residual, M) <= Fraction(plan.eps, 2)
    assert build.mu_a < plan.eps and build.mu_b > 1 - plan.eps


def test_build_tower_rejects_small_modulus():
    plan = plan_intervals(lambda n: 50, "0.1")
    with pytest.raises(TowerError):
        build_tower(plan, plan.height * 5)


def test_modulus_bound_is_exact():
    # 2 / float(1/49) lies just above 98, so a float ceiling would ask for 99 H
    plan = plan_intervals(lambda n: 1, Fraction(1, 49))
    assert plan.height == 99 and plan.min_modulus == 98 * 99
    assert build_tower(plan, 9702).tower.modulus == 9702
    with pytest.raises(TowerError, match="need >= 9702, got 9701"):
        build_tower(plan, 9701)


def test_capture_bulk_and_fraction():
    plan = plan_intervals(lambda n: 50, "0.1")
    build = build_tower(plan, 420_000)
    cap = verify_capture(build)
    assert cap.fraction >= 1 - plan.eps
    assert cap.all_b_captured
    # levels 0..N ell of each column reach the slab A; the top ell - 1 do not
    assert cap.fraction == Fraction(plan.N * plan.ell + 1, plan.height)
    # each sampled bulk point has an interval translate inside A, found by search
    a_lookup = unpack(build.a_mask, 420_000)
    b = unpack(build.tower.band_mask(plan.b_band), 420_000)
    rng = np.random.default_rng(0)
    for x in rng.integers(0, 420_000, size=200):
        if b[x]:
            assert any(a_lookup[(np.asarray(plan.interval(n)) + int(x)) % 420_000].all()
                       for n in range(plan.N))


def test_capture_with_offset():
    plan = plan_intervals(lambda n: 5, "0.2")
    M = plan.height * 40 + 17  # a residual of 17 points
    build = build_tower(plan, M, offset=9)
    lev = build.tower.level_array()
    assert lev[0] == lev[M - 1] == -1  # the offset splits the residual across the cut
    cap = verify_capture(build)
    assert cap.fraction >= 1 - plan.eps
    # per-point enumeration against A and B read off the level oracle
    a = [level in plan.a_band for level in lev.tolist()]
    captured = [any(all(a[(x + j) % M] for j in plan.interval(n)) for n in range(plan.N))
                for x in range(M)]
    assert cap.fraction == Fraction(sum(captured), M)
    assert cap.all_b_captured == all(c for c, level in zip(captured, lev.tolist())
                                     if level in plan.b_band)
    assert cap.all_b_captured


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
    with pytest.raises(TowerError, match="shared modulus 417262285440000 exceeds the cap"):
        bad_sequence_experiment(lambda n: 997 + n, 6, seed=0)


def test_tower_level_rows():
    from shiftlab.rokhlin import tower_level_rows
    plan = plan_intervals(lambda n: 2, "0.25")
    build = build_tower(plan, plan.height * 10)
    rows = list(tower_level_rows(build))
    assert len(rows) == plan.height
    assert sum(r[1] for r in rows) == 2 * plan.ell      # capture slab width
    assert sum(r[2] for r in rows) == plan.N * plan.ell  # bulk width


@st.composite
def wide_towers_and_bands(draw):
    # heights and moduli across several 64-bit words
    height = draw(st.integers(1, 150))
    modulus = height * draw(st.integers(1, 6)) + draw(st.integers(0, height - 1))
    start = draw(st.integers(0, height))
    return (modulus, height, draw(st.integers(-2 * modulus, 2 * modulus)),
            range(start, draw(st.integers(start, height))))


@st.composite
def towers_and_bands(draw):
    height = draw(st.integers(1, 12))
    modulus = height * draw(st.integers(1, 8)) + draw(st.integers(0, height - 1))
    start = draw(st.integers(0, height))
    return (modulus, height, draw(st.integers(-100, 100)),
            range(start, draw(st.integers(start, height))))


@given(towers_and_bands() | wide_towers_and_bands())
@example((19, 5, 40, range(1, 4)))   # residual 4, offset past M
@example((23, 4, -7, range(0, 4)))   # residual 3, the whole tower
@example((1000, 70, 5, range(3, 68)))    # residual 20 split by the cut at M, H > 64
@settings(max_examples=150, deadline=None)
def test_band_mask_matches_level_oracle(case):
    modulus, height, offset, band = case
    tower = TowerSystem.build(modulus, height, offset)
    lev = tower.level_array()
    expected = (lev >= band.start) & (lev < band.stop)
    got = tower.band_mask(band)
    assert got.dtype == np.uint64
    assert unpack(got, modulus).tolist() == expected.tolist()
    assert tower.band_measure(band) == Fraction(int(np.bitwise_count(got).sum()), modulus)
    # the levels partition the tower: `columns` points each, M mod H outside
    counts = np.bincount(lev + 1, minlength=height + 1)
    assert counts[0] == modulus % height and (counts[1:] == tower.columns).all()


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


def test_bad_sequence_probes_in_caller_order():
    # unsorted, with a duplicate, the empty union at q = i_max and one past it
    probe = [2, 0, 2, 3, 5, 1]
    rep = bad_sequence_experiment(lambda n: 2 + (n % 3), 3, seed=4, k_probe=probe)
    full = bad_sequence_experiment(lambda n: 2 + (n % 3), 3, seed=4)
    assert rep.stages == full.stages
    assert full.mu_tail[3] == 0
    assert list(rep.mu_tail.items()) == [(q, full.mu_tail.get(q, 0)) for q in [2, 0, 3, 5, 1]]
    assert list(rep.all_bands_frac.items()) == [(q, full.all_bands_frac[q]) for q in [2, 0, 1]]
    rows = {q: [b for b in full.band_rows if b.q == q] for q in range(4)}
    assert rows[3] == [] and rep.band_rows == rows[2] + rows[0] + rows[2] + rows[1]
    want_rows, everywhere = brute_force_bands(full)
    assert [(b.q, b.band, b.frac_full) for b in full.band_rows] == want_rows
    assert full.all_bands_frac == everywhere


def test_bad_sequence_shares_one_or_chain_per_union(monkeypatch):
    # h = 1: every band of a union has ell = 1 and N = 4, 8, ..., 128, so the
    # six unions take 7 doubling passes each, where a chain per band took 112
    passes = []

    def counted_or(*args, **kwargs):
        passes.append(1)
        return np.bitwise_or(*args, **kwargs)

    real = rokhlin.circular_window_reduce

    def reduce(mask, counts, step, modulus, op):
        return real(mask, counts, step, modulus,
                    counted_or if op is np.bitwise_or else op)

    monkeypatch.setattr(rokhlin, "circular_window_reduce", reduce)
    rep = bad_sequence_experiment(lambda n: 1, 6, seed=0)
    assert [s.plan.N for s in rep.stages] == [4, 8, 16, 32, 64, 128]
    assert len(passes) == 42


def test_bad_sequence_memory_stays_below_1_5_bytes_per_point():
    # five stages of unit intervals share M = 109,395; packed masks, built
    # one stage at a time, keep the traced peak at about 1.2 bytes per point,
    # where all stages held at once took 1.9 and bool masks 12.1
    tracemalloc.start()
    try:
        rep = bad_sequence_experiment(lambda n: 1, 5, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.modulus == 109_395
    assert peak < 1.5 * rep.modulus
