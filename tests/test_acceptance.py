"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from shiftlab.concentration import deviation_sweep, wilson_interval
from shiftlab.ergodic import (ergodic_convergence_experiment, log_growth_size,
                              periodic_cylinder_table, periodic_cylinder_value)
from shiftlab.groups import CyclicTranslation, integer_interval, set_product
from shiftlab.lll import FrequencyDeviationEvent, InstanceStats, _neighbor_count, \
    find_log_growth_constant, find_slll_threshold, slll_stats
from shiftlab.moser_tardos import (TapeSpace, frequency_counts, run_mt,
                                   stabilization_ledger, tape_consistency)
from shiftlab.rng import color_matrix, derive_seed, uniform_colors
from shiftlab.rokhlin import bad_sequence_experiment, build_tower, plan_intervals, \
    verify_capture
from shiftlab.shift import Pattern, all_patterns

from oracles import difference_set_size

EPS = Fraction(1, 10)
S1 = integer_interval(1)
D4000 = integer_interval(4000)
A_WITNESS = 0.0025          # eps^2 / (4 |S|^3)
OMEGA = math.exp(-A_WITNESS * 4000)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criterion 1: cylinder law -------------------------------------------------


def test_criterion_01_cylinder_law():
    t0 = time.time()
    samples = 100_000
    seed = 20_260_810
    ok = True
    worst = 0.0
    for size in (1, 2, 3):
        colors = color_matrix(seed + size, samples, size, 2)
        target = 0.5 ** size
        sigma = math.sqrt(target * (1 - target) / samples)
        for pat in all_patterns(integer_interval(size), 2):
            match = np.ones(samples, dtype=bool)
            for j, col in enumerate(pat.colors):
                match &= colors[:, j] == col
            freq = match.mean()
            worst = max(worst, abs(freq - target) / sigma)
            ok &= abs(freq - target) <= 4 * sigma
    # the matrix rows are exactly the library's sampled configurations
    assert (uniform_colors(seed + 3, 17, np.arange(3), 2).tolist()
            == color_matrix(seed + 3, 18, 3, 2)[17].tolist())
    elapsed = time.time() - t0
    ok &= elapsed < 10
    report(1, ok, f"all pattern frequencies within 4 sigma of 2^-|phi| "
                  f"(worst {worst:.2f} sigma), {elapsed:.1f}s < 10s")


# -- criterion 2: concentration sweep --------------------------------------------


def test_criterion_02_concentration_sweep():
    t0 = time.time()
    trials = 10_000
    grid = [(k, integer_interval(s), eps, integer_interval(d))
            for k in (2, 3) for s in (1, 2)
            for eps in (Fraction(1, 10), Fraction(1, 5)) for d in (500, 2000)]
    rows = deviation_sweep(grid, CyclicTranslation(100_000), trials, seed=7)
    floor = wilson_interval(0, trials)[1]
    ok = True
    checked = upper_checked = 0
    for r in rows:
        ok &= abs(r.expectation_zscore) <= 3.0
        if r.bound >= 0.9:
            continue
        checked += 1
        ok &= r.verdict == "pass"
        if r.bound >= floor:
            upper_checked += 1
            ok &= r.wilson_upper <= r.bound
        else:
            # any 95% upper limit at this sample size exceeds such bounds;
            # the estimate itself must be exactly zero
            ok &= r.estimate == 0.0
    elapsed = time.time() - t0
    ok &= elapsed < 300
    report(2, ok, f"{checked} informative points hold ({upper_checked} via the "
                  f"Wilson upper limit, rest at zero hits), expectations within "
                  f"3 sigma, {elapsed:.1f}s < 300s")


# -- criterion 3: symmetric threshold ---------------------------------------------


def test_criterion_03_slll_threshold():
    t0 = time.time()
    thr = find_slll_threshold(2, S1, EPS, shape="generic")
    ok = thr.threshold is not None and 3000 < thr.threshold <= 4000

    # margin at |D| = 4000, generic degree cap: agrees with direct arithmetic
    st_interval = slll_stats(2, S1, EPS, D4000)
    st_generic = InstanceStats(st_interval.p_bound, _neighbor_count(1, 4000, 4000, False) - 1)
    closed_form = math.e * 4 * math.exp(-20) * 4000 ** 2
    ok &= abs(st_generic.slll_margin - closed_form) < 1e-4
    ok &= st_generic.slll_margin < 1

    # exact-interval degree variant
    sd = set_product(S1, D4000)
    ok &= difference_set_size(S1, D4000) == 2 * len(sd) - 1
    ok &= st_interval.d_bound == 2 * len(sd) - 2
    ok &= st_interval.slll_margin < 1e-3
    elapsed = time.time() - t0
    ok &= elapsed < 1
    report(3, ok, f"crossing at |D|={thr.threshold} in (3000,4000], generic margin "
                  f"{st_generic.slll_margin:.3g}, interval margin "
                  f"{st_interval.slll_margin:.3g}, {elapsed:.2f}s < 1s")


# -- criteria 4-6 share one hundred-seed ensemble ---------------------------------

_ENSEMBLE = {}


def _ensemble():
    if _ENSEMBLE:
        return _ENSEMBLE
    t0 = time.time()
    action = CyclicTranslation(100_000)
    ev = FrequencyDeviationEvent(2, S1, EPS, D4000)
    runs = []
    for sd in range(100):
        tape = TapeSpace(seed=derive_seed(404, sd), k=2)
        runs.append(run_mt(action, [ev], tape))
    _ENSEMBLE.update(action=action, ev=ev, runs=runs,
                     elapsed=time.time() - t0)
    return _ENSEMBLE


def test_criterion_04_mt_termination_and_uniform_control():
    t0 = time.time()
    ens = _ensemble()
    runs, action, ev = ens["runs"], ens["action"], ens["ev"]
    converged = [r for r in runs if r.converged]
    ok = len(converged) >= 99
    worst = Fraction(0)
    for r in converged:
        for _pat, counts in frequency_counts(action, ev, r.coloring):
            dev = Fraction(int(np.abs(counts * 2 - 4000).max()), 8000)
            worst = max(worst, dev)
            ok &= dev <= EPS  # exact rational comparison
        ok &= tape_consistency(r)
    elapsed = ens["elapsed"] + (time.time() - t0)
    ok &= elapsed < 600
    report(4, ok, f"{len(converged)}/100 seeds converged, worst exact deviation "
                  f"{worst} <= 1/10 at every point and pattern, {elapsed:.1f}s < 600s")


def test_criterion_05_index_and_resample_bounds():
    ens = _ensemble()
    runs = ens["runs"]
    n_pts = 100_000
    bound_index = OMEGA / (1 - OMEGA)
    bound_frac = len(ens["ev"].domain) * bound_index

    means = np.array([r.index_total(0) / n_pts for r in runs])
    agg = float(means.mean())
    se = float(means.std(ddof=1) / math.sqrt(len(means))) if len(means) > 1 else 0.0
    upper_mean = agg + 1.96 * se

    hits = sum(int((r.t >= 1).sum()) for r in runs)
    trials = n_pts * len(runs)
    _lo, frac_upper = wilson_interval(hits, trials)

    ok = upper_mean <= bound_index and frac_upper <= bound_frac
    report(5, ok, f"mean index {agg:.3g} (95% upper {upper_mean:.3g}) <= "
                  f"{bound_index:.3g}; resample fraction upper {frac_upper:.3g} <= "
                  f"{bound_frac:.3g}")


def test_criterion_06_ledger_identity():
    ens = _ensemble()
    ok = True
    for r in ens["runs"]:
        if r.converged:
            ok &= stabilization_ledger(r)
    report(6, ok, "t(p) equals the summed selection counts over covering events, "
                  "exact integers, on every converged run")


# -- criterion 7: summed-tail convergence ------------------------------------------


def test_criterion_07_borel_cantelli_convergence():
    t0 = time.time()
    C = find_log_growth_constant(2, S1, EPS, a=A_WITNESS, eps_sum=EPS)
    d_sets = [integer_interval(log_growth_size(C, n)) for n in range(101)]
    rep = ergodic_convergence_experiment(2, S1, EPS, d_sets, samples=200, seed=1001)
    ok = rep.exceedances_within()
    worst_exceed = max(r.exceed_frac_beyond for r in rep.rows)
    elapsed = time.time() - t0
    ok &= elapsed < 300
    report(7, ok, f"C={C:.0f}, exceedance fraction beyond n never exceeds the "
                  f"summed tail + 3 sigma (max exceedance {worst_exceed}), "
                  f"{elapsed:.1f}s < 300s")


# -- criterion 8: periodic approximations -------------------------------------------


def test_criterion_08_periodic_measure():
    t0 = time.time()
    # k = 2, period 2: exact table against the 4-atom enumeration
    pats = [Pattern.from_map({0: 0}, 2),
            Pattern.from_map({0: 0, 2: 1}, 2),
            Pattern.from_map({0: 0, 1: 1}, 2),
            Pattern.from_map({0: 1, 2: 1}, 2)]
    table = periodic_cylinder_table(2, 2, pats)
    ok = table.shift_invariant
    for row, phi in zip(table.rows, pats):
        hits = 0
        for atom in itertools.product(range(2), repeat=2):
            hits += all(atom[int(s) % 2] == c for s, c in phi.items())
        ok &= row.value == Fraction(hits, 4)
    # period 12, patterns on <= 3 sites meeting distinct residues
    for sites in [(0,), (3, 7), (0, 5, 22)]:
        for colors in itertools.product(range(2), repeat=len(sites)):
            phi = Pattern.from_map(dict(zip(sites, colors)), 2)
            ok &= periodic_cylinder_value(2, 12, phi) == Fraction(1, 2 ** len(sites))
            for g in (1, -1, 5):
                ok &= periodic_cylinder_value(2, 12, phi.shifted(g)) == \
                    periodic_cylinder_value(2, 12, phi)
    elapsed = time.time() - t0
    ok &= elapsed < 1
    report(8, ok, f"exact 4-atom table, exact shift invariance, distinct-residue "
                  f"values 2^-|phi|, {elapsed:.2f}s < 1s")


# -- criterion 9: tower capture -------------------------------------------------------


def test_criterion_09_tower_capture():
    t0 = time.time()
    plan = plan_intervals(lambda n: 50, EPS)
    ok = plan.N == 20 and plan.ell == 50
    build = build_tower(plan, 21_000 * 20)
    ok &= build.mu_a == Fraction(2, 21) and build.mu_a < EPS
    cap = verify_capture(build)
    ok &= cap.fraction >= Fraction(9, 10)
    ok &= cap.all_b_captured
    # each sampled bulk point's interval inside A, found by direct search
    rng = np.random.default_rng(0)
    m = build.tower.modulus
    a = np.unpackbits(build.a_mask.view(np.uint8), count=m, bitorder="little")
    b = np.unpackbits(build.tower.band_mask(build.plan.b_band).view(np.uint8), count=m,
                      bitorder="little")
    for x in rng.integers(0, m, size=500):
        if b[x]:
            ok &= any(bool(a[(np.arange(n * plan.ell, (n + 1) * plan.ell) + int(x)) % m].all())
                      for n in range(plan.N))
    elapsed = time.time() - t0
    ok &= elapsed < 30
    report(9, ok, f"N=20, ell=50, mu(A)=2/21 < 1/10 exact, capture "
                  f"{float(cap.fraction):.4f} >= 0.9, every bulk point has a "
                  f"verified witness, {elapsed:.1f}s < 30s")


# -- criterion 10: iterated escape stages ----------------------------------------------


def test_criterion_10_bad_sequence():
    t0 = time.time()
    rep = bad_sequence_experiment(lambda n: 1, i_max=6, seed=42)
    ok = rep.mu_tail[0] <= 1
    for q in range(7):
        ok &= rep.mu_tail[q] <= Fraction(1, 2 ** q)
    for q, frac in rep.all_bands_frac.items():
        ok &= frac >= Fraction(99, 100)
    # the same capture witnesses give average exactly 1 on the union and
    # exactly 0 on its complement
    for b in rep.band_rows:
        ok &= b.frac_full >= Fraction(99, 100) and b.frac_null >= Fraction(99, 100)
    elapsed = time.time() - t0
    ok &= elapsed < 120
    least = min(rep.all_bands_frac.values())
    report(10, ok, f"mu(A_>=q) <= 2^-q exact for q <= 6, full/null averages "
                   f"achieved in every band for a {float(least):.4f} >= 0.99 "
                   f"fraction of points, {elapsed:.1f}s < 120s")
