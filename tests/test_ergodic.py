import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from shiftlab.concentration import deviates
from shiftlab.ergodic import (ergodic_convergence_experiment, log_growth_size,
                              near_invariant_measure, periodic_cylinder_table,
                              periodic_cylinder_value,
                              uniform_discrepancy_experiment)
from shiftlab.groups import (CyclicTranslation, GroupError, GroupSet,
                             integer_interval)
from shiftlab.lll import CertificationError, GLLLWitnessSpec, default_witness_exponent
from shiftlab.rng import BLOCK, block_rows, color_matrix, derive_seed
from shiftlab.shift import Pattern, all_patterns


def _log_growth_sets(C, n_max):
    return [integer_interval(log_growth_size(C, n)) for n in range(n_max + 1)]


def test_log_growth_size():
    for n in [0, 1, 10, 99]:
        m = log_growth_size(100.0, n)
        assert m == math.ceil(100.0 * math.log(n + 2))
        assert m >= 100.0 * math.log(n + 2)
    assert log_growth_size(0.01, 0) == 1  # never an empty set
    for C in (0, -1.0):
        with pytest.raises(ValueError, match="growth constant"):
            log_growth_size(C, 3)


def test_convergence_report_tail_is_partial_sum():
    S = integer_interval(1)
    rep = ergodic_convergence_experiment(2, S, "0.2", _log_growth_sets(50, 20), 40, seed=2)
    bounds = [2 * math.exp(-0.04 * log_growth_size(50, m) / 2) for m in range(21)]
    for n, row in enumerate(rep.rows):
        assert row.bc_tail == pytest.approx(sum(bounds[n:]), abs=1e-12)
    # tail column decreasing
    assert all(a.bc_tail >= b.bc_tail for a, b in zip(rep.rows, rep.rows[1:]))


def test_convergence_zero_exceedance_for_eps_ge_1():
    S = integer_interval(1)
    rep = ergodic_convergence_experiment(2, S, 1, _log_growth_sets(20, 10), 30, seed=3)
    assert all(r.exceed_frac_beyond == 0 for r in rep.rows)
    assert rep.first_quiet_n == 0


def test_convergence_large_window_binomial():
    # frequency over one large window lands within 0.005 of 1/2
    S = integer_interval(1)
    rep = ergodic_convergence_experiment(2, S, "0.005", [integer_interval(1_000_000)], 3,
                                         seed=4)
    assert rep.rows[0].worst_dev < 0.005


@pytest.mark.parametrize("d_sets", [[], [integer_interval(4), GroupSet(())]],
                         ids=["no_sets", "empty_set"])
def test_experiments_reject_empty_averaging_sets(d_sets):
    S = integer_interval(1)
    with pytest.raises(ValueError, match="averaging sets"):
        ergodic_convergence_experiment(2, S, "0.25", d_sets, 5, seed=0)
    with pytest.raises(ValueError, match="averaging sets"):
        uniform_discrepancy_experiment(2, S, "0.25", d_sets, CyclicTranslation(100), seed=0)


def test_convergence_matches_bruteforce_on_tiny_case():
    # independent recomputation with explicit configs
    S = integer_interval(1)
    d_sets = [integer_interval(4), integer_interval(8)]
    rep = ergodic_convergence_experiment(2, S, "0.25", d_sets, 25, seed=9)
    from shiftlab.rng import color_matrix, derive_seed
    colors = color_matrix(derive_seed(9, 0xE6), 25, 8, 2)
    exceed_counts = [0, 0]
    worst = [0.0, 0.0]
    for row in colors:
        exceeded = []
        for i, m in enumerate([4, 8]):
            ones = int(row[:m].sum())
            dev = abs(ones / m - 0.5)
            worst[i] = max(worst[i], dev)
            exceeded.append(dev >= 0.25)
        if exceeded[0] or exceeded[1]:
            exceed_counts[0] += 1
        if exceeded[1]:
            exceed_counts[1] += 1
    assert rep.rows[0].exceed_frac_beyond == pytest.approx(exceed_counts[0] / 25)
    assert rep.rows[1].exceed_frac_beyond == pytest.approx(exceed_counts[1] / 25)
    assert rep.rows[0].worst_dev == pytest.approx(worst[0])
    assert rep.rows[1].worst_dev == pytest.approx(worst[1])


@pytest.mark.parametrize("s_elems", [[-1, 0], [1], [1, 3]],
                         ids=["min_S_negative", "min_S_positive", "min_S_positive_gapped"])
def test_convergence_matches_bruteforce_off_prefix(s_elems):
    # D_0 has gaps, so it is read as one run per element; S starts left of,
    # at or right of 0, so anchor columns and site columns are offset by
    # -min S in either direction
    S = GroupSet(s_elems)
    d_sets = [GroupSet([0, 2, 5]), integer_interval(4)]
    rep = ergodic_convergence_experiment(2, S, "0.5", d_sets, 40, seed=5)
    from shiftlab.rng import color_matrix, derive_seed
    lo = min(s_elems)  # min S + min D_n; sites run from lo to max S + 5
    colors = color_matrix(derive_seed(5, 0xE6), 40, max(s_elems) + 5 - lo + 1, 2)
    target = Fraction(1, 2 ** len(s_elems))
    exceeded = []
    worst = [Fraction(0), Fraction(0)]
    for row in colors:
        hits = []
        for i, D in enumerate(d_sets):
            words = [tuple(int(row[d + s - lo]) for s in s_elems) for d in D.elements]
            devs = [abs(Fraction(words.count(w), len(words)) - target)
                    for w in itertools.product(range(2), repeat=len(s_elems))]
            worst[i] = max(worst[i], max(devs))
            hits.append(max(devs) >= Fraction(1, 2))
        exceeded.append(hits)
    assert rep.rows[0].exceed_frac_beyond == pytest.approx(
        sum(a or b for a, b in exceeded) / 40)
    assert rep.rows[1].exceed_frac_beyond == pytest.approx(
        sum(b for _a, b in exceeded) / 40)
    assert rep.rows[0].worst_dev == pytest.approx(float(worst[0]))
    assert rep.rows[1].worst_dev == pytest.approx(float(worst[1]))


def test_convergence_chunks_of_wide_samples_agree():
    # W = 40,001 colors per sample, past rng.BLOCK, which the numpy counts
    # take one row at a time: the default chunk, block_rows of the 4 run
    # ends, takes all 7 samples, and a chunk of 4 does not divide them
    S = integer_interval(2)
    d_sets = [integer_interval(m) for m in (10, 300, 5000, 40_000)]
    assert 40_001 > BLOCK and block_rows(40_001) == 1 and block_rows(4) >= 7
    reps = [ergodic_convergence_experiment(2, S, "0.01", d_sets, 7, seed=12, chunk=c)
            for c in (1, None, 4)]
    assert reps[0] == reps[1] == reps[2]
    # some samples deviate over D_2 and some do not
    assert 0 < reps[0].rows[2].exceed_frac_beyond < 1


@pytest.mark.parametrize("eps", ["1e-30", Fraction(1, 2 ** 70)], ids=["1e-30", "2^-70"])
def test_convergence_thresholds_once_agree_with_deviates(eps):
    # denominators past int64: the thresholds computed once per run decide
    # every sample as a call of deviates per sample does
    S = integer_interval(1)
    sizes = np.array([2, 4, 6, 8])
    rep = ergodic_convergence_experiment(2, S, eps, [integer_interval(m) for m in sizes], 50,
                                         seed=8)
    colors = color_matrix(derive_seed(8, 0xE6), 50, 8, 2)
    ones = np.cumsum(colors, axis=1)[:, sizes - 1]
    exceed = np.stack([deviates(ones[:, j], m, 2, 1, eps) | deviates(m - ones[:, j], m, 2, 1, eps)
                       for j, m in enumerate(sizes.tolist())], axis=1)
    beyond = np.logical_or.accumulate(exceed[:, ::-1], axis=1)[:, ::-1]
    assert 0 < beyond[:, -1].sum() < 50
    assert [r.exceed_frac_beyond for r in rep.rows] == beyond.mean(axis=0).tolist()


def test_uniform_discrepancy_single_certified_event():
    S = integer_interval(1)
    res = uniform_discrepancy_experiment(2, S, "0.1", [integer_interval(4000)],
                                         CyclicTranslation(50_000), seed=6)
    assert res.certified
    assert res.result.converged
    assert res.all_within and res.max_deviation <= Fraction(1, 10)
    # resampled fraction below the witness bound
    assert float(res.fractions.frac_resampled) <= res.resample_budget
    omega = GLLLWitnessSpec(default_witness_exponent(Fraction(1, 10), 1)).omega(4000)
    assert res.resample_budget == 4000 * omega / (1.0 - omega)
    (n0, stats0), = res.stats_per_n
    assert n0 == 0 and max(r[3] for r in stats0.rows) == res.max_deviation


def test_uniform_discrepancy_freeness_precondition():
    S = integer_interval(1)
    with pytest.raises(GroupError):
        uniform_discrepancy_experiment(2, S, "0.1", [integer_interval(600)],
                                       CyclicTranslation(500), seed=1)
    # free for S and for D_n but not for S D_n: refused before the certificate
    with pytest.raises(GroupError, match="free for S D_n"):
        uniform_discrepancy_experiment(2, integer_interval(2), "0.3", [integer_interval(4000)],
                                       CyclicTranslation(4000), seed=1)


def test_uniform_discrepancy_uncertified_still_runs():
    S = integer_interval(1)
    res = uniform_discrepancy_experiment(2, S, "0.1", [integer_interval(40)],
                                         CyclicTranslation(2000), seed=8)
    assert not res.certified
    assert res.result.converged and res.result.steps == 37
    assert res.warnings


# -- periodic approximations ---------------------------------------------------


def atom_oracle(k, period, phi, window):
    """Enumerate all k^period periodic colorings and measure the cylinder."""
    hits = 0
    for combo in itertools.product(range(k), repeat=period):
        ok = all(combo[int(s) % period] == col for s, col in phi.items())
        hits += ok
    return Fraction(hits, k ** period)


def test_periodic_table_k2_n2_exact():
    phi_a = Pattern.from_map({0: 0}, 2)
    phi_b = Pattern.from_map({0: 0, 2: 1}, 2)
    phi_c = Pattern.from_map({0: 1, 1: 0}, 2)
    table = periodic_cylinder_table(2, 2, [phi_a, phi_b, phi_c])
    assert table.rows[0].value == Fraction(1, 2)
    assert table.rows[1].value == 0          # same residue class, clashing colors
    assert table.rows[2].value == Fraction(1, 4)
    for row, phi in zip(table.rows, [phi_a, phi_b, phi_c]):
        assert row.value == atom_oracle(2, 2, phi, 4)
    assert table.shift_invariant


def test_periodic_value_distinct_residues():
    # when the pattern meets |phi| distinct residues the value is k^{-|phi|}
    for sites in [(0,), (0, 1), (0, 5, 7)]:
        phi = Pattern.from_map({s: (s % 2) for s in sites}, 2)
        assert periodic_cylinder_value(2, 12, phi) == Fraction(1, 2 ** len(sites))
        assert periodic_cylinder_value(2, 12, phi) == atom_oracle(2, 12, phi, 24)


def test_periodic_partition_identity():
    # over a full window S with |S| <= period, the table sums to 1
    S = integer_interval(3)
    table = periodic_cylinder_table(2, 4, all_patterns(S, 2))
    assert sum(r.value for r in table.rows) == 1
    assert table.shift_invariant


def test_periodic_rejects_non_integer_group():
    # a site of Z^2 is not an integer, so no pattern can be built on it
    with pytest.raises(GroupError):
        periodic_cylinder_value(2, 2, Pattern.from_map({(0, 0): 0}, 2))


# -- near-invariant measures -----------------------------------------------------


def test_near_invariant_measure_certified():
    S = integer_interval(1)
    m = near_invariant_measure(2, S, "0.1", integer_interval(4000), 50_000, seed=2)
    assert m.within and m.worst_shift_dev <= Fraction(1, 10)
    assert 1 <= len(m.atoms) <= 4000  # support bounded by |D|
    assert sum(w for _pid, w in m.atoms) == 1


def test_near_invariant_rejects_uncertified():
    S = integer_interval(1)
    with pytest.raises(CertificationError):
        near_invariant_measure(2, S, "0.1", integer_interval(50), 5000, seed=2)


def test_near_invariant_needs_an_action_free_for_sd():
    # free for S and for D but not for SD, the domain the resampling run needs
    with pytest.raises(GroupError, match="free for SD"):
        near_invariant_measure(2, integer_interval(2), "0.3", integer_interval(4000), 4000, 1)


def test_uniform_discrepancy_log_growth_family():
    # three log-growth events, certified, uniformly controlled
    res = uniform_discrepancy_experiment(2, integer_interval(1), "0.1",
                                         _log_growth_sets(4500, 2),
                                         CyclicTranslation(50_000), seed=14)
    assert res.certified and res.result.converged and res.all_within
    assert len(res.stats_per_n) == 3
    assert res.delta_report == 0


@pytest.mark.parametrize("chunk", [1, None], ids=["chunk_1", "default_chunk"])
def test_convergence_matches_bruteforce_across_words(chunk):
    # more than 128 anchors, so the popcount prefix crosses words; D_0 has
    # gaps around the word edges 64 and 128, D_2 starts off anchor 0, and
    # |S| = 2 with a gap reads two color columns per anchor
    S = GroupSet([0, 2])
    d_sets = [GroupSet([0, 1, 5, 62, 63, 64, 65, 127, 128, 129, 190, 200]),
              integer_interval(150), GroupSet(range(60, 258))]
    samples, eps = 30, Fraction(2, 25)
    rep = ergodic_convergence_experiment(2, S, "0.08", d_sets, samples, seed=4, chunk=chunk)
    from shiftlab.rng import color_matrix, derive_seed
    colors = color_matrix(derive_seed(4, 0xE6), samples, 257 + 2 + 1, 2)
    exceeded = np.zeros((samples, 3), dtype=bool)
    worst = [Fraction(0)] * 3
    for r, row in enumerate(colors):
        for i, D in enumerate(d_sets):
            d = np.array(list(D.elements))
            for pat in itertools.product(range(2), repeat=2):
                hits = int(((row[d] == pat[0]) & (row[d + 2] == pat[1])).sum())
                dev = abs(Fraction(hits, len(d)) - Fraction(1, 4))
                worst[i] = max(worst[i], dev)
                exceeded[r, i] |= dev >= eps
    beyond = np.logical_or.accumulate(exceeded[:, ::-1], axis=1)[:, ::-1]
    assert 0 < beyond[:, 1].sum() < samples  # some samples exceed past D_0, not all
    for n in range(3):
        assert rep.rows[n].exceed_frac_beyond == pytest.approx(beyond[:, n].mean())
        assert rep.rows[n].worst_dev == float(worst[n])
