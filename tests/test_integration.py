"""Cross-module scenarios beyond the per-module unit tests."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from shiftlab.cli import EXIT_OK, main
from shiftlab.ergodic import AveragingSequence, uniform_discrepancy_experiment
from shiftlab.groups import (CyclicTranslation, GroupCtx, GroupError,
                             TorusTranslation, free_group_window, gset,
                             growth_profile, integer_interval)
from shiftlab.lll import FrequencyDeviationEvent, induced_event
from shiftlab.moser_tardos import (EventFamily, TapeSpace, frequency_counts,
                                   run_mt, stabilization_ledger)
from shiftlab.shift import Config, Pattern, empirical_freq, occurrences

Z = GroupCtx("integers")
F2 = GroupCtx("free", 2)
L2 = GroupCtx("lattice", 2)


def test_two_interval_family_certified_and_controlled():
    sizes = [3000, 4000]
    seq = AveragingSequence.from_sets([integer_interval(m) for m in sizes])
    res = uniform_discrepancy_experiment(2, integer_interval(1), "0.1", seq, 1,
                                         CyclicTranslation(60_000), seed=19)
    assert res.certified            # witness-product holds for both events
    assert res.result.converged
    assert res.all_within
    assert res.delta_report == 0
    assert len(res.stats_per_n) == 2
    for _n, stats in res.stats_per_n:
        assert stats.worst_deviation <= Fraction(1, 10)


def test_mt_with_three_colors():
    ev = FrequencyDeviationEvent(3, integer_interval(1), "0.15", integer_interval(2000))
    act = CyclicTranslation(30_000)
    fam = EventFamily.of(ev)
    res = run_mt(act, fam, TapeSpace(seed=2, k=3))
    assert res.converged
    assert stabilization_ledger(res, act, fam)
    assert set(np.unique(res.coloring)) <= {0, 1, 2}
    for _pat, counts in frequency_counts(act, ev, res.coloring):
        dev = np.abs(counts * 3 - 2000).max()
        assert Fraction(int(dev), 6000) <= Fraction(15, 100)


def test_transcript_structure():
    # unit-length domains resample in visible batches
    from shiftlab.lll import ExplicitEvent
    phi0 = Pattern.from_map(Z, {0: 0}, 2)
    fam = EventFamily.of(ExplicitEvent((phi0,), 2))
    act = CyclicTranslation(64)
    lines = []
    res = run_mt(act, fam, TapeSpace(seed=6, k=2), transcript=lines)
    assert res.converged
    assert [ln["step"] for ln in lines] == list(range(res.steps))
    for ln in lines:
        assert ln["tape_advanced"] == len(ln["selected"])  # unit domains
        assert all(n == 0 for n, _x in ln["selected"])
    total_selected = sum(len(ln["selected"]) for ln in lines)
    assert total_selected == int(res.t.sum())


def test_growth_profile_torus_saturates():
    plus = gset(L2, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    prof = growth_profile(TorusTranslation(10, 10), plus, 15)
    assert prof[-1] == 100
    assert all(a <= b for a, b in zip(prof, prof[1:]))


def test_induced_event_rejects_window_boundary():
    ev = FrequencyDeviationEvent(2, gset(Z, [0]), "0.2", gset(Z, [0, 1, 2]))
    from shiftlab.groups import lattice_window
    w = lattice_window([4])
    with pytest.raises(GroupError):
        induced_event(ev, w, 2)  # 2 + 2 = 4 leaves the window


def test_free_group_window_statistics():
    # colorings over a radius-2 word window; occurrence arithmetic done by hand
    window = free_group_window(2, 2).window
    values = {w: (len(w) % 2) for w in window.elements}  # color = word length mod 2
    c = Config.from_map(F2, values)
    phi = Pattern.from_map(F2, {(): 0, (1,): 1}, 2)
    occ = set(occurrences(phi, c).elements)
    # g is an occurrence iff g and (1,)g are in the window with lengths
    # even/odd: true exactly when g is even-length and (1,)g stays inside
    expected = set()
    for g in window.elements:
        tg = F2.op((1,), g)
        if tg in set(window.elements) and len(g) % 2 == 0 and len(tg) % 2 == 1:
            expected.add(g)
    assert occ == expected
    # frequency over a small D with full information
    D = gset(F2, [(), (2,)])
    freq = empirical_freq(phi, c, D)
    assert freq == Fraction(sum(1 for d in D if d in occ), 2)


def test_interval_shape_threshold():
    from shiftlab.lll import find_slll_threshold
    res = find_slll_threshold(2, integer_interval(1), "0.1", shape="interval",
                              search_cap=10_000)
    # oracle scan over the closed-form interval margin
    last_bad = 0
    for m in range(1, 5000):
        margin = math.e * 4 * math.exp(-0.005 * m) * (2 * m - 1)
        if margin >= 1:
            last_bad = m
    assert res.found and res.threshold == last_bad + 1


def test_cli_jobs_deterministic(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "experiment": "moser-tardos", "k": 2, "modulus": 3000, "s_size": 1,
        "eps": "0.2", "d_size": 300, "seeds": 6}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1), "--jobs", "1"]) == EXIT_OK
    assert main(["run", str(cfg), "--out", str(out2), "--jobs", "3"]) == EXIT_OK
    assert (out1 / "moser-tardos-summary.json").read_bytes() == \
        (out2 / "moser-tardos-summary.json").read_bytes()
    assert (out1 / "moser-tardos-detail.csv").read_bytes() == \
        (out2 / "moser-tardos-detail.csv").read_bytes()


def test_cli_transcript_flag(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "experiment": "moser-tardos", "k": 2, "modulus": 500, "s_size": 1,
        "eps": "0.15", "d_size": 50, "seeds": 2}))
    out = tmp_path / "rep"
    assert main(["run", str(cfg), "--out", str(out), "--transcript"]) == EXIT_OK
    files = sorted(out.glob("moser-tardos-transcript-*.jsonl"))
    assert len(files) == 2
    seen_lines = 0
    for f in files:
        for line in f.read_text().splitlines():
            doc = json.loads(line)
            assert set(doc) == {"step", "selected", "tape_advanced"}
            seen_lines += 1
    assert seen_lines > 0  # these parameters do resample


def test_lattice_window_pattern_statistics():
    # 4x4 window in Z^2, pattern on two sites, brute-force oracle
    from shiftlab.groups import GroupSet
    import itertools as it
    window = GroupSet.from_iterable(L2, it.product(range(4), range(4)))
    colors = {(x, y): (x + 2 * y) % 2 for x, y in window.elements}
    c = Config.from_map(L2, colors)
    phi = Pattern.from_map(L2, {(0, 0): 0, (1, 1): 1}, 2)
    occ = set(occurrences(phi, c).elements)
    expected = set()
    for g in it.product(range(-2, 6), repeat=2):
        sites = [(0 + g[0], 0 + g[1]), (1 + g[0], 1 + g[1])]
        if all(s in colors for s in sites):
            if colors[sites[0]] == 0 and colors[sites[1]] == 1:
                expected.add(g)
    assert occ == expected
    D = gset(L2, [(0, 0), (1, 0), (0, 1)])
    freq = empirical_freq(phi, c, D)
    assert freq == Fraction(len(occ & set(D.elements)), 3)


def test_torus_pointwise_average_and_measure():
    from shiftlab.shift import empirical_measure, pointwise_average
    act = TorusTranslation(5, 5)
    D = gset(L2, [(0, 0), (1, 0), (0, 1), (2, 3)])
    m = empirical_measure(7, D, act)
    assert sum(w for _a, w in m.atoms) == 1
    assert all(w == Fraction(1, 4) for _a, w in m.atoms)  # free translates
    avg = pointwise_average(lambda p: float(p == 7), 7, D, act)
    assert avg == 0.25  # only the identity translate hits


def test_mc_chunk_invariance():
    from shiftlab.concentration import ConcentrationBoundInput, mc_deviation_prob
    from shiftlab.shift import all_patterns
    inp = ConcentrationBoundInput(2, integer_interval(1), Fraction(1, 5),
                                  integer_interval(100))
    phi = all_patterns(integer_interval(1), 2)[0]
    act = CyclicTranslation(5000)
    a = mc_deviation_prob(inp, act, 0, phi, 700, seed=3, chunk=64)
    b = mc_deviation_prob(inp, act, 0, phi, 700, seed=3, chunk=700)
    # the default chunk spans 327 rows of |SD| = 100 colors: 700 is no multiple
    c = mc_deviation_prob(inp, act, 0, phi, 700, seed=3)
    assert a.hits == b.hits
    assert a.mean_occurrences == b.mean_occurrences
    assert c == b
    for bad in (0, -5):
        with pytest.raises(ValueError, match="chunk"):
            mc_deviation_prob(inp, act, 0, phi, 700, seed=3, chunk=bad)


def test_ergodic_chunk_invariance():
    from shiftlab.ergodic import ergodic_convergence_experiment
    seq = AveragingSequence.log_growth(30)
    r1 = ergodic_convergence_experiment(2, integer_interval(1), "0.2", seq, 8, 50,
                                        seed=5, chunk=7)
    r2 = ergodic_convergence_experiment(2, integer_interval(1), "0.2", seq, 8, 50,
                                        seed=5, chunk=50)
    r3 = ergodic_convergence_experiment(2, integer_interval(1), "0.2", seq, 8, 50,
                                        seed=5)
    for a, b in zip(r1.rows, r2.rows):
        assert a.worst_dev == b.worst_dev
        assert a.exceed_frac_beyond == b.exceed_frac_beyond
    assert r3 == r2
    for bad in (0, -5):
        with pytest.raises(ValueError, match="chunk"):
            ergodic_convergence_experiment(2, integer_interval(1), "0.2", seq, 8, 50,
                                           seed=5, chunk=bad)
