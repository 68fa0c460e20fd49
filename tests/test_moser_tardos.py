import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from shiftlab.groups import (CyclicTranslation, GroupError, GroupSet, integer_interval,
                             set_product)
from shiftlab.lll import FrequencyDeviationEvent
from shiftlab.moser_tardos import (TapeSpace, frequency_counts, resample_fraction, run_mt,
                                   scans_patterns, stabilization_ledger, tape_consistency,
                                   violated_anchors)

from oracles import empirical_freq, event_holds, occurrences


def run_mt_replayed(action, events, tape, **kwargs):
    """run_mt with a transcript, checked step by step by `replay`."""
    lines = []
    res = run_mt(action, events, tape, transcript=lines, **kwargs)
    replay(action, events, tape, res, [json.loads(json.dumps(r)) for r in lines])
    return res


def replay(action, events, tape, res, records):
    """Oracle for the resampling loop that reads only the public API and the
    transcript records a run writes.  Before each step it rebuilds the
    coloring from the running resample counts t, recomputes the violated
    anchors of each member in (n, anchor) order, and checks that the record
    selects exactly the greedy batch of that order, that the batch is
    disjoint and maximal (every violated anchor left out meets a selected
    domain), and that the tape advanced on the batch's points.  At the end
    it checks t, the step count, the coloring and the residual anchors.
    Domains are translated point by point, as (x + e) mod M."""
    points = np.arange(action.modulus)
    t = np.zeros(action.modulus, dtype=np.int64)

    def domain(n, x):
        return {(x + e) % action.modulus for e in events[n].domain.elements}

    def violated(g):
        return [[n, int(x)] for n, ev in enumerate(events)
                for x in violated_anchors(action, ev, g)]

    for step, rec in enumerate(records):
        candidates = violated(tape.symbols(points, t))
        claimed, greedy = set(), []
        for n, x in candidates:
            dom = domain(n, x)
            if not dom & claimed:
                claimed |= dom
                greedy.append([n, x])
        assert rec == {"step": step, "selected": greedy, "tape_advanced": len(claimed)}
        chosen = [domain(n, x) for n, x in rec["selected"]]
        assert sum(map(len, chosen)) == len(set().union(*chosen))  # disjoint
        assert all(domain(n, x) & claimed for n, x in candidates
                   if [n, x] not in rec["selected"]), "selection was not maximal"
        t[sorted(claimed)] += 1
    g = tape.symbols(points, t)
    residual = violated(g)
    assert np.array_equal(res.t, t) and res.steps == len(records)
    assert np.array_equal(res.coloring, g)
    assert res.converged == (not residual)
    if not res.converged:
        assert res.defect_points == tuple(sorted({x for _n, x in residual}))


def test_tape_deterministic_and_roughly_uniform():
    tape = TapeSpace(seed=123, k=2)
    assert tape.symbols(17, 4) == tape.symbols(17, 4)
    row = tape.symbols(np.arange(20_000), 0)
    ones = int(row.sum())
    assert abs(ones - 10_000) < 4 * (20_000 * 0.25) ** 0.5
    # distinct t give fresh draws
    row1 = tape.symbols(np.arange(20_000), 1)
    agree = int((row == row1).sum())
    assert abs(agree - 10_000) < 4 * (20_000 * 0.25) ** 0.5
    # a row is symbol t of every tape
    pts = np.arange(20_000)
    assert np.array_equal(row1, tape.symbols(pts, np.ones(20_000, dtype=np.int64)))
    assert [int(tape.symbols(p, 1)) for p in (0, 7, 19_999)] == row1[[0, 7, 19_999]].tolist()


def test_tape_k3_frequencies():
    tape = TapeSpace(seed=5, k=3)
    row = tape.symbols(np.arange(30_000), 0)
    for c in range(3):
        frac = (row == c).mean()
        assert abs(frac - 1 / 3) < 4 * (1 / 3 * 2 / 3 / 30_000) ** 0.5


def test_empty_family_converges_immediately():
    act = CyclicTranslation(100)
    tape = TapeSpace(seed=9, k=2)
    res = run_mt(act, [], tape)
    assert res.converged and res.steps == 0
    assert np.array_equal(res.coloring, tape.symbols(np.arange(100), 0))
    assert (res.t == 0).all()
    fr = resample_fraction(res)
    assert fr.frac_resampled == 0 and fr.frac_changed == 0


def test_mt_requires_freeness():
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.2", GroupSet([0, 10]))
    with pytest.raises(GroupError):
        run_mt(CyclicTranslation(10), [ev], TapeSpace(seed=0, k=2))


def test_mt_determinism():
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.25", integer_interval(20))
    act = CyclicTranslation(200)
    r1 = run_mt(act, [ev], TapeSpace(seed=77, k=2))
    r2 = run_mt(act, [ev], TapeSpace(seed=77, k=2))
    assert np.array_equal(r1.coloring, r2.coloring)
    assert np.array_equal(r1.t, r2.t)
    assert r1.index_counts == r2.index_counts
    assert r1.steps == r2.steps


def test_mt_stress_resampling_converges():
    # uncertified parameters chosen so the initial coloring violates somewhere
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.25", integer_interval(20))
    act = CyclicTranslation(200)
    tape = TapeSpace(seed=77, k=2)
    res = run_mt_replayed(act, [ev], tape)
    assert res.converged
    assert res.steps > 0 and res.t.max() >= 1  # resampling actually happened
    assert tape_consistency(res)
    assert stabilization_ledger(res)
    assert violated_anchors(act, ev, res.coloring).size == 0
    fr = resample_fraction(res)
    assert fr.frac_changed <= fr.frac_resampled


def test_mt_stored_first_row_does_not_drift():
    # the coloring is resampled in place, so a stored row 0 that aliased it
    # would follow it and report no changed point
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.25", integer_interval(20))
    act = CyclicTranslation(200)
    tape = TapeSpace(seed=77, k=2)
    res = run_mt(act, [ev], tape)
    assert res.steps > 0
    row0 = tape.symbols(np.arange(200), 0)
    assert np.array_equal(res.first_row, row0)
    fr = resample_fraction(res)
    assert fr.frac_changed == Fraction(int((res.coloring != row0).sum()), 200)
    assert fr.frac_changed > 0


def test_mt_two_member_family_ledger():
    ev1 = FrequencyDeviationEvent(2, integer_interval(1), "0.3", integer_interval(12))
    ev2 = FrequencyDeviationEvent(2, integer_interval(2), "0.3", integer_interval(9))
    act = CyclicTranslation(150)
    res = run_mt_replayed(act, (ev1, ev2), TapeSpace(seed=5, k=2))
    assert res.converged and res.action is act and res.events == (ev1, ev2)
    assert stabilization_ledger(res)
    assert tape_consistency(res)
    for ev in (ev1, ev2):
        assert violated_anchors(act, ev, res.coloring).size == 0


def test_mt_on_gapped_sets():
    # S and D that are not intervals: detection counts windows over the
    # offsets of D, and the domains SD.x have gaps
    ev = FrequencyDeviationEvent(2, GroupSet([0, 3]), "0.4", GroupSet([0, 1, 5, 6, 11]))
    act = CyclicTranslation(60)
    res = run_mt_replayed(act, [ev], TapeSpace(seed=3, k=2))
    assert res.converged and res.steps > 0
    assert stabilization_ledger(res)
    assert violated_anchors(act, ev, res.coloring).size == 0


def test_mt_contested_run_matches_replay():
    # a contested instance: the first colorings violate at many anchors, and
    # the run takes several batched steps before it converges
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.08", integer_interval(100))
    res = run_mt_replayed(CyclicTranslation(20_000), [ev], TapeSpace(seed=1, k=2))
    assert res.converged and res.steps == 13
    assert sum(res.index_counts.values()) > 10 * res.steps  # many events per step


@pytest.mark.parametrize("k, dtype", [(256, np.uint8), (257, np.int64)])
def test_replay_holds_for_byte_and_int64_colors(k, dtype):
    # the largest alphabet of byte colors and the smallest of int64 ones,
    # which only numpy hashes, through detection, resampling, the ledger and
    # the tape check; an anchor is violated where a color repeats among its
    # 12 points
    ev = FrequencyDeviationEvent(k, integer_interval(1), "0.12", integer_interval(12))
    tape = TapeSpace(seed=0, k=k)
    res = run_mt_replayed(CyclicTranslation(400), [ev], tape)
    assert res.converged and res.steps > 3
    assert res.coloring.dtype == res.first_row.dtype == dtype
    assert stabilization_ledger(res) and tape_consistency(res)
    fr = resample_fraction(res)
    row0 = tape.symbols(np.arange(400), 0)
    assert fr.frac_resampled == Fraction(int(np.count_nonzero(res.t)), 400)
    assert fr.frac_changed == Fraction(int(np.count_nonzero(res.coloring != row0)), 400)


def test_max_steps_exhaustion_reports_defect():
    # an unsatisfiable single-site family: every color is seen at frequency 0
    # or 1 over D = {0}, exactly 1/2 away from 1/2
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.5", integer_interval(1))
    act = CyclicTranslation(16)
    res = run_mt(act, [ev], TapeSpace(seed=1, k=2), max_steps=5)
    assert not res.converged
    assert res.steps == 5
    assert res.defect_points == tuple(range(16))


def test_defect_examples():
    act = CyclicTranslation(4)
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.4", integer_interval(2))
    constant = np.zeros(4, dtype=np.int64)
    assert violated_anchors(act, ev, constant).tolist() == [0, 1, 2, 3]
    # one violating anchor by hand: window pairs (g[x], g[x+1])
    g = np.array([0, 0, 1, 0])
    # anchors: (0,0) dev 1/2 >= .4 bad; (0,1) ok; (1,0) ok; (0,0) bad
    assert violated_anchors(act, ev, g).tolist() == [0, 3]


def _int_set(n_max):
    """An interval's length, or the elements of a set that may have gaps."""
    return st.one_of(st.integers(1, n_max),
                     st.sets(st.integers(-10, 10), min_size=1, max_size=n_max).map(sorted))


def _as_set(spec):
    return integer_interval(spec) if isinstance(spec, int) else GroupSet(spec)


@st.composite
def detection_cases(draw):
    k = draw(st.sampled_from([2, 3]))
    s_spec, d_spec = draw(_int_set(2)), draw(_int_set(12))
    # eps |D| k^|S| is an integer at 0.5 for k = 2 and at 0.25 for k = 2,
    # |D| even: there some counts land exactly on the threshold
    eps = draw(st.sampled_from(["0.1", "0.25", "0.3", "0.5"]))
    sd = set_product(_as_set(s_spec), _as_set(d_spec)).elements
    modulus = draw(st.integers(sd[-1] - sd[0] + 1, 60))  # SD is free
    g = draw(st.lists(st.integers(0, k - 1), min_size=modulus, max_size=modulus))
    return k, s_spec, eps, d_spec, modulus, g


@given(detection_cases())
@example((2, 1, "0.25", 4, 8, [1, 1, 1, 0, 0, 0, 0, 0]))  # counts 1 and 3 tie
@seed(20_181)
@settings(max_examples=100, deadline=None)
def test_frequency_counts_match_event_holds(case):
    # vectorized anchor detection agrees with the per-config event test, on
    # intervals and on sets with gaps
    _assert_detection_matches_holds(*case)


def _assert_detection_matches_holds(k, s_spec, eps, d_spec, modulus, g):
    """Each of S and D is an interval's length or a set's elements."""
    ev = FrequencyDeviationEvent(k, _as_set(s_spec), eps, _as_set(d_spec))
    act = CyclicTranslation(modulus)
    bad = set(violated_anchors(act, ev, np.array(g)).tolist())
    for x in range(modulus):
        vals = {e: g[(x + e) % modulus] for e in ev.domain.elements}
        assert event_holds(ev, vals) == (x in bad), x


@given(detection_cases())
@seed(20_183)
@settings(max_examples=30, deadline=None)
def test_frequency_counts_match_occurrences_and_empirical_freq(case):
    # the window counts that approx-invariant and uniform-discrepancy read,
    # against the exact per-config definitions at every anchor
    k, s_spec, eps, d_spec, modulus, g = case
    ev = FrequencyDeviationEvent(k, _as_set(s_spec), eps, _as_set(d_spec))
    for pat, counts in frequency_counts(CyclicTranslation(modulus), ev, np.array(g)):
        for x in range(modulus):
            c = {e: g[(x + e) % modulus] for e in ev.domain.elements}
            assert empirical_freq(pat, c, ev.D) == Fraction(int(counts[x]), len(ev.D)), x
            assert len(occurrences(pat, c) & set(ev.D.elements)) == counts[x]


@st.composite
def screened_detection_cases(draw):
    # k = 2, |S| = 1 and eps |D| >= 64 give a band of at least 2*64 - 1
    # counts around |D|/2, where the screen clears whole blocks of 64 anchors;
    # k = 3 or |S| = 2 shift the band and its edges.  Runs of biased colors
    # put other anchors outside the band
    k, s_size = draw(st.sampled_from([(2, 1), (2, 1), (3, 1), (2, 2)]))
    d_size = draw(st.integers(160, 260))
    eps = draw(st.sampled_from(["0.4", "0.5"]))
    modulus = draw(st.integers(300, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = np.sort(rng.integers(0, modulus, size=draw(st.integers(0, 3))))
    g = np.concatenate([rng.choice(k, size=n, p=draw(st.sampled_from(
        [None, [1.0] + [0.0] * (k - 1), [0.9] + [0.1 / (k - 1)] * (k - 1)])))
        for n in np.diff(np.concatenate(([0], cuts, [modulus])))])
    return k, s_size, eps, d_size, modulus, g.tolist()


@given(screened_detection_cases())
# band [1, 159]: the fair half clears blocks, windows in the zeros violate
@example((2, 1, "0.5", 160, 400, [0, 1] * 100 + [0] * 200))
@seed(20_182)
@settings(max_examples=10, deadline=None)
def test_screened_detection_matches_event_holds(case):
    _assert_detection_matches_holds(*case)


@pytest.mark.parametrize("k, s_size, scans", [
    (2, 12, True), (2, 13, False), (4096, 1, True), (4097, 1, False), (16, 3, True),
    (16, 4, False), (1, 10 ** 9, True), (3, 10 ** 9, False)])
def test_pattern_scan_cap(k, s_size, scans):
    # k^|S| <= 4096, decided without forming 3^(10^9)
    assert scans_patterns(k, s_size) is scans
