import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from shiftlab.groups import (CyclicTranslation, GroupCtx, GroupError,
                             GroupSet, TorusTranslation, integer_interval)
from shiftlab.lll import ExplicitEvent, FrequencyDeviationEvent
from shiftlab.moser_tardos import (EventFamily, TapeSpace, defect, index_report,
                                   resample_fraction, run_mt,
                                   stabilization_ledger, tape_consistency,
                                   violated_anchors)
from shiftlab.shift import Config, Pattern

gset = GroupSet.from_iterable
Z = GroupCtx("integers")
L2 = GroupCtx("lattice", 2)


def run_mt_replayed(action, family, tape, **kwargs):
    """run_mt with a transcript, checked step by step by `replay`."""
    lines = []
    res = run_mt(action, family, tape, transcript=lines, **kwargs)
    replay(action, family, tape, res, [json.loads(json.dumps(r)) for r in lines])
    return res


def replay(action, family, tape, res, records):
    """Oracle for the resampling loop that reads only the public API and the
    transcript records a run writes.  Before each step it rebuilds the
    coloring from the running resample counts t, recomputes the violated
    anchors of each member in (n, anchor) order, and checks that the record
    selects exactly the greedy batch of that order, that the batch is
    disjoint and maximal (every violated anchor left out meets a selected
    domain), and that the tape advanced on the batch's points.  At the end
    it checks t, the step count, the coloring and the residual anchors."""
    events = dict(family.members)
    points = np.arange(action.n_points)
    t = np.zeros(action.n_points, dtype=np.int64)

    def domain(n, x):
        return set(action.translates(events[n].domain.elements, x).tolist())

    def violated(g):
        return [[n, int(x)] for n, ev in family for x in violated_anchors(action, ev, g)]

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
    assert tape.symbol(17, 4) == tape.symbol(17, 4)
    row = tape.row(20_000, 0)
    ones = int(row.sum())
    assert abs(ones - 10_000) < 4 * (20_000 * 0.25) ** 0.5
    # distinct t give fresh draws
    row1 = tape.row(20_000, 1)
    agree = int((row == row1).sum())
    assert abs(agree - 10_000) < 4 * (20_000 * 0.25) ** 0.5
    # a row is symbol t of every tape
    pts = np.arange(20_000)
    assert np.array_equal(row1, tape.symbols(pts, np.ones(20_000, dtype=np.int64)))
    assert [tape.symbol(p, 1) for p in (0, 7, 19_999)] == row1[[0, 7, 19_999]].tolist()


def test_tape_k3_frequencies():
    tape = TapeSpace(seed=5, k=3)
    row = tape.row(30_000, 0)
    for c in range(3):
        frac = (row == c).mean()
        assert abs(frac - 1 / 3) < 4 * (1 / 3 * 2 / 3 / 30_000) ** 0.5


def test_empty_family_converges_immediately():
    act = CyclicTranslation(100)
    tape = TapeSpace(seed=9, k=2)
    res = run_mt(act, EventFamily(()), tape)
    assert res.converged and res.steps == 0
    assert np.array_equal(res.coloring, tape.row(100, 0))
    assert (res.t == 0).all()
    fr = resample_fraction(res)
    assert fr.frac_resampled == 0 and fr.frac_changed == 0


def test_single_site_event_geometric_resampling():
    # forbid color 0 at every point: t(p) = first index with a 1 on p's tape
    phi0 = Pattern.from_map(Z, {0: 0}, 2)
    ev = ExplicitEvent((phi0,), 2)
    act = CyclicTranslation(4000)
    tape = TapeSpace(seed=21, k=2)
    res = run_mt_replayed(act, EventFamily.of(ev), tape)
    assert res.converged
    assert (res.coloring == 1).all()
    # oracle: first-1 index per tape
    for p in [0, 17, 555, 3999]:
        t_expect = 0
        while tape.symbol(p, t_expect) == 0:
            t_expect += 1
        assert res.t[p] == t_expect
    # geometric with mean 1; 4000 independent points, sigma = sqrt(2/4000)
    assert abs(res.t.mean() - 1.0) < 3 * (2 / 4000) ** 0.5 + 1e-9


def test_mt_requires_total_action():
    from shiftlab.groups import lattice_window
    ev = ExplicitEvent((Pattern.from_map(Z, {0: 0}, 2),), 2)
    with pytest.raises(GroupError):
        run_mt(lattice_window([10]), EventFamily.of(ev), TapeSpace(seed=0, k=2))


def test_mt_requires_freeness():
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.2", gset(Z, [0, 10]))
    with pytest.raises(GroupError):
        run_mt(CyclicTranslation(10), EventFamily.of(ev), TapeSpace(seed=0, k=2))


def test_mt_determinism():
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.25", integer_interval(20))
    act = CyclicTranslation(200)
    r1 = run_mt(act, EventFamily.of(ev), TapeSpace(seed=77, k=2))
    r2 = run_mt(act, EventFamily.of(ev), TapeSpace(seed=77, k=2))
    assert np.array_equal(r1.coloring, r2.coloring)
    assert np.array_equal(r1.t, r2.t)
    assert r1.index_counts == r2.index_counts
    assert r1.steps == r2.steps


def test_mt_stress_resampling_converges():
    # uncertified parameters chosen so the initial coloring violates somewhere
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.25", integer_interval(20))
    act = CyclicTranslation(200)
    tape = TapeSpace(seed=77, k=2)
    res = run_mt_replayed(act, EventFamily.of(ev), tape)
    assert res.converged
    assert res.steps > 0 and res.t.max() >= 1  # resampling actually happened
    assert tape_consistency(res)
    assert stabilization_ledger(res, act, EventFamily.of(ev))
    assert violated_anchors(act, ev, res.coloring).size == 0
    fr = resample_fraction(res)
    assert fr.frac_changed <= fr.frac_resampled


def test_mt_stored_first_row_does_not_drift():
    # the coloring is resampled in place, so a stored row 0 that aliased it
    # would follow it and report no changed point
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.25", integer_interval(20))
    act = CyclicTranslation(200)
    tape = TapeSpace(seed=77, k=2)
    res = run_mt(act, EventFamily.of(ev), tape)
    assert res.steps > 0
    row0 = tape.row(200, 0)
    assert np.array_equal(res.first_row, row0)
    fr = resample_fraction(res)
    assert fr.frac_changed == Fraction(int((res.coloring != row0).sum()), 200)
    assert fr.frac_changed > 0


def test_mt_two_member_family_ledger():
    ev1 = FrequencyDeviationEvent(2, integer_interval(1), "0.3", integer_interval(12))
    ev2 = FrequencyDeviationEvent(2, integer_interval(2), "0.3", integer_interval(9))
    act = CyclicTranslation(150)
    fam = EventFamily.of(ev1, ev2)
    res = run_mt_replayed(act, fam, TapeSpace(seed=5, k=2))
    assert res.converged
    assert stabilization_ledger(res, act, fam)
    assert tape_consistency(res)
    for _n, ev in fam:
        assert defect(res.coloring, ev, act) == ()


def test_mt_on_torus_generic_path():
    block = gset(L2, [(i, j) for i in range(2) for j in range(2)])
    ev = FrequencyDeviationEvent(2, gset(L2, [(0, 0)]), "0.3", block)
    act = TorusTranslation(12, 12)
    res = run_mt_replayed(act, EventFamily.of(ev), TapeSpace(seed=3, k=2))
    assert res.converged
    assert stabilization_ledger(res, act, EventFamily.of(ev))
    assert defect(res.coloring, ev, act) == ()


def test_mt_contested_run_matches_replay():
    # a contested instance: the first colorings violate at many anchors, and
    # the run takes several batched steps before it converges
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.08", integer_interval(100))
    res = run_mt_replayed(CyclicTranslation(20_000), EventFamily.of(ev), TapeSpace(seed=1, k=2))
    assert res.converged and res.steps == 13
    assert sum(res.index_counts.values()) > 10 * res.steps  # many events per step


def test_max_steps_exhaustion_reports_defect():
    # an unsatisfiable single-site family: both colors forbidden
    phis = (Pattern.from_map(Z, {0: 0}, 2), Pattern.from_map(Z, {0: 1}, 2))
    ev = ExplicitEvent(phis, 2)
    act = CyclicTranslation(16)
    res = run_mt(act, EventFamily.of(ev), TapeSpace(seed=1, k=2), max_steps=5)
    assert not res.converged
    assert res.steps == 5
    assert res.defect_points == tuple(range(16))


def test_defect_examples():
    act = CyclicTranslation(4)
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.4", integer_interval(2))
    constant = np.zeros(4, dtype=np.int64)
    assert defect(constant, ev, act) == (0, 1, 2, 3)
    # one violating anchor by hand: window pairs (g[x], g[x+1])
    g = np.array([0, 0, 1, 0])
    # anchors: (0,0) dev 1/2 >= .4 bad; (0,1) ok; (1,0) ok; (0,0) bad
    assert defect(g, ev, act) == (0, 3)
    assert defect(g, ev, act, translated=True) == (0, 1, 3)


@st.composite
def detection_cases(draw):
    k = draw(st.sampled_from([2, 3]))
    s_size = draw(st.integers(1, 2))
    d_size = draw(st.integers(1, 12))
    # eps |D| k^|S| is an integer at 0.5 for k = 2 and at 0.25 for k = 2,
    # |D| even: there some counts land exactly on the threshold
    eps = draw(st.sampled_from(["0.1", "0.25", "0.3", "0.5"]))
    modulus = draw(st.integers(s_size + d_size, 60))
    g = draw(st.lists(st.integers(0, k - 1), min_size=modulus, max_size=modulus))
    return k, s_size, eps, d_size, modulus, g


@given(detection_cases())
@example((2, 1, "0.25", 4, 8, [1, 1, 1, 0, 0, 0, 0, 0]))  # counts 1 and 3 tie
@seed(20_181)
@settings(max_examples=100, deadline=None)
def test_frequency_counts_match_event_holds(case):
    # vectorized anchor detection agrees with the per-config event test
    _assert_detection_matches_holds(*case)


def _assert_detection_matches_holds(k, s_size, eps, d_size, modulus, g):
    ev = FrequencyDeviationEvent(k, integer_interval(s_size), eps, integer_interval(d_size))
    act = CyclicTranslation(modulus)
    bad = set(violated_anchors(act, ev, np.array(g)).tolist())
    for x in range(modulus):
        vals = {e: g[act.act(e, x)] for e in ev.domain}
        assert ev.holds(Config.from_map(Z, vals)) == (x in bad), x


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


def test_index_report_bounds():
    assert index_report(
        _dummy_result(), {0: 0.5})[0].bound == pytest.approx(1.0)


def _dummy_result():
    from shiftlab.moser_tardos import MTResult
    return MTResult(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64),
                    {}, 0, True, (), TapeSpace(seed=0, k=2), np.zeros(4, dtype=np.int64))


def test_resample_fraction_bound():
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.25", integer_interval(20))
    act = CyclicTranslation(200)
    fam = EventFamily.of(ev)
    res = run_mt(act, fam, TapeSpace(seed=77, k=2))
    fr = resample_fraction(res, fam, {0: 0.5})
    assert fr.bound == pytest.approx(len(ev.domain) * 1.0)


def test_event_family_canonical_order():
    ev1 = ExplicitEvent((Pattern.from_map(Z, {0: 0}, 2),), 2)
    ev2 = ExplicitEvent((Pattern.from_map(Z, {0: 1}, 2),), 2)
    fam = EventFamily(((5, ev1), (2, ev2)))
    assert [n for n, _ in fam] == [2, 5]


def test_frequency_counts_rejects_partial_action():
    from shiftlab.groups import lattice_window
    from shiftlab.moser_tardos import frequency_counts
    ev = FrequencyDeviationEvent(2, gset(Z, [0]), "0.2", gset(Z, [0, 1]))
    w = lattice_window([6])
    with pytest.raises(GroupError):
        list(frequency_counts(w, ev, np.zeros(6, dtype=np.int64)))
