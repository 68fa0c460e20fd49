"""Cross-module scenarios beyond the per-module unit tests."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from shiftlab import rng
from shiftlab.cli import EXIT_OK, main
from shiftlab.ergodic import log_growth_size, uniform_discrepancy_experiment
from shiftlab.groups import CyclicTranslation, integer_interval
from shiftlab.lll import FrequencyDeviationEvent
from shiftlab.moser_tardos import TapeSpace, frequency_counts, run_mt, stabilization_ledger


def test_two_interval_family_certified_and_controlled():
    d_sets = [integer_interval(m) for m in (3000, 4000)]
    res = uniform_discrepancy_experiment(2, integer_interval(1), "0.1", d_sets,
                                         CyclicTranslation(60_000), seed=19)
    assert res.certified            # witness-product holds for both events
    assert res.result.converged
    assert res.all_within
    assert res.delta_report == 0
    assert len(res.stats_per_n) == 2
    for _n, stats in res.stats_per_n:
        assert max(r[3] for r in stats.rows) <= Fraction(1, 10)


def test_mt_with_three_colors():
    ev = FrequencyDeviationEvent(3, integer_interval(1), "0.15", integer_interval(2000))
    act = CyclicTranslation(30_000)
    res = run_mt(act, [ev], TapeSpace(seed=2, k=3))
    assert res.converged
    assert stabilization_ledger(res)
    assert set(np.unique(res.coloring)) <= {0, 1, 2}
    for _pat, counts in frequency_counts(act, ev, res.coloring):
        dev = np.abs(counts * 3 - 2000).max()
        assert Fraction(int(dev), 6000) <= Fraction(15, 100)


def test_transcript_structure():
    # short windows resample in visible batches of disjoint domains
    ev = FrequencyDeviationEvent(2, integer_interval(1), "0.4", integer_interval(4))
    act = CyclicTranslation(64)
    lines = []
    res = run_mt(act, [ev], TapeSpace(seed=6, k=2), transcript=lines)
    assert res.converged and res.steps > 1
    assert [ln["step"] for ln in lines] == list(range(res.steps))
    F = len(ev.domain)
    for ln in lines:
        assert ln["tape_advanced"] == F * len(ln["selected"])  # disjoint domains
        assert all(n == 0 for n, _x in ln["selected"])
    total_selected = sum(len(ln["selected"]) for ln in lines)
    assert F * total_selected == int(res.t.sum())


def test_interval_shape_threshold():
    from shiftlab.lll import find_slll_threshold
    res = find_slll_threshold(2, integer_interval(1), "0.1", shape="interval")
    # oracle scan over the closed-form interval margin
    last_bad = 0
    for m in range(1, 5000):
        margin = math.e * 4 * math.exp(-0.005 * m) * (2 * m - 1)
        if margin >= 1:
            last_bad = m
    assert res.threshold == last_bad + 1


@pytest.mark.parametrize("kernel", ["resolved", "numpy"])
def test_cli_jobs_deterministic(kernel, tmp_path, monkeypatch):
    # the seeds' threads hash concurrently, in C or in the numpy fallback
    if kernel == "numpy":
        monkeypatch.setattr(rng, "_kernel", False)
        monkeypatch.setattr(rng, "_kernel_info", {"rng_kernel": "numpy",
                                                  "rng_kernel_built": False,
                                                  "rng_kernel_load_s": 0.0})
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
    meta = json.loads((out2 / "moser-tardos-meta.json").read_text())
    assert meta["rng_kernel"] == ("numpy" if kernel == "numpy"
                                  else rng._kernel_info["rng_kernel"])


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


def test_mc_chunk_invariance():
    from shiftlab.concentration import mc_deviation_prob
    from shiftlab.shift import all_patterns
    eps, D = Fraction(1, 5), integer_interval(100)
    phi = all_patterns(integer_interval(1), 2)[0]
    act = CyclicTranslation(5000)
    a = mc_deviation_prob(phi, eps, D, act, 700, seed=3, chunk=64)
    b = mc_deviation_prob(phi, eps, D, act, 700, seed=3, chunk=700)
    # the default chunk is min(trials, 65_536) rows: here all 700 in one call,
    # while chunks of 64 leave a partial last one
    c = mc_deviation_prob(phi, eps, D, act, 700, seed=3)
    assert a.hits == b.hits
    assert a.mean_occurrences == b.mean_occurrences
    assert c == b
    for bad in (0, -5):
        with pytest.raises(ValueError, match="chunk"):
            mc_deviation_prob(phi, eps, D, act, 700, seed=3, chunk=bad)
    # at |D| = 1, 70,000 trials cross the default chunk boundary once
    one = integer_interval(1)
    d = mc_deviation_prob(phi, eps, one, act, 70_000, seed=3)
    assert d == mc_deviation_prob(phi, eps, one, act, 70_000, seed=3, chunk=70_000)


def test_ergodic_chunk_invariance():
    from shiftlab.ergodic import ergodic_convergence_experiment
    seq = [integer_interval(log_growth_size(30, n)) for n in range(9)]
    r1 = ergodic_convergence_experiment(2, integer_interval(1), "0.2", seq, 50,
                                        seed=5, chunk=7)
    r2 = ergodic_convergence_experiment(2, integer_interval(1), "0.2", seq, 50,
                                        seed=5, chunk=50)
    r3 = ergodic_convergence_experiment(2, integer_interval(1), "0.2", seq, 50,
                                        seed=5)
    for a, b in zip(r1.rows, r2.rows):
        assert a.worst_dev == b.worst_dev
        assert a.exceed_frac_beyond == b.exceed_frac_beyond
    assert r3 == r2
    for bad in (0, -5):
        with pytest.raises(ValueError, match="chunk"):
            ergodic_convergence_experiment(2, integer_interval(1), "0.2", seq, 50,
                                           seed=5, chunk=bad)
