"""Executable experiments: almost-sure convergence of pattern frequencies,
uniform frequency control after resampling, periodic approximations of the
uniform measure, and near-invariant finitely supported measures.

The averaging experiments take the finite sets D_0, ..., D_{n_max} they
average over as a list of `GroupSet`s; `log_growth_size` gives the sizes
|D_n| = ceil(C log(n+2)) of the log-growth intervals the configs use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .concentration import concentration_bound, deviation_thresholds
from .groups import CyclicTranslation, GroupError, GroupSet
from .lll import (CertificationError, FrequencyDeviationEvent, GLLLWitnessSpec,
                  check_glll_witness, default_witness_exponent, slll_stats)
from .moser_tardos import (PATTERN_CAP, MTResult, TapeSpace, frequency_counts,
                           resample_fraction, run_mt, scans_patterns)
from .rng import block_rows, derive_seed, pattern_counts
from .shift import Pattern, PatternStats, all_patterns, as_fraction


def log_growth_size(C: float, n: int) -> int:
    """|D_n| = max(1, ceil(C log(n+2))), the size of the n-th log-growth
    averaging interval {0..|D_n|-1}."""
    if C <= 0:
        raise ValueError("growth constant must be positive")
    return max(1, math.ceil(C * math.log(n + 2)))


def _check_averaging_sets(d_sets: Sequence[GroupSet]) -> None:
    if not d_sets or any(len(d) == 0 for d in d_sets):
        raise ValueError("averaging sets D_0..D_n must be a nonempty list of nonempty sets")


@dataclass
class ConvergenceRow:
    n: int
    d_size: int
    worst_dev: float
    exceed_frac_beyond: float
    bc_tail: float


@dataclass
class ConvergenceReport:
    rows: list
    samples: int
    first_quiet_n: Optional[int]   # least n with no exceedance at any m >= n

    def exceedances_within(self) -> bool:
        """Whether every row's exceedance fraction is within 3 sigma of its
        closed-form tail, read as a binomial rate over the samples."""
        for r in self.rows:
            p = min(r.bc_tail, 1.0)
            sigma = math.sqrt(p * (1.0 - p) / self.samples)
            if r.exceed_frac_beyond > p + 3.0 * sigma:
                return False
        return True

    def csv_rows(self):
        for r in self.rows:
            yield (r.n, r.d_size, r.worst_dev, r.exceed_frac_beyond, r.bc_tail)


def ergodic_convergence_experiment(k: int, S: GroupSet, eps, d_sets: Sequence[GroupSet],
                                   samples: int, seed: int,
                                   chunk: int | None = None) -> ConvergenceReport:
    """Sample i.i.d. uniform configurations and track, for each D_n of
    `d_sets` = [D_0, ..., D_{n_max}], the worst pattern-frequency deviation
    over D_n, the fraction of samples that still deviate by eps somewhere at
    or beyond n, and the summed closed-form bound
    2 exp(-eps^2 |D_m| / (2|S|^3)) over m >= n.  Each D_n is read as runs
    of consecutive anchors, and one `rng.pattern_counts` call per pattern
    counts a chunk of samples at every run boundary at once.  Samples run
    `chunk` at a time, by default block_rows(E) of them for E boundaries,
    which bounds the count block; the result does not depend on the chunk
    size.  The exact deviation thresholds of every D_n are computed once per
    run, and each chunk compares against them the gaps that also give the
    worst deviation.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _check_averaging_sets(d_sets)
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if len(S) == 0:
        raise ValueError("pattern domain S must be nonempty")
    if not scans_patterns(k, len(S)):
        raise ValueError(f"pattern space too large to scan; keep k^|S| <= {PATTERN_CAP}")
    eps_fr = as_fraction(eps)
    n_max = len(d_sets) - 1
    d_sizes = np.array([len(d) for d in d_sets], dtype=np.int64)
    s_elems = [int(e) for e in S.elements]
    scale = k ** len(S)
    bounds = [concentration_bound(eps_fr, len(S), len(ds)) for ds in d_sets]
    # the least gap |count*scale - |D_n|| that deviates, once per run
    least = deviation_thresholds(d_sizes, k, len(S), eps_fr)
    tails = np.cumsum(bounds[::-1])[::-1]

    # occurrence column j is anchor d_lo + j, and reads site s at color
    # column j + s - min S; the colors span [min S + d_lo, max S + d_hi]
    d_lo = min(ds.elements[0] for ds in d_sets)
    d_hi = max(ds.elements[-1] for ds in d_sets)
    n_anchors = d_hi - d_lo + 1
    width = n_anchors + s_elems[-1] - s_elems[0]
    selectors = [slice(s - s_elems[0], s - s_elems[0] + n_anchors) for s in s_elems]
    # each D_n as runs [lo, hi) of anchor columns: one for an interval, one
    # per element otherwise; first_run[n] is the index of D_n's first run
    runs, first_run = [], []
    for ds in d_sets:
        first_run.append(len(runs))
        if isinstance(ds.elements, range):
            runs.append((ds.elements.start - d_lo, ds.elements.stop - d_lo))
        else:
            runs.extend((e - d_lo, e - d_lo + 1) for e in ds.elements)
    # pattern_counts counts at every nonzero run boundary, `ends`; in the
    # prefix P that puts P(0) = 0 before those counts, boundary b is column
    # searchsorted(ends, b, "right"), and a run's count is P(hi) - P(lo).
    # A set dedups them: np.unique imports numpy.ma on numpy 2.x
    ends = np.array(sorted({b for run in runs for b in run} - {0}))
    run_lo, run_hi = (np.searchsorted(ends, r, side="right") for r in zip(*runs))

    patterns = all_patterns(S, k)
    exceed = np.zeros((samples, n_max + 1), dtype=bool)
    worst_num = np.zeros(n_max + 1, dtype=np.int64)  # max |count*scale - |D||

    run_seed = derive_seed(seed, 0xE6)
    chunk = chunk or block_rows(ends.size)
    for start in range(0, samples, chunk):
        rows = min(chunk, samples - start)
        for pat in patterns:
            prefix = np.pad(pattern_counts(run_seed, rows, width, k, selectors, pat.colors,
                                           ends, row_offset=start), ((0, 0), (1, 0)))
            counts = np.add.reduceat(prefix[:, run_hi] - prefix[:, run_lo], first_run, axis=1)
            gap = np.abs(counts * scale - d_sizes)
            exceed[start:start + rows] |= gap >= least
            worst_num = np.maximum(worst_num, gap.max(axis=0))

    # suffix-OR across n: any exceedance at m >= n
    any_beyond = np.logical_or.accumulate(exceed[:, ::-1], axis=1)[:, ::-1]
    exceed_frac = any_beyond.mean(axis=0)

    rows_out = []
    for n in range(n_max + 1):
        rows_out.append(ConvergenceRow(
            n, int(d_sizes[n]), float(worst_num[n] / (d_sizes[n] * scale)),
            float(exceed_frac[n]), float(tails[n])))
    quiet = np.flatnonzero(exceed_frac == 0)
    return ConvergenceReport(rows_out, samples, int(quiet[0]) if quiet.size else None)


# -- uniform frequency control through resampling ------------------------------


@dataclass
class UniformDiscrepancyResult:
    result: MTResult
    stats_per_n: list            # (n, PatternStats)
    certified: bool
    max_deviation: Optional[Fraction]
    all_within: Optional[bool]   # deviation <= eps at every point and n
    fractions: object            # ResampleFractions
    resample_budget: float       # sum_n |S D_n| omega(n) / (1 - omega(n)), the witness budget
    warnings: list
    delta_report: Fraction = Fraction(0)   # fraction of points still violating


def uniform_discrepancy_experiment(k: int, S: GroupSet, eps, d_sets: Sequence[GroupSet],
                                   action: CyclicTranslation, seed: int,
                                   a: Optional[float] = None) -> UniformDiscrepancyResult:
    """Resample until every point sees every pattern with frequency within
    eps of k^{-|S|} over every D_n of `d_sets`, and compare the resampled
    fraction with the witness budget.

    The witness certificate is checked first; if it fails, the run still
    proceeds best-effort but the result carries a warning instead of a claim.
    """
    _check_averaging_sets(d_sets)
    eps_fr = as_fraction(eps)
    events = [FrequencyDeviationEvent(k, S, eps_fr, ds) for ds in d_sets]
    # free for S D_n, the domain the resampling run needs, is free for S and D_n
    if not all(action.free_for(ev.domain) for ev in events):
        raise GroupError("action must be free for S D_n for every n")

    if a is None:
        a = default_witness_exponent(eps_fr, len(S))
    witness = GLLLWitnessSpec(a=a)
    warnings = []
    try:
        cert = check_glll_witness(k, S, eps_fr, d_sets, witness, eps_sum=eps_fr)
        certified = cert.witness_ok
        if certified and not cert.budget_ok:
            warnings.append("witness budget exceeds eps: the resample fraction is "
                            "only claimed below the witness bound, not below eps")
    except CertificationError as exc:
        certified = False
        warnings.append(str(exc))
    if not certified and not warnings:
        warnings.append("witness certificate failed; no uniform-control claim is made")

    result = run_mt(action, events, TapeSpace(seed=seed, k=k))
    fracs = resample_fraction(result)
    omegas = [witness.omega(len(ds)) for ds in d_sets]
    budget = sum(len(ev.domain) * w / (1.0 - w) for ev, w in zip(events, omegas))

    stats_per_n = []
    max_dev: Optional[Fraction] = None
    all_within: Optional[bool] = None
    if result.converged:
        max_dev = Fraction(0)
        scale = k ** len(S)
        for n, ev in enumerate(events):
            freqs = {}
            d_sz = len(ev.D)
            for pat, counts in frequency_counts(action, ev, result.coloring):
                gap = np.abs(counts * scale - d_sz)
                worst_ix = int(gap.argmax())
                freqs[pat.pattern_id] = Fraction(int(counts[worst_ix]), d_sz)
                max_dev = max(max_dev, Fraction(int(gap[worst_ix]), d_sz * scale))
            stats_per_n.append((n, PatternStats.from_freqs(freqs, Fraction(1, scale))))
        all_within = max_dev <= eps_fr
    delta = Fraction(len(result.defect_points), action.modulus)
    return UniformDiscrepancyResult(result, stats_per_n, certified, max_dev, all_within,
                                    fracs, budget, warnings, delta)


# -- periodic approximations of the uniform measure ----------------------------


@dataclass
class PeriodicCylinderRow:
    pattern: Pattern
    residues: int
    consistent: bool
    value: Fraction


@dataclass
class PeriodicCylinderTable:
    period: int
    k: int
    rows: list
    shift_invariant: bool


def _residue_walk(k: int, period: int, phi: Pattern) -> tuple[int, bool, Fraction]:
    """(residue classes mod `period` that phi meets, whether phi is constant
    on each, the cylinder mass: k^{-residues} if it is, else 0)."""
    classes: dict[int, int] = {}
    consistent = True
    for site, col in phi.items():
        consistent &= classes.setdefault(int(site) % period, col) == col
    value = Fraction(1, k ** len(classes)) if consistent else Fraction(0)
    return len(classes), consistent, value


def periodic_cylinder_value(k: int, period: int, phi: Pattern) -> Fraction:
    """Cylinder mass of phi under the uniform measure on colorings of the
    integers that are constant on residue classes mod `period`: k^{-r} when
    phi is constant on the residues it meets (r of them), else 0."""
    return _residue_walk(k, period, phi)[2]


def periodic_cylinder_table(k: int, period: int,
                            patterns: Sequence[Pattern]) -> PeriodicCylinderTable:
    """Exact cylinder table of the mod-`period` uniform measure, plus an
    exact check that every listed pattern has shift-invariant mass.  Only
    the shift by 1 and its inverse are checked, the generators of Z: a
    measure invariant under both is invariant under every shift."""
    if period < 1:
        raise ValueError("period must be >= 1")
    rows = []
    invariant = True
    for phi in patterns:
        residues, consistent, val = _residue_walk(k, period, phi)
        rows.append(PeriodicCylinderRow(phi, residues, consistent, val))
        for g in (1, -1):
            if periodic_cylinder_value(k, period, phi.shifted(g)) != val:
                invariant = False
    return PeriodicCylinderTable(period, k, rows, invariant)


# -- near-invariant finitely supported measures ---------------------------------


@dataclass
class NearInvariantMeasure:
    atoms: list                   # (pattern_id, Fraction weight), anchor-0 statistics
    worst_shift_dev: Fraction
    eps: Fraction
    within: bool


def near_invariant_measure(k: int, S: GroupSet, eps, D: GroupSet, modulus: int,
                           seed: int, shift_test_range: Optional[int] = None
                           ) -> NearInvariantMeasure:
    """Resample on a cyclic space until the single frequency event is avoided
    everywhere, then read off the empirical pattern distribution over D at
    anchor 0 and the worst cylinder deviation across shifted anchors.
    """
    if shift_test_range is not None and shift_test_range < 1:
        raise ValueError(f"shift_test_range must be >= 1, got {shift_test_range}")
    eps_fr = as_fraction(eps)
    action = CyclicTranslation(modulus)
    ev = FrequencyDeviationEvent(k, S, eps_fr, D)
    # free for SD, the domain the resampling run needs, is free for S and D
    if not action.free_for(ev.domain):
        raise GroupError("action must be free for SD")
    stats = slll_stats(k, S, eps_fr, D)
    if not stats.certified:
        raise CertificationError(
            f"instance not certified: margin {stats.slll_margin:.3g} >= 1")
    result = run_mt(action, [ev], TapeSpace(seed=seed, k=k))
    if not result.converged:
        raise RuntimeError("resampling did not converge within the step budget")

    scale = k ** len(S)
    d_sz = len(D)
    shift_cap = modulus if shift_test_range is None else min(shift_test_range, modulus)
    atoms = []
    worst = Fraction(0)
    for pat, counts in frequency_counts(action, ev, result.coloring):
        atoms.append((pat.pattern_id, Fraction(int(counts[0]), d_sz)))
        sl = counts[:shift_cap]
        dev = Fraction(int(np.abs(sl * scale - d_sz).max()), d_sz * scale)
        worst = max(worst, dev)
    return NearInvariantMeasure(atoms, worst, eps_fr, worst <= eps_fr)
