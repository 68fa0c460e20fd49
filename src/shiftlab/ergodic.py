"""Executable experiments: almost-sure convergence of pattern frequencies,
uniform frequency control after resampling, periodic approximations of the
uniform measure, and near-invariant finitely supported measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .concentration import deviation_exponent
from .groups import (CyclicTranslation, FiniteAction, GroupCtx, GroupError,
                     GroupSet, integer_interval, is_sd_free)
from .lll import (CertificationError, FrequencyDeviationEvent, GLLLWitnessSpec,
                  check_glll_witness, slll_stats)
from .moser_tardos import (EventFamily, MTResult, TapeSpace, frequency_counts,
                           resample_fraction, run_mt)
from .rng import block_rows, color_matrix, derive_seed
from .shift import Pattern, PatternStats, all_patterns, as_fraction

INTEGERS_CTX = GroupCtx("integers")


@dataclass(frozen=True)
class AveragingSequence:
    """Averaging sets D_n: either log-growth intervals {0..ceil(C log(n+2))-1}
    or an explicit list."""

    rule: str                      # "log-growth" | "explicit"
    C: Optional[float] = None
    explicit: Optional[tuple] = None

    @classmethod
    def log_growth(cls, C: float) -> "AveragingSequence":
        if C <= 0:
            raise ValueError("growth constant must be positive")
        return cls("log-growth", C=C)

    @classmethod
    def from_sets(cls, sets: Sequence[GroupSet]) -> "AveragingSequence":
        if any(len(s) == 0 for s in sets):
            raise ValueError("averaging sets must be nonempty")
        return cls("explicit", explicit=tuple(sets))

    def size(self, n: int) -> int:
        if self.rule == "log-growth":
            return max(1, math.ceil(self.C * math.log(n + 2)))
        return len(self._explicit_at(n))

    def realize(self, n: int) -> GroupSet:
        if self.rule == "log-growth":
            return integer_interval(self.size(n))
        return self._explicit_at(n)

    def _explicit_at(self, n: int) -> GroupSet:
        if not (0 <= n < len(self.explicit)):
            raise ValueError(f"explicit sequence has indices 0..{len(self.explicit) - 1},"
                             f" asked for {n}")
        return self.explicit[n]


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

    def exceedances_within(self, z: float = 3.0) -> bool:
        for r in self.rows:
            p = min(r.bc_tail, 1.0)
            sigma = math.sqrt(p * (1.0 - p) / self.samples)
            if r.exceed_frac_beyond > p + z * sigma:
                return False
        return True

    def csv_rows(self):
        for r in self.rows:
            yield (r.n, r.d_size, r.worst_dev, r.exceed_frac_beyond, r.bc_tail)


def ergodic_convergence_experiment(k: int, S: GroupSet, eps, seq: AveragingSequence,
                                   n_max: int, samples: int, seed: int,
                                   chunk: int | None = None) -> ConvergenceReport:
    """Sample i.i.d. uniform configurations and track, for each n, the worst
    pattern-frequency deviation over D_n, the fraction of samples that still
    deviate by eps somewhere at or beyond n, and the summed closed-form
    bound 2 exp(-eps^2 |D_m| / (2|S|^3)) over m >= n.  Samples run `chunk`
    at a time, by default as many as make one RNG block of colors; the
    result does not depend on the chunk size.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if S.ctx != INTEGERS_CTX:
        raise GroupError("this experiment runs over integer windows")
    if len(S) == 0:
        raise ValueError("pattern domain S must be nonempty")
    eps_fr = as_fraction(eps)
    d_sets = [seq.realize(n) for n in range(n_max + 1)]
    d_sizes = [len(d) for d in d_sets]
    s_elems = [int(e) for e in S.elements]
    scale = k ** len(S)

    # the sites s + d span [min S + min D_n, max S + max D_n] over all n
    lo = s_elems[0] + min(ds.elements[0] for ds in d_sets)
    hi = s_elems[-1] + max(ds.elements[-1] for ds in d_sets)
    width = hi - lo + 1
    # prefix mode: every D_n is an interval whose anchors start at column 0
    prefix_mode = all(ds.interval == (lo, sz) for ds, sz in zip(d_sets, d_sizes))
    if not prefix_mode:
        d_offsets = [np.asarray(ds.elements, dtype=np.int64) - lo for ds in d_sets]

    patterns = all_patterns(S, k)
    exceed = np.zeros((samples, n_max + 1), dtype=bool)
    worst_num = np.zeros(n_max + 1, dtype=np.int64)  # max |count*scale - |D||

    run_seed = derive_seed(seed, 0xE6)
    chunk = chunk or block_rows(width)
    for start in range(0, samples, chunk):
        rows = min(chunk, samples - start)
        colors = color_matrix(run_seed, rows, width, k, row_offset=start)
        for pat in patterns:
            occ = np.ones((rows, width), dtype=bool)
            for s, col in zip(s_elems, pat.colors):
                shift = s  # occurrence at window position j tests site j + s
                if shift == 0:
                    occ &= colors == col
                else:
                    part = np.zeros((rows, width), dtype=bool)
                    if shift > 0:
                        part[:, :width - shift] = colors[:, shift:] == col
                    else:
                        part[:, -shift:] = colors[:, :width + shift] == col
                    occ &= part
            if prefix_mode:
                csum = np.cumsum(occ, axis=1, dtype=np.int64)
                counts = np.stack([csum[:, sz - 1] for sz in d_sizes], axis=1)
            else:
                counts = np.stack([occ[:, off].sum(axis=1) for off in d_offsets], axis=1)
            dev = np.abs(counts * scale - np.asarray(d_sizes))
            exceed[start:start + rows] |= dev * eps_fr.denominator >= \
                eps_fr.numerator * np.asarray(d_sizes) * scale
            worst_num = np.maximum(worst_num, dev.max(axis=0))

    # suffix-OR across n: any exceedance at m >= n
    any_beyond = np.zeros_like(exceed)
    acc = np.zeros(samples, dtype=bool)
    for n in range(n_max, -1, -1):
        acc |= exceed[:, n]
        any_beyond[:, n] = acc
    exceed_frac = any_beyond.mean(axis=0)

    epsf = float(eps_fr)
    bounds = [2.0 * math.exp(-deviation_exponent(epsf, len(S), sz)) for sz in d_sizes]
    tails = np.cumsum(bounds[::-1])[::-1]

    rows_out = []
    for n in range(n_max + 1):
        rows_out.append(ConvergenceRow(
            n, d_sizes[n], float(worst_num[n] / (d_sizes[n] * scale)),
            float(exceed_frac[n]), float(tails[n])))
    quiet = None
    for n in range(n_max + 1):
        if exceed_frac[n] == 0:
            quiet = n
            break
    return ConvergenceReport(rows_out, samples, quiet)


# -- uniform frequency control through resampling ------------------------------


@dataclass
class UniformDiscrepancyResult:
    result: MTResult
    stats_per_n: list            # (n, PatternStats)
    certified: bool
    certificate: object
    max_deviation: Optional[Fraction]
    all_within: Optional[bool]   # deviation <= eps at every point and n
    fractions: object            # ResampleFractions vs the budget
    warnings: list
    delta_report: Fraction = Fraction(0)   # fraction of points still violating


def uniform_discrepancy_experiment(k: int, S: GroupSet, eps, seq: AveragingSequence,
                                   n_max: int, action: FiniteAction, seed: int,
                                   a: Optional[float] = None,
                                   max_steps: Optional[int] = None
                                   ) -> UniformDiscrepancyResult:
    """Resample until every point sees every pattern with frequency within
    eps of k^{-|S|} over every D_n, and compare the resampled fraction with
    the witness budget.

    The witness certificate is checked first; if it fails, the run still
    proceeds best-effort but the result carries a warning instead of a claim.
    """
    eps_fr = as_fraction(eps)
    epsf = float(eps_fr)
    d_sets = [seq.realize(n) for n in range(n_max + 1)]
    for ds in d_sets:
        if is_sd_free(action, [S, ds]) is not True:
            raise GroupError("action must be (S, D_n)-free for every n")

    if a is None:
        a = epsf * epsf / (4.0 * len(S) ** 3)
    witness = GLLLWitnessSpec(a=a)
    degree_mode = ("interval" if all(s.interval is not None for s in [S, *d_sets])
                   else "generic")
    warnings = []
    try:
        cert = check_glll_witness(k, S, eps_fr, d_sets, witness, eps_sum=eps_fr,
                                  degree_mode=degree_mode)
        certified = cert.witness_ok
        if certified and not cert.budget_ok:
            warnings.append("witness budget exceeds eps: the resample fraction is "
                            "only claimed below the witness bound, not below eps")
    except CertificationError as exc:
        cert = None
        certified = False
        warnings.append(str(exc))
    if not certified and not warnings:
        warnings.append("witness certificate failed; no uniform-control claim is made")

    events = [FrequencyDeviationEvent(k, S, eps_fr, ds) for ds in d_sets]
    family = EventFamily(tuple(enumerate(events)))
    tape = TapeSpace(seed=seed, k=k)
    result = run_mt(action, family, tape, max_steps=max_steps)

    omegas = {n: witness.omega(len(ds)) for n, ds in enumerate(d_sets)}
    fracs = resample_fraction(result, family, omegas)

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
                worst_ix = int(np.abs(counts * scale - d_sz).argmax())
                freqs[pat.pattern_id] = Fraction(int(counts[worst_ix]), d_sz)
                dev = Fraction(int(np.abs(counts * scale - d_sz).max()), d_sz * scale)
                max_dev = max(max_dev, dev)
            stats_per_n.append((n, PatternStats.from_freqs(freqs, Fraction(1, scale))))
        all_within = max_dev <= eps_fr
    delta = Fraction(len(result.defect_points), action.n_points)
    return UniformDiscrepancyResult(result, stats_per_n, certified, cert,
                                    max_dev, all_within, fracs, warnings, delta)


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

    def value_of(self, phi: Pattern) -> Fraction:
        for r in self.rows:
            if r.pattern == phi:
                return r.value
        raise KeyError("pattern not in table")


def periodic_cylinder_value(k: int, period: int, phi: Pattern) -> Fraction:
    """Cylinder mass of phi under the uniform measure on colorings of the
    integers that are constant on residue classes mod `period`: k^{-r} when
    phi is constant on the residues it meets (r of them), else 0."""
    if phi.domain.ctx != INTEGERS_CTX:
        raise GroupError("periodic approximations are defined over the integers")
    classes: dict[int, int] = {}
    for site, col in phi.items():
        r = int(site) % period
        if r in classes and classes[r] != col:
            return Fraction(0)
        classes[r] = col
    return Fraction(1, k ** len(classes))


def periodic_cylinder_table(k: int, period: int, patterns: Sequence[Pattern],
                            shifts: Sequence[int] = (1, -1)) -> PeriodicCylinderTable:
    """Exact cylinder table of the mod-`period` uniform measure, plus an
    exact check that every listed pattern has shift-invariant mass."""
    if period < 1:
        raise ValueError("period must be >= 1")
    rows = []
    invariant = True
    for phi in patterns:
        classes: dict[int, int] = {}
        consistent = True
        for site, col in phi.items():
            r = int(site) % period
            if r in classes and classes[r] != col:
                consistent = False
            classes[r] = col
        val = Fraction(1, k ** len(classes)) if consistent else Fraction(0)
        rows.append(PeriodicCylinderRow(phi, len(classes), consistent, val))
        for g in shifts:
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
    mt_result: MTResult


def near_invariant_measure(k: int, S: GroupSet, eps, D: GroupSet, modulus: int,
                           seed: int, shift_test_range: Optional[int] = None
                           ) -> NearInvariantMeasure:
    """Resample on a cyclic space until the single frequency event is avoided
    everywhere, then read off the empirical pattern distribution over D at
    anchor 0 and the worst cylinder deviation across shifted anchors.
    """
    eps_fr = as_fraction(eps)
    action = CyclicTranslation(modulus)
    if is_sd_free(action, [S, D]) is not True:
        raise GroupError("action must be (S, D)-free")
    stats = slll_stats(k, S, eps_fr, D)
    if not stats.certified:
        raise CertificationError(
            f"instance not certified: margin {stats.slll_margin:.3g} >= 1")
    ev = FrequencyDeviationEvent(k, S, eps_fr, D)
    result = run_mt(action, EventFamily.of(ev), TapeSpace(seed=seed, k=k))
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
    return NearInvariantMeasure(atoms, worst, eps_fr, worst <= eps_fr, result)
