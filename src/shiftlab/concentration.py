"""Closed-form concentration bounds and their Monte Carlo verification.

The central inequality: color SD.x uniformly at random on an (S, D)-free
action; then for each pattern phi on S,

    P[ | |D ∩ O_phi| / |D|  -  k^{-|S|} | >= eps ]  <=  2 exp(-eps^2 |D| / (2|S|^3)),

obtained from the bounded-differences bound with s = |SD.x| <= |S||D|
independent trials, per-trial influence b = |S|, and deviation t = eps|D|.
`concentration_bound` takes eps, |S| and |D|; `mc_deviation_prob` takes the
pattern phi, which carries S = phi.domain and k = phi.k, with eps and D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .groups import CyclicTranslation, GroupError, GroupSet, set_product
from .rng import derive_seed, pattern_counts
from .shift import Pattern, as_fraction

WILSON_Z95 = 1.959963984540054
# a sweep point whose closed-form bound is at least this is vacuous
VACUOUS_BOUND = 0.9
# two-sided tail mass of a single 3-sigma test
SWEEP_ALPHA = 2 * (1 - NormalDist().cdf(3.0))


def scb_bound(s: int, b: float, t: float) -> float:
    """2 exp(-t^2 / (2 b^2 s)): deviation bound for a quantity determined by
    s independent trials, each moving it by at most b."""
    if s < 1:
        raise ValueError(f"trial count must be >= 1, got {s}")
    if b <= 0 or t < 0:
        raise ValueError("influence must be positive and deviation nonnegative")
    return 2.0 * math.exp(-(t * t) / (2.0 * b * b * s))


def deviation_exponent(eps: float, s_size: int, d_size: int) -> float:
    """eps^2 |D| / (2 |S|^3), the exponent of the frequency-deviation bound.
    Every bound, margin and witness limit in the package reads it from here,
    so their floats agree bit for bit."""
    return eps * eps * d_size / (2.0 * s_size ** 3)


def deviation_thresholds(d_size, k: int, s_size: int, eps):
    """The least gap |counts k^{|S|} - |D|| at which a pattern over |D| =
    d_size deviates by eps = num/den: ceil(num |D| k^{|S|} / den), computed in
    Python ints, so a denominator past int64 multiplies no count.  An int for
    an int `d_size`, else an array of d_size's shape."""
    eps = as_fraction(eps)
    scale = k ** s_size

    def threshold(d: int) -> int:
        return -(-eps.numerator * d * scale // eps.denominator)

    if np.ndim(d_size):
        return np.array([threshold(int(d)) for d in np.ravel(d_size)]).reshape(np.shape(d_size))
    return threshold(int(d_size))


def deviates(counts, d_size, k: int, s_size: int, eps):
    """Whether a pattern seen `counts` times over |D| = d_size misses
    k^{-|S|} by eps or more, tested exactly in integers as
    |counts k^{|S|} - |D|| >= deviation_thresholds(d_size, k, s_size, eps).
    Takes ints or integer arrays that broadcast against each other."""
    return abs(counts * k ** s_size - d_size) >= deviation_thresholds(d_size, k, s_size, eps)


def concentration_bound(eps, s_size: int, d_size: int) -> float:
    """2 exp(-eps^2 |D| / (2 |S|^3)); equals scb_bound(|S||D|, |S|, eps|D|)."""
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("deviation tolerance must be positive")
    if s_size < 1 or d_size < 1:
        raise ValueError("S and D must be nonempty")
    return 2.0 * math.exp(-deviation_exponent(float(eps), s_size, d_size))


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at 95% (z = WILSON_Z95)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = WILSON_Z95
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


@dataclass
class McEstimate:
    hits: int
    estimate: float
    wilson_95_upper: float
    wilson_95_lower: float
    mean_occurrences: float
    expectation_zscore: float      # of mean_occurrences against |D| / k^{|S|}


def mc_deviation_prob(phi: Pattern, eps, D: GroupSet, action: CyclicTranslation,
                      trials: int, seed: int, chunk: int | None = None) -> McEstimate:
    """Estimate the deviation probability bounded by concentration_bound for
    the pattern phi on S = phi.domain over k = phi.k colors.

    The action must be free for S and for D; the estimate is then the
    same from every anchor, so the orbit is sampled from point 0.  Each
    trial colors SD.0 uniformly at random and counts the elements of D at
    which phi occurs in the coloring pulled back through the action.  A
    trial is a hit when the frequency misses k^{-|S|} by eps or more (exact
    rational comparison).  The occurrence-count mean is also compared with
    |D| / k^{|S|}.  Trials run `chunk` at a time through one
    `rng.pattern_counts` call, by default up to 65,536 of them, so the
    counts of a call take at most 512 KiB; every accumulator is an exact
    integer count, so the chunk size cannot change the result.  The columns
    of s+D.0 are selected as a slice when they are consecutive sites, as they
    are for intervals S and D, and as an index array otherwise; the C kernel
    counts only all-slice patterns.
    """
    S, k = phi.domain, phi.k
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if as_fraction(eps) <= 0:
        raise ValueError("deviation tolerance must be positive")
    if len(D) == 0:
        raise ValueError("D must be nonempty")
    if not (action.free_for(S) and action.free_for(D)):
        raise GroupError("action is not (S, D)-free")
    dx = action.translates(D.elements, 0)

    # the sites SD.0, numbered in order of first appearance along sorted SD
    sites = action.translates(set_product(S, D).elements, 0).tolist()
    column = {y: i for i, y in enumerate(dict.fromkeys(sites))}
    # columns of s.(d.0) for each s (in the order of sorted D): a slice when
    # they are consecutive sites, else the index array
    cols = []
    for s in S.elements:
        c = np.array([column[y] for y in action.image(s, dx).tolist()], dtype=np.int64)
        if np.all(np.diff(c) == 1):
            c = slice(int(c[0]), int(c[-1]) + 1)
        cols.append(c)

    d_sz, s_sz = len(D), len(S)
    # exact integer accumulators, converted to float once after the loop
    hits = occ_sum = occ_sumsq = 0
    # bad_at[c]: whether a trial that saw phi c times over D is a hit
    bad_at = deviates(np.arange(d_sz + 1), d_sz, k, s_sz, eps)
    run_seed = derive_seed(seed, 0xC0)
    # a count is at most |D|, so the default keeps chunk * |D|^2, the bound on
    # one chunk's int64 sum of squares, below 2^63
    chunk = chunk or min(trials, 65_536, max(1, (1 << 63) // (d_sz * d_sz + 1)))
    for start in range(0, trials, chunk):
        counts = pattern_counts(run_seed, min(chunk, trials - start), len(column), k, cols,
                                phi.colors, (d_sz,), row_offset=start)[:, 0]
        hits += int(np.count_nonzero(bad_at[counts]))
        occ_sum += int(counts.sum())
        occ_sumsq += int(np.dot(counts, counts))

    mean_occ = float(occ_sum) / trials
    expected = d_sz / (k ** s_sz)
    var = max(float(occ_sumsq) / trials - mean_occ ** 2, 0.0)
    if var > 0:
        z = (mean_occ - expected) / math.sqrt(var / trials)
    else:  # every trial saw the same count: any miss is infinitely many sigma
        z = 0.0 if mean_occ == expected else math.copysign(math.inf, mean_occ - expected)
    lo, hi = wilson_interval(hits, trials)
    return McEstimate(hits, hits / trials, hi, lo, mean_occ, z)


@dataclass
class SweepRow:
    k: int
    s_size: int
    eps: float
    d_size: int
    bound: float
    estimate: float
    wilson_lower: float
    wilson_upper: float
    expectation_zscore: float
    verdict: str  # "pass" | "fail" | "vacuous"


def familywise_z(m: int) -> float:
    """|z| limit for m simultaneous two-sided tests whose total false-alarm
    rate is SWEEP_ALPHA (Bonferroni); 3.0 for a single test."""
    if m < 1:
        raise ValueError(f"need at least one test, got {m}")
    return NormalDist().inv_cdf(1 - SWEEP_ALPHA / (2 * m))


def deviation_sweep(grid, action: CyclicTranslation, trials: int, seed: int) -> list[SweepRow]:
    """Run mc_deviation_prob over a parameter grid, every point on `action`.

    `grid` yields (k, S, eps, D); points whose closed-form bound is at least
    VACUOUS_BOUND = 0.9 are reported as vacuous rather than compared.  A point
    fails only when the Wilson lower limit exceeds the bound or the
    occurrence-count mean misses its target by more than
    familywise_z(m) sigma, m being the number of non-vacuous points, so the
    whole sweep fails by chance no more often than one 3-sigma test; a raw
    estimate above the bound is not by itself a failure.
    """
    points = []
    for i, (k, S, eps, D) in enumerate(grid):
        phi = Pattern(S, (0,) * len(S), k)  # all-zero pattern: worst positive correlation
        est = mc_deviation_prob(phi, eps, D, action, trials, derive_seed(seed, i))
        points.append((k, len(S), float(as_fraction(eps)), len(D),
                       concentration_bound(eps, len(S), len(D)), est))
    tested = sum(bound < VACUOUS_BOUND for *_, bound, _est in points)
    z_limit = familywise_z(max(tested, 1))
    rows = []
    for *point, bound, est in points:
        if bound >= VACUOUS_BOUND:
            verdict = "vacuous"
        elif est.wilson_95_lower <= bound and abs(est.expectation_zscore) <= z_limit:
            verdict = "pass"
        else:
            verdict = "fail"
        rows.append(SweepRow(*point, bound, est.estimate, est.wilson_95_lower,
                             est.wilson_95_upper, est.expectation_zscore, verdict))
    return rows
