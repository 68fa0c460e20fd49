"""Closed-form concentration bounds and their Monte Carlo verification.

The central inequality: color SD.x uniformly at random on an (S, D)-free
action; then for each pattern phi on S,

    P[ | |D ∩ O_phi| / |D|  -  k^{-|S|} | >= eps ]  <=  2 exp(-eps^2 |D| / (2|S|^3)),

obtained from the bounded-differences bound with s = |SD.x| <= |S||D|
independent trials, per-trial influence b = |S|, and deviation t = eps|D|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .groups import FiniteAction, GroupError, GroupSet, set_product
from .rng import block_rows, color_matrix, derive_seed
from .shift import Pattern, all_patterns, as_fraction

WILSON_Z95 = 1.959963984540054
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


@dataclass(frozen=True)
class ConcentrationBoundInput:
    k: int
    S: GroupSet
    eps: Fraction
    D: GroupSet

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.k}")
        if as_fraction(self.eps) <= 0:
            raise ValueError("deviation tolerance must be positive")
        if len(self.S) == 0 or len(self.D) == 0:
            raise ValueError("S and D must be nonempty")


def deviation_exponent(eps: float, s_size: int, d_size: int) -> float:
    """eps^2 |D| / (2 |S|^3), the exponent of the frequency-deviation bound.
    Every bound, margin and witness limit in the package reads it from here,
    so their floats agree bit for bit."""
    return eps * eps * d_size / (2.0 * s_size ** 3)


def deviates(counts, d_size, k: int, s_size: int, eps):
    """Whether a pattern seen `counts` times over |D| = d_size misses
    k^{-|S|} by eps or more, tested exactly in integers as
    |counts k^{|S|} - |D|| den >= num |D| k^{|S|} for eps = num/den.
    Takes ints or integer arrays that broadcast against each other."""
    eps = as_fraction(eps)
    scale = k ** s_size
    return abs(counts * scale - d_size) * eps.denominator >= eps.numerator * d_size * scale


def concentration_bound(inp: ConcentrationBoundInput) -> float:
    """2 exp(-eps^2 |D| / (2 |S|^3)); equals scb_bound(|S||D|, |S|, eps|D|)."""
    eps = float(as_fraction(inp.eps))
    return 2.0 * math.exp(-deviation_exponent(eps, len(inp.S), len(inp.D)))


def wilson_interval(hits: int, trials: int, z: float = WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


@dataclass
class McEstimate:
    trials: int
    hits: int
    estimate: float
    wilson_95_upper: float
    wilson_95_lower: float
    mean_occurrences: float
    expected_occurrences: float
    expectation_zscore: float

    @property
    def expectation_within_3sigma(self) -> bool:
        return abs(self.expectation_zscore) <= 3.0


def _check_sd_free_at(action: FiniteAction, S: GroupSet, D: GroupSet, x: int) -> np.ndarray:
    """D.x, after checking that D moves x to distinct points and that S moves
    each point of D.x and x itself to distinct points."""
    dx = action.translates(D.elements, x)
    if len(set(dx.tolist())) != dx.size:
        raise GroupError("action is not D-free at the chosen point")
    orbit = np.append(dx, x)  # x may also lie in D.x; a second check of it is harmless
    # column j holds S.y for the orbit point y = orbit[j]
    images = np.sort(np.stack([action.image(s, orbit) for s in S.elements]), axis=0)
    if np.any(images[1:] == images[:-1]):
        raise GroupError("action is not S-free on the sampled orbit")
    return dx


def mc_deviation_prob(inp: ConcentrationBoundInput, action: FiniteAction, x: int,
                      phi: Pattern, trials: int, seed: int,
                      chunk: int | None = None) -> McEstimate:
    """Estimate the deviation probability bounded by concentration_bound.

    Each trial colors SD.x uniformly at random and counts the elements of D
    at which phi occurs in the coloring pulled back through the action.  A
    trial is a hit when the frequency misses k^{-|S|} by eps or more (exact
    rational comparison).  The occurrence-count mean is also compared with
    |D| / k^{|S|}.  Trials run `chunk` at a time, by default as many as
    make one RNG block of colors; every accumulator is an exact integer
    count, so the chunk size cannot change the result.  The columns of
    s*D.x are read as a slice when they are consecutive sites, as they are
    for intervals S and D on a cyclic action, and gathered otherwise.
    """
    S, D, k = inp.S, inp.D, inp.k
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if phi.domain != S:
        raise ValueError("pattern domain must be exactly S")
    dx = _check_sd_free_at(action, S, D, x)

    # the sites SD.x, numbered in order of first appearance along sorted SD
    sites = action.translates(set_product(S, D).elements, x).tolist()
    column = {y: i for i, y in enumerate(dict.fromkeys(sites))}
    # columns of s.(d.x) for each s (in the order of sorted D): a slice when
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
    bad_at = deviates(np.arange(d_sz + 1), d_sz, k, s_sz, inp.eps)
    run_seed = derive_seed(seed, 0xC0)
    chunk = chunk or block_rows(len(column))
    for start in range(0, trials, chunk):
        rows = min(chunk, trials - start)
        colors = color_matrix(run_seed, rows, len(column), k, row_offset=start)
        match = colors[:, cols[0]] == phi.colors[0]
        for sel, col in zip(cols[1:], phi.colors[1:]):
            match &= colors[:, sel] == col
        counts = np.count_nonzero(match, axis=1)
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
    return McEstimate(trials, hits, hits / trials, hi, lo, mean_occ, expected, z)


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


def wilson_zero_floor(trials: int, z: float = WILSON_Z95) -> float:
    """Smallest value the Wilson upper limit can take (at zero hits); bounds
    below this cannot be confirmed in the upper-limit sense at this sample
    size, only via the point estimate / lower limit."""
    return wilson_interval(0, trials, z)[1]


def familywise_z(m: int) -> float:
    """|z| limit for m simultaneous two-sided tests whose total false-alarm
    rate is SWEEP_ALPHA (Bonferroni); 3.0 for a single test."""
    if m < 1:
        raise ValueError(f"need at least one test, got {m}")
    return NormalDist().inv_cdf(1 - SWEEP_ALPHA / (2 * m))


def deviation_sweep(grid, action_factory, trials: int, seed: int,
                    bound_cutoff: float = 0.9) -> list[SweepRow]:
    """Run mc_deviation_prob over a parameter grid.

    `grid` yields (k, S, eps, D); points whose closed-form bound is above
    `bound_cutoff` are reported as vacuous rather than compared.  A point
    fails only when the Wilson lower limit exceeds the bound or the
    occurrence-count mean misses its target by more than
    familywise_z(m) sigma, m being the number of non-vacuous points, so the
    whole sweep fails by chance no more often than one 3-sigma test; a raw
    estimate above the bound is not by itself a failure.
    """
    points = []
    for i, (k, S, eps, D) in enumerate(grid):
        inp = ConcentrationBoundInput(k, S, as_fraction(eps), D)
        action = action_factory(k, S, eps, D)
        phi = all_patterns(S, k)[0]  # all-zero pattern: worst positive correlation
        est = mc_deviation_prob(inp, action, 0, phi, trials, derive_seed(seed, i))
        points.append((inp, concentration_bound(inp), est))
    tested = sum(bound < bound_cutoff for _, bound, _ in points)
    z_limit = familywise_z(max(tested, 1))
    rows = []
    for inp, bound, est in points:
        if bound >= bound_cutoff:
            verdict = "vacuous"
        elif est.wilson_95_lower <= bound and abs(est.expectation_zscore) <= z_limit:
            verdict = "pass"
        else:
            verdict = "fail"
        rows.append(SweepRow(inp.k, len(inp.S), float(inp.eps), len(inp.D), bound,
                             est.estimate, est.wilson_95_lower, est.wilson_95_upper,
                             est.expectation_zscore, verdict))
    return rows
