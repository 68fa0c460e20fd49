"""Tower constructions on cyclic spaces that defeat averaging sequences.

A tower of height H on Z/M is the family of translates R, R+1, ...,
R+H-1 of the arithmetic progression R = {o, o+H, o+2H, ...}; choosing M a
multiple of H makes the levels partition the space exactly.  Marking a
two-band slab A near the top of the tower and the complementary slab B
below it produces, for every x in B, an interval D_n with D_n + x wholly
inside A -- so the empirical average of 1_A over D_n at x is exactly 1
even though A has small measure, and the average of the complement
indicator is exactly 0.

Iterating the construction with shrinking budgets eps_i = 2^{-i-1} yields
union sets A_{>=q} of measure at most 2^{-q} for which the windowed
averages keep returning to 1 (and, on the complement, to 0) in every band
of the concatenated interval sequence.  Every set on Z/M is a packed mask
of M/64 words (see `windows`), so unions, intersections and window
reductions run on words and every measure is a popcount.  The stages are
built one at a time, last first, into one running union, and the bands of
a union that share an interval length share one doubling chain, so the
masks alive at once do not grow with the number of stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .rng import derive_seed, mix_counters
from .shift import as_fraction
from .windows import _bits_from, _tile_bits, circular_window_reduce


class TowerError(ValueError):
    pass


def _measure(mask: np.ndarray, modulus: int) -> Fraction:
    """Exact measure of a packed mask on Z/M: its popcount over M."""
    return Fraction(int(np.bitwise_count(mask).sum()), modulus)


@dataclass(frozen=True)
class BadIntervalPlan:
    """Interval layout for one escape stage.

    N is minimal with 2/(N+1) < eps and (1-eps/2) N/(N+1) > 1-eps, which
    is N = floor(2/eps): the first inequality asks N + 1 > 2/eps, and then
    N/(N+1) > 1 - eps/2 with (1 - eps/2)^2 > 1 - eps gives the second;
    ell = max of the requested interval lengths h(0..N-1);
    the n-th interval is {n ell, ..., n ell + ell - 1}.
    """

    eps: Fraction
    N: int
    ell: int

    def __post_init__(self):
        if not (Fraction(2, self.N + 1) < self.eps):
            raise TowerError("first stage inequality fails")
        if not ((1 - self.eps / 2) * Fraction(self.N, self.N + 1) > 1 - self.eps):
            raise TowerError("second stage inequality fails")

    @property
    def height(self) -> int:
        return (self.N + 1) * self.ell

    @property
    def min_modulus(self) -> int:
        """H * ceil(2/eps), in exact arithmetic.  On a modulus at least this
        large the residual, fewer than H points, has measure below eps/2."""
        return self.height * math.ceil(2 / self.eps)

    def interval(self, n: int) -> range:
        if not (0 <= n < self.N):
            raise IndexError(f"stage has intervals 0..{self.N - 1}")
        return range(n * self.ell, (n + 1) * self.ell)

    @property
    def a_band(self) -> range:
        """Tower levels forming the small capture slab (top two interval widths)."""
        return range((self.N - 1) * self.ell, (self.N + 1) * self.ell)

    @property
    def b_band(self) -> range:
        """Tower levels below the top slab; every point here is captured."""
        return range(0, self.N * self.ell)


def plan_intervals(h: Union[Callable[[int], int], Sequence[int]], eps) -> BadIntervalPlan:
    """Minimal-N plan for tolerance eps with interval lengths >= h(n)."""
    eps_fr = as_fraction(eps)
    if not (0 < eps_fr < 1):
        raise TowerError(f"eps must lie in (0, 1), got {eps_fr}")
    N = 2 * eps_fr.denominator // eps_fr.numerator
    hs = [int(h(n)) if callable(h) else int(h[n]) for n in range(N)]
    if any(v < 1 for v in hs):
        raise TowerError("requested interval lengths must be >= 1")
    return BadIntervalPlan(eps_fr, N, max(hs))


@dataclass
class TowerSystem:
    """An explicit tower on Z/M with base offset o; the M mod H points
    past its columns lie outside all levels."""

    modulus: int
    height: int
    offset: int
    columns: int           # |R|

    @classmethod
    def build(cls, modulus: int, height: int, offset: int = 0) -> "TowerSystem":
        if height < 1 or modulus < height:
            raise TowerError(f"need M >= H >= 1, got M={modulus}, H={height}")
        return cls(modulus, height, offset % modulus, modulus // height)

    def level_array(self) -> np.ndarray:
        """level[p] in 0..H-1, or -1 for residual points outside the tower."""
        p = np.arange(self.modulus, dtype=np.int64)
        rel = (p - self.offset) % self.modulus
        lev = rel % self.height
        lev[rel >= self.columns * self.height] = -1
        return lev

    def band_mask(self, band: range) -> np.ndarray:
        """Packed mask of the points whose level lies in `band`: one period
        of H bits tiled over the columns, the residual left clear, then
        turned around the circle so that bit p reads tower point p - o."""
        H, M, o = self.height, self.modulus, self.offset
        levels = np.arange(-(-H // 64) * 64)
        period = np.packbits((levels >= band.start) & (levels < band.stop),
                             bitorder="little").view("<u8")
        tower = _tile_bits(period, H, self.columns * H)
        return _bits_from(_tile_bits(tower, M, 2 * M - o), M - o, -(-M // 64))

    def band_measure(self, band: range) -> Fraction:
        """Exact measure of the points whose level lies in `band`, a range
        within 0..H: `columns` points per level."""
        return Fraction(self.columns * len(band), self.modulus)


@dataclass
class TowerBuild:
    plan: BadIntervalPlan
    tower: TowerSystem
    a_mask: np.ndarray         # packed, like every mask below
    mu_a: Fraction
    mu_b: Fraction


def build_tower(plan: BadIntervalPlan, modulus: int, offset: int = 0) -> TowerBuild:
    """Tower of height (N+1) ell with the capture slab A and the bulk B.

    Requires M >= H * ceil(2/eps) so the residual has measure <= eps/2;
    the returned measures are exact rationals and satisfy mu(A) < eps and
    mu(B) > 1 - eps by construction.
    """
    if modulus < plan.min_modulus:
        raise TowerError(f"modulus too small: need >= {plan.min_modulus}, got {modulus}")
    tower = TowerSystem.build(modulus, plan.height, offset)
    mu_a = tower.band_measure(plan.a_band)
    mu_b = tower.band_measure(plan.b_band)
    if not mu_a < plan.eps:
        raise TowerError("capture slab unexpectedly large")
    if not mu_b > 1 - plan.eps:
        raise TowerError("bulk unexpectedly small")
    return TowerBuild(plan, tower, tower.band_mask(plan.a_band), mu_a, mu_b)


def tower_level_rows(build: TowerBuild):
    """Plot-ready level map: (level, in_capture_slab, in_bulk) per tower level."""
    a, b = build.plan.a_band, build.plan.b_band
    for level in range(build.tower.height):
        yield (level, int(a.start <= level < a.stop), int(b.start <= level < b.stop))


def _captured(a_mask: np.ndarray, plans: Sequence[BadIntervalPlan], modulus: int):
    """Yield (j, mask) for each plans[j]: the packed mask of the x with some
    interval translate of x wholly inside the set `a_mask`.  Interval n is
    interval 0 shifted by n*ell, so this is an and-window over ell followed
    by an or-window over the N starts; the plans that share ell share the
    and-window and one or-chain for all their N.  Each mask is a fresh
    array, produced only once the caller has taken the one before."""
    by_ell: dict = {}
    for j, plan in enumerate(plans):
        by_ell.setdefault(plan.ell, {}).setdefault(plan.N, []).append(j)
    for ell, by_n in by_ell.items():
        [(_, base)] = circular_window_reduce(a_mask, [ell], 1, modulus, np.bitwise_and)
        for count, captured in circular_window_reduce(base, by_n, ell, modulus,
                                                      np.bitwise_or):
            for j in by_n[count]:
                yield j, captured


@dataclass
class CaptureReport:
    fraction: Fraction           # exact measure of the captured points
    all_b_captured: bool


def verify_capture(build: TowerBuild) -> CaptureReport:
    """Which x have some interval translate wholly inside A, exactly over
    the cyclic space: their measure, and whether every point of B is one."""
    M = build.tower.modulus
    [(_, captured)] = _captured(build.a_mask, [build.plan], M)
    b_mask = build.tower.band_mask(build.plan.b_band)
    return CaptureReport(_measure(captured, M), not (b_mask & ~captured).any())


# -- iterated escape stages -----------------------------------------------------

MODULUS_CAP = 50_000_000    # largest shared modulus bad_sequence_experiment builds


@dataclass
class StageRecord:
    eps: Fraction
    n_start: int               # global index of the stage's first interval
    plan: BadIntervalPlan
    offset: int
    mu_a: Fraction


@dataclass
class BandCapture:
    q: int                     # union tail index: A_{>=q}
    band: int                  # stage i whose intervals are scanned
    frac_full: Fraction        # points with some interval average exactly 1
    frac_null: Fraction        # same points: complement average exactly 0


@dataclass
class BadSequenceReport:
    modulus: int
    stages: list
    mu_tail: dict              # q -> Fraction, exact measure of A_{>=q}
    band_rows: list            # BandCapture rows for q <= band
    all_bands_frac: dict       # q -> Fraction of points captured in EVERY band >= q
    interpretation_note: str = (
        "the vanishing-average side is realized on the complement indicator: "
        "an interval translate inside the union set has average exactly 1 for "
        "the set and exactly 0 for its complement")

    def mu_tail_ok(self) -> bool:
        return all(mu <= Fraction(1, 2 ** q) for q, mu in self.mu_tail.items())


def bad_sequence_experiment(h: Union[Callable[[int], int], Sequence[int]],
                            i_max: int, seed: int = 0,
                            k_probe: Optional[Sequence[int]] = None) -> BadSequenceReport:
    """Concatenate escape stages with eps_i = 2^{-i-1} on one shared cyclic
    space (a common multiple of all tower heights, so every tower is exact),
    with independently seeded base offsets, and measure per-band capture
    against the union tails A_{>=q}.  A schedule whose shared modulus exceeds
    MODULUS_CAP = 50,000,000 points raises TowerError.
    """
    if i_max < 1:
        raise TowerError("need at least one stage")
    if k_probe is not None and any(q < 0 for q in k_probe):
        raise ValueError(f"k_probe entries must be >= 0, got {list(k_probe)}")
    plans: list[BadIntervalPlan] = []
    n_starts: list[int] = []
    h_at = h if callable(h) else h.__getitem__
    for i in range(i_max):
        n_start = sum(p.N for p in plans)  # global index of the stage's first interval
        plans.append(plan_intervals(lambda n: h_at(n_start + n), Fraction(1, 2 ** (i + 1))))
        n_starts.append(n_start)

    heights = [p.height for p in plans]
    modulus = math.lcm(*heights)
    for p in plans:
        while modulus < p.min_modulus:
            modulus *= 2
    if modulus > MODULUS_CAP:
        raise TowerError(
            f"infeasible schedule: shared modulus {modulus} exceeds the cap {MODULUS_CAP}")

    # stages last first into one running union A_{>=q}, each stage's tower
    # dropped once its slab is in; the unions come back in k_probe order
    qs = list(k_probe) if k_probe is not None else list(range(i_max + 1))
    union = np.zeros(-(-modulus // 64), dtype=np.uint64)
    stages = []
    mu, rows, everywhere_frac = {}, {}, {}
    for q in range(i_max - 1, -1, -1):
        offset = int(mix_counters(derive_seed(seed, 0x70, q), q, 0)[()] % modulus)
        build = build_tower(plans[q], modulus, offset)
        union |= build.a_mask
        stages.append(StageRecord(plans[q].eps, n_starts[q], plans[q], offset, build.mu_a))
        del build
        if q not in qs:
            continue
        fracs = {}
        everywhere = ~np.zeros_like(union)  # the first band clears the bits past M
        for j, captured in _captured(union, plans[q:], modulus):
            fracs[q + j] = _measure(captured, modulus)
            everywhere &= captured
        mu[q] = _measure(union, modulus)
        rows[q] = [BandCapture(q, i, fracs[i], fracs[i]) for i in range(q, i_max)]
        everywhere_frac[q] = _measure(everywhere, modulus)
    return BadSequenceReport(modulus, stages[::-1],
                             {q: mu.get(q, Fraction(0)) for q in qs},
                             [row for q in qs for row in rows.get(q, ())],
                             {q: everywhere_frac[q] for q in qs if q < i_max})
