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
of the concatenated interval sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .rng import derive_seed, mix_counters
from .shift import as_fraction
from .windows import circular_window_reduce


class TowerError(ValueError):
    pass


@dataclass(frozen=True)
class BadIntervalPlan:
    """Interval layout for one escape stage.

    N is minimal with 2/(N+1) < eps and (1-eps/2) N/(N+1) > 1-eps;
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
    N = 1
    while not (Fraction(2, N + 1) < eps_fr
               and (1 - eps_fr / 2) * Fraction(N, N + 1) > 1 - eps_fr):
        N += 1
    hs = [int(h(n)) if callable(h) else int(h[n]) for n in range(N)]
    if any(v < 1 for v in hs):
        raise TowerError("requested interval lengths must be >= 1")
    return BadIntervalPlan(eps_fr, N, max(hs))


@dataclass
class TowerSystem:
    """An explicit tower on Z/M with base offset o."""

    modulus: int
    height: int
    offset: int
    columns: int           # |R|
    residual: int          # M mod H points outside all levels

    @classmethod
    def build(cls, modulus: int, height: int, offset: int = 0) -> "TowerSystem":
        if height < 1 or modulus < height:
            raise TowerError(f"need M >= H >= 1, got M={modulus}, H={height}")
        cols, res = divmod(modulus, height)
        return cls(modulus, height, offset % modulus, cols, res)

    def level_array(self) -> np.ndarray:
        """level[p] in 0..H-1, or -1 for residual points outside the tower."""
        p = np.arange(self.modulus, dtype=np.int64)
        rel = (p - self.offset) % self.modulus
        lev = rel % self.height
        lev[rel >= self.columns * self.height] = -1
        return lev

    def band_mask(self, band: range) -> np.ndarray:
        """Points whose level lies in `band`: a length-H pattern tiled over
        the columns from the base offset on, wrapping past M; the residual
        stays clear."""
        H, o = self.height, self.offset
        levels = np.arange(H)
        pattern = (levels >= band.start) & (levels < band.stop)
        mask = np.zeros(self.modulus, dtype=bool)
        head = min(self.columns * H, self.modulus - o)  # tower points in [o, M)
        wrap = self.columns * H - head                   # tower points in [0, o)
        rows, part = divmod(head, H)
        mask[o:o + rows * H].reshape(rows, H)[:] = pattern
        mask[o + rows * H:o + head] = pattern[:part]
        # the wrapped slice finishes the row cut at M, then holds whole rows
        rows, part = divmod(wrap, H)
        mask[:part] = pattern[H - part:]
        mask[part:wrap].reshape(rows, H)[:] = pattern
        return mask

    def check_disjoint_levels(self) -> bool:
        """The levels partition the tower: each of 0..H-1 holds exactly
        `columns` points and exactly `residual` points lie outside; exact
        enumeration."""
        lev = self.level_array()
        counts = np.bincount(lev[lev >= 0], minlength=self.height)
        return bool((counts == self.columns).all()
                    and int((lev == -1).sum()) == self.residual)


@dataclass
class TowerBuild:
    plan: BadIntervalPlan
    tower: TowerSystem
    a_mask: np.ndarray
    b_mask: np.ndarray
    mu_a: Fraction
    mu_b: Fraction


def build_tower(plan: BadIntervalPlan, modulus: int, offset: int = 0) -> TowerBuild:
    """Tower of height (N+1) ell with the capture slab A and the bulk B.

    Requires M >= H * ceil(2/eps) so the residual has measure <= eps/2;
    the returned measures are exact rationals and satisfy mu(A) < eps and
    mu(B) > 1 - eps by construction.
    """
    H = plan.height
    need = H * math.ceil(2 / float(plan.eps))
    if modulus < need:
        raise TowerError(f"modulus too small: need >= {need}, got {modulus}")
    tower = TowerSystem.build(modulus, H, offset)
    a_mask = tower.band_mask(plan.a_band)
    b_mask = tower.band_mask(plan.b_band)
    mu_a = Fraction(int(np.count_nonzero(a_mask)), modulus)
    mu_b = Fraction(int(np.count_nonzero(b_mask)), modulus)
    if not mu_a < plan.eps:
        raise TowerError("capture slab unexpectedly large")
    if not mu_b > 1 - plan.eps:
        raise TowerError("bulk unexpectedly small")
    return TowerBuild(plan, tower, a_mask, b_mask, mu_a, mu_b)


def tower_level_rows(build: TowerBuild):
    """Plot-ready level map: (level, in_capture_slab, in_bulk) per tower level."""
    a, b = build.plan.a_band, build.plan.b_band
    for level in range(build.tower.height):
        yield (level, int(a.start <= level < a.stop), int(b.start <= level < b.stop))


@dataclass
class CaptureReport:
    fraction: Fraction
    witnesses: np.ndarray        # witness interval index per point, -1 if uncaptured
    all_b_captured: bool


def verify_capture(build: TowerBuild) -> CaptureReport:
    """For each x, the least n with the n-th interval translate of x wholly
    inside A; exact enumeration over the cyclic space."""
    plan, M = build.plan, build.tower.modulus
    witnesses = np.full(M, -1, dtype=np.int64)
    # interval n is interval 0 shifted by n*ell, so one windowed-all pass
    # plus rolls covers all of them
    base = circular_window_reduce(build.a_mask, plan.ell, 1, M, np.logical_and)
    for n in range(plan.N - 1, -1, -1):
        witnesses[np.roll(base, -n * plan.ell)] = n
    frac = Fraction(int(np.count_nonzero(witnesses >= 0)), M)
    all_b = bool((witnesses[build.b_mask] >= 0).all())
    return CaptureReport(frac, witnesses, all_b)


# -- iterated escape stages -----------------------------------------------------


@dataclass
class StageRecord:
    i: int
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
                            k_probe: Optional[Sequence[int]] = None,
                            m_cap: int = 50_000_000) -> BadSequenceReport:
    """Concatenate escape stages with eps_i = 2^{-i-1} on one shared cyclic
    space (a common multiple of all tower heights, so every tower is exact),
    with independently seeded base offsets, and measure per-band capture
    against the union tails A_{>=q}.
    """
    if i_max < 1:
        raise TowerError("need at least one stage")
    if k_probe is not None and any(q < 0 for q in k_probe):
        raise ValueError(f"k_probe entries must be >= 0, got {list(k_probe)}")
    plans: list[BadIntervalPlan] = []
    n_starts: list[int] = []
    n_start = 0
    for i in range(i_max):
        eps_i = Fraction(1, 2 ** (i + 1))
        base = n_start

        def h_local(n, _base=base):
            return h(_base + n) if callable(h) else h[_base + n]

        plan = plan_intervals(h_local, eps_i)
        plans.append(plan)
        n_starts.append(n_start)
        n_start += plan.N

    heights = [p.height for p in plans]
    modulus = math.lcm(*heights)
    for p in plans:
        need = p.height * math.ceil(2 / float(p.eps))
        while modulus < need:
            modulus *= 2
    if modulus > m_cap:
        raise TowerError(
            f"infeasible schedule: shared modulus {modulus} exceeds the cap {m_cap}")

    stages = []
    a_masks = []
    for i, plan in enumerate(plans):
        offset = int(mix_counters(derive_seed(seed, 0x70, i), i, 0)[()] % modulus)
        build = build_tower(plan, modulus, offset)
        a_masks.append(build.a_mask)
        stages.append(StageRecord(i, plan.eps, n_starts[i], plan, offset, build.mu_a))

    qs = list(k_probe) if k_probe is not None else list(range(i_max + 1))
    mu_tail = {}
    band_rows = []
    all_bands = {}
    for q in qs:
        union = np.zeros(modulus, dtype=bool)
        for i in range(q, i_max):
            union |= a_masks[i]
        mu_tail[q] = Fraction(int(np.count_nonzero(union)), modulus)
        everywhere = np.ones(modulus, dtype=bool)
        for i in range(q, i_max):
            plan = plans[i]
            # base[x]: interval 0 translated by x lies inside the union;
            # interval n is interval 0 shifted by n*ell
            base = circular_window_reduce(union, plan.ell, 1, modulus, np.logical_and)
            captured = circular_window_reduce(base, plan.N, plan.ell, modulus,
                                              np.logical_or)
            frac = Fraction(int(np.count_nonzero(captured)), modulus)
            band_rows.append(BandCapture(q, i, frac, frac))
            everywhere &= captured
        if q < i_max:
            all_bands[q] = Fraction(int(np.count_nonzero(everywhere)), modulus)
    return BadSequenceReport(modulus, stages, mu_tail, band_rows, all_bands)
