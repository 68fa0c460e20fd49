"""Resampling dynamics with per-point randomness tapes.

Every point owns a virtual infinite tape of i.i.d. uniform colors; the
current coloring reads symbol t(x) of each tape.  The bad events come as a
plain sequence, member n at position n.  While some anchored bad event is
violated, a maximal disjoint batch of violated events is selected
(greedily, in (position, anchor) order) and every point in their domains
advances its tape by one.  Tapes are recomputed from the counter-based
derivation, never stored, so memory scales with the point count and not
with resample depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .concentration import deviates
from .groups import CyclicTranslation, GroupError
from .lll import FrequencyDeviationEvent
from .rng import uniform_colors
from .shift import all_patterns
from .windows import SCREEN_BLOCK, circular_window_sums, interval_window_outside


@dataclass(frozen=True)
class TapeSpace:
    """Symbol t of the tape of each point is a pure function of (seed,
    point, t).  `symbols` returns uniform_colors' dtype: uint8 for
    k <= rng.BYTE_K, int64 above."""

    seed: int
    k: int

    def symbols(self, points: np.ndarray, ts: np.ndarray) -> np.ndarray:
        return uniform_colors(self.seed, points, ts, self.k)


@dataclass
class MTResult:
    coloring: np.ndarray          # g(p) = symbol t(p) of p's tape, in uniform_colors' dtype
    t: np.ndarray                 # per-point resample counts
    index_counts: dict            # (n, anchor) -> how many steps selected it
    steps: int
    converged: bool
    defect_points: tuple          # violated anchors remaining (empty iff converged)
    tape: TapeSpace
    first_row: np.ndarray         # tape row 0, the starting coloring (not aliased)
    points: np.ndarray            # 0..n-1: the counters of row 0 and of tape_consistency
    action: CyclicTranslation     # the action the run resampled on
    events: tuple                 # the bad events it ran, member n at position n

    def index_total(self, n: int) -> int:
        return sum(c for (m, _x), c in self.index_counts.items() if m == n)


# -- violated-anchor detection ------------------------------------------------


def _pullback_colors(action: CyclicTranslation, elems, g: np.ndarray) -> list[np.ndarray]:
    """g pulled back along each element: out[i][x] = g[e_i . x].  The identity
    0 pulls back to g itself, which callers only read."""
    return [g if e == 0 else g[action.image(e)] for e in elems]


PATTERN_CAP = 4096  # most patterns on S that the scans below enumerate


def scans_patterns(k: int, s_size: int) -> bool:
    """Whether the k^|S| patterns on S are at most PATTERN_CAP, decided
    without forming k^|S| for a large |S|: for k >= 2, k^|S| >= 2^|S|."""
    return k == 1 or s_size < PATTERN_CAP.bit_length() and k ** s_size <= PATTERN_CAP


def _pattern_masks(action: CyclicTranslation, ev: FrequencyDeviationEvent, g: np.ndarray):
    """Yield (pattern colors, mask) with mask[x] whether the pattern occurs in
    the coloring pulled back at x."""
    if not scans_patterns(ev.k, len(ev.S)):
        raise ValueError(f"pattern space too large to scan; keep k^|S| <= {PATTERN_CAP}")
    pulled = _pullback_colors(action, ev.S.elements, g)
    for pat in all_patterns(ev.S, ev.k):
        w = pulled[0] == pat.colors[0]
        for arr, col in zip(pulled[1:], pat.colors[1:]):
            w &= arr == col
        yield pat, w


def frequency_counts(action: CyclicTranslation, ev: FrequencyDeviationEvent,
                     g: np.ndarray):
    """Yield (pattern colors, counts) with counts[x] = number of d in D at
    which the pattern occurs in the coloring pulled back at anchor x."""
    # converted once here, not once per pattern by circular_window_sums
    d_elems = np.asarray(ev.D.elements, dtype=np.int64)
    for pat, w in _pattern_masks(action, ev, g):
        yield pat, circular_window_sums(w.view(np.int8), d_elems, action.modulus)


def violated_anchors(action: CyclicTranslation, ev: FrequencyDeviationEvent,
                     g: np.ndarray) -> np.ndarray:
    """Anchors x whose pulled-back coloring lies in the event."""
    # bad_at[c]: whether a pattern seen c times over D deviates
    d_size = len(ev.D)
    bad_at = deviates(np.arange(d_size + 1), d_size, ev.k, len(ev.S), ev.eps)
    band = np.flatnonzero(~bad_at)  # the counts that do not deviate
    bad = np.zeros(action.modulus, dtype=bool)
    iv = ev.D.interval
    # a band narrower than 2*64 - 1 counts clears no block of 64 anchors
    if iv is not None and band.size >= 2 * SCREEN_BLOCK - 1:
        lo, hi = int(band[0]), int(band[-1])
        assert band.size == hi - lo + 1, "non-deviating counts must be one interval"
        for _pat, w in _pattern_masks(action, ev, g):
            bad[interval_window_outside(w, *iv, lo, hi)] = True
    else:
        for _pat, counts in frequency_counts(action, ev, g):
            bad |= bad_at[counts]
    return np.flatnonzero(bad)


# -- the resampling loop -------------------------------------------------------


def run_mt(action: CyclicTranslation, events: Sequence[FrequencyDeviationEvent],
           tape: TapeSpace, max_steps: Optional[int] = None,
           transcript: Optional[list] = None) -> MTResult:
    """Iterate resampling until no anchored event is violated.

    `events` is a plain sequence: member n is `events[n]`, and selection and
    `index_counts` key it by n.  Precondition (checked): the action is
    F_n-free for every member.  Exhausting max_steps is a reported outcome
    (converged=False with the residual violated anchors), not an exception.
    """
    events = tuple(events)
    for n, ev in enumerate(events):
        if not action.free_for(ev.domain):
            raise GroupError(f"action is not free for the domain of event {n}")
    if max_steps is None:
        max_steps = 1000 * max(1, len(events)) * action.modulus

    n_pts = action.modulus
    t = np.zeros(n_pts, dtype=np.int64)
    points = np.arange(n_pts)
    g = tape.symbols(points, 0)
    first_row = g.copy()  # g is resampled in place below
    domains = [ev.domain.elements for ev in events]
    index_counts: dict = {}
    steps = 0
    converged = False
    residual: tuple = ()

    while True:
        candidates = []
        for n, ev in enumerate(events):
            for x in violated_anchors(action, ev, g):
                candidates.append((n, int(x)))
        if not candidates:
            converged = True
            break
        if steps >= max_steps:
            residual = tuple(sorted({x for _n, x in candidates}))
            break

        claimed = np.zeros(n_pts, dtype=bool)
        selected = []
        for n, x in candidates:  # (n, anchor) order: members ascending, anchors ascending
            dom = action.translates(domains[n], x)
            if claimed[dom].any():
                continue
            claimed[dom] = True
            selected.append((n, x))
            index_counts[(n, x)] = index_counts.get((n, x), 0) + 1

        touched = np.flatnonzero(claimed)
        t[touched] += 1
        g[touched] = tape.symbols(touched, t[touched])
        if transcript is not None:
            transcript.append({"step": steps, "selected": [[n, x] for n, x in selected],
                               "tape_advanced": int(touched.size)})
        steps += 1

    return MTResult(g, t, index_counts, steps, converged, residual, tape, first_row, points,
                    action, events)


# -- post-run measurements -----------------------------------------------------


def tape_consistency(result: MTResult) -> bool:
    """Final coloring reads symbol t(p) of every tape, exactly."""
    expect = result.tape.symbols(result.points, result.t)
    return bool(np.array_equal(expect, result.coloring))


def stabilization_ledger(result: MTResult) -> bool:
    """Exact integer identity: each point's resample count equals the sum of
    selection counts of the events whose domains cover it."""
    t_check = np.zeros(result.t.size, dtype=np.int64)
    domains = [ev.domain.elements for ev in result.events]
    for (n, x), c in result.index_counts.items():
        t_check[result.action.translates(domains[n], x)] += c
    return bool(np.array_equal(t_check, result.t))


@dataclass
class ResampleFractions:
    frac_resampled: Fraction      # points with t >= 1
    frac_changed: Fraction        # points whose final color differs from tape row 0


def resample_fraction(result: MTResult) -> ResampleFractions:
    n_pts = result.t.size
    resampled = int(np.count_nonzero(result.t))  # t is never negative
    changed = int(np.count_nonzero(result.coloring != result.first_row))
    return ResampleFractions(Fraction(resampled, n_pts), Fraction(changed, n_pts))
