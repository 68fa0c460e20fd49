"""Resampling dynamics with per-point randomness tapes.

Every point owns a virtual infinite tape of i.i.d. uniform colors; the
current coloring reads symbol t(x) of each tape.  While some anchored bad
event is violated, a maximal disjoint batch of violated events is selected
(greedily, in (family index, anchor) order) and every point in their
domains advances its tape by one.  Tapes are recomputed from the
counter-based derivation, never stored, so memory scales with the point
count and not with resample depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .concentration import deviates
from .groups import CyclicTranslation, FiniteAction, GroupError, is_sd_free
from .lll import BadEvent, ExplicitEvent, FrequencyDeviationEvent
from .rng import uniform_colors
from .shift import all_patterns
from .windows import SCREEN_BLOCK, circular_window_sums, interval_window_outside


@dataclass(frozen=True)
class TapeSpace:
    """symbol(point, t) is a pure function of (seed, point, t)."""

    seed: int
    k: int

    def symbol(self, point: int, t: int) -> int:
        return int(uniform_colors(self.seed, point, t, self.k)[()])

    def symbols(self, points: np.ndarray, ts: np.ndarray) -> np.ndarray:
        return uniform_colors(self.seed, points, ts, self.k)

    def row(self, n_points: int, t: int = 0) -> np.ndarray:
        return self.symbols(np.arange(n_points), t)


@dataclass(frozen=True)
class EventFamily:
    """Indexed family of bad events; indices must be distinct."""

    members: tuple  # ((n, BadEvent), ...)

    def __post_init__(self):
        ns = [n for n, _ in self.members]
        if len(set(ns)) != len(ns):
            raise ValueError("family indices must be distinct")
        for _, ev in self.members:
            if len(ev.domain) == 0:
                raise ValueError("event domains must be nonempty")
        # canonical order: selection below walks members index-major
        object.__setattr__(self, "members", tuple(sorted(self.members,
                                                         key=lambda m: m[0])))

    @classmethod
    def of(cls, *events: BadEvent) -> "EventFamily":
        return cls(tuple(enumerate(events)))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


@dataclass
class MTResult:
    coloring: np.ndarray          # g(p) = symbol(p, t(p))
    t: np.ndarray                 # per-point resample counts
    index_counts: dict            # (n, anchor) -> how many steps selected it
    steps: int
    converged: bool
    defect_points: tuple          # violated anchors remaining (empty iff converged)
    tape: TapeSpace
    first_row: np.ndarray         # tape row 0, the starting coloring (not aliased)

    def index_total(self, n: int) -> int:
        return sum(c for (m, _x), c in self.index_counts.items() if m == n)


# -- violated-anchor detection ------------------------------------------------


def _pullback_colors(action: FiniteAction, elems, g: np.ndarray) -> list[np.ndarray]:
    """g pulled back along each element: out[i][x] = g[e_i . x].  The identity
    pulls back to g itself, which callers only read."""
    identity = action.ctx.identity()
    return [g if e == identity else g[action.image(e)] for e in elems]


def _pattern_masks(action: FiniteAction, ev: FrequencyDeviationEvent, g: np.ndarray):
    """Yield (pattern colors, mask) with mask[x] whether the pattern occurs in
    the coloring pulled back at x."""
    if ev.k ** len(ev.S) > 4096:
        raise ValueError("pattern space too large to scan; keep k^|S| small")
    pulled = _pullback_colors(action, ev.S.elements, g)
    for pat in all_patterns(ev.S, ev.k):
        w = pulled[0] == pat.colors[0]
        for arr, col in zip(pulled[1:], pat.colors[1:]):
            w &= arr == col
        yield pat, w


def frequency_counts(action: FiniteAction, ev: FrequencyDeviationEvent,
                     g: np.ndarray):
    """Yield (pattern colors, counts) with counts[x] = number of d in D at
    which the pattern occurs in the coloring pulled back at anchor x."""
    fast_cyclic = isinstance(action, CyclicTranslation)
    # converted once here, not once per pattern by circular_window_sums
    d_elems = np.asarray(ev.D.elements, dtype=np.int64) if fast_cyclic else ev.D.elements
    if not fast_cyclic:
        d_maps = [action.image(d) for d in d_elems]
    for pat, w in _pattern_masks(action, ev, g):
        if fast_cyclic:
            counts = circular_window_sums(w.view(np.int8), d_elems, action.modulus)
        else:
            counts = np.zeros(action.n_points, dtype=np.int64)
            for dm in d_maps:
                counts += w[dm]
        yield pat, counts


def violated_anchors(action: FiniteAction, ev: BadEvent, g: np.ndarray) -> np.ndarray:
    """Anchors x whose pulled-back coloring lies in the event."""
    if isinstance(ev, FrequencyDeviationEvent):
        # bad_at[c]: whether a pattern seen c times over D deviates
        d_size = len(ev.D)
        bad_at = deviates(np.arange(d_size + 1), d_size, ev.k, len(ev.S), ev.eps)
        band = np.flatnonzero(~bad_at)  # the counts that do not deviate
        bad = np.zeros(action.n_points, dtype=bool)
        iv = ev.D.interval
        # a band narrower than 2*64 - 1 counts clears no block of 64 anchors
        if (isinstance(action, CyclicTranslation) and iv is not None
                and band.size >= 2 * SCREEN_BLOCK - 1):
            lo, hi = int(band[0]), int(band[-1])
            assert band.size == hi - lo + 1, "non-deviating counts must be one interval"
            for _pat, w in _pattern_masks(action, ev, g):
                bad[interval_window_outside(w, *iv, lo, hi)] = True
        else:
            for _pat, counts in frequency_counts(action, ev, g):
                bad |= bad_at[counts]
        return np.flatnonzero(bad)
    if isinstance(ev, ExplicitEvent):
        pulled = _pullback_colors(action, ev.domain.elements, g)
        bad = np.zeros(action.n_points, dtype=bool)
        for pat in ev.patterns:
            hit = np.ones(action.n_points, dtype=bool)
            for arr, col in zip(pulled, pat.colors):
                hit &= arr == col
            bad |= hit
        return np.flatnonzero(bad)
    raise TypeError(f"unsupported event type {type(ev).__name__}")


# -- the resampling loop -------------------------------------------------------


def run_mt(action: FiniteAction, family: EventFamily, tape: TapeSpace,
           max_steps: Optional[int] = None, transcript: Optional[list] = None) -> MTResult:
    """Iterate resampling until no anchored event is violated.

    Precondition (checked): the action is F_n-free for every member.
    Exhausting max_steps is a reported outcome (converged=False with the
    residual violated anchors), not an exception.
    """
    for n, ev in family:
        if not is_sd_free(action, [ev.domain]):
            raise GroupError(f"action is not free for the domain of event {n}")
    if max_steps is None:
        max_steps = 1000 * max(1, len(family)) * action.n_points

    n_pts = action.n_points
    t = np.zeros(n_pts, dtype=np.int64)
    g = tape.row(n_pts, 0)
    first_row = g.copy()  # g is resampled in place below
    domains = {n: ev.domain.elements for n, ev in family}
    index_counts: dict = {}
    steps = 0
    converged = False
    residual: tuple = ()

    while True:
        candidates = []
        for n, ev in family:
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
        for n, x in candidates:  # (n, anchor) order: families ascending, anchors ascending
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

    return MTResult(g, t, index_counts, steps, converged, residual, tape, first_row)


# -- post-run measurements -----------------------------------------------------


def defect(coloring: np.ndarray, ev: BadEvent, action: FiniteAction,
           translated: bool = False) -> tuple:
    """Anchors whose pulled-back coloring lies in the event; with
    translated=True, the union of their event-domain translates instead."""
    anchors = violated_anchors(action, ev, coloring)
    if not translated:
        return tuple(int(a) for a in anchors)
    pts: set[int] = set()
    for x in anchors:
        pts.update(action.translates(ev.domain.elements, int(x)).tolist())
    return tuple(sorted(pts))


def tape_consistency(result: MTResult) -> bool:
    """Final coloring reads symbol t(p) of every tape, exactly."""
    expect = result.tape.symbols(np.arange(result.t.size), result.t)
    return bool(np.array_equal(expect, result.coloring))


def stabilization_ledger(result: MTResult, action: FiniteAction,
                         family: EventFamily) -> bool:
    """Exact integer identity: each point's resample count equals the sum of
    selection counts of the events whose domains cover it."""
    t_check = np.zeros(result.t.size, dtype=np.int64)
    domains = {n: ev.domain.elements for n, ev in family}
    for (n, x), c in result.index_counts.items():
        t_check[action.translates(domains[n], x)] += c
    return bool(np.array_equal(t_check, result.t))


@dataclass
class IndexReportRow:
    n: int
    mean_index: float
    bound: float

    @property
    def within(self) -> bool:
        return self.mean_index <= self.bound


def index_report(result: MTResult, omegas: dict) -> list[IndexReportRow]:
    """Mean selection count per anchor for each family index, against the
    witness bound omega/(1-omega)."""
    n_pts = result.t.size
    rows = []
    for n, w in sorted(omegas.items()):
        if not (0 <= w < 1):
            raise ValueError(f"witness weight must be in [0,1), got {w}")
        rows.append(IndexReportRow(n, result.index_total(n) / n_pts, w / (1.0 - w)))
    return rows


@dataclass
class ResampleFractions:
    frac_resampled: Fraction      # points with t >= 1
    frac_changed: Fraction        # points whose final color differs from tape row 0
    bound: Optional[float]        # sum |F_n| omega(n)/(1-omega(n)), when given

    @property
    def within(self) -> Optional[bool]:
        return None if self.bound is None else float(self.frac_resampled) <= self.bound


def resample_fraction(result: MTResult, family: Optional[EventFamily] = None,
                      omegas: Optional[dict] = None) -> ResampleFractions:
    n_pts = result.t.size
    resampled = int(np.count_nonzero(result.t))  # t is never negative
    changed = int(np.count_nonzero(result.coloring != result.first_row))
    bound = None
    if family is not None and omegas is not None:
        bound = sum(len(ev.domain) * omegas[n] / (1.0 - omegas[n]) for n, ev in family)
    return ResampleFractions(Fraction(resampled, n_pts), Fraction(changed, n_pts), bound)
